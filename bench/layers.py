"""Per-layer spans for entrokit, recorded from outside the package.

Each public name of a layer module is replaced by a wrapper that records a
span per call, in every entrokit module that holds the name (quantize, for
one, imports total_entropy as its own name).  The validated carriers are
timed through their __post_init__.  Spans nest on a stack, so a span's self
time is its duration minus the time its child spans cover.  Stats are summed
as spans close rather than kept as a list, because the axiom suites open
tens of thousands of spans per op.
"""

from __future__ import annotations

import builtins
import importlib
import sys
import time
from collections import defaultdict

# The layers are entrokit's modules; `errors` does no work.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("parse_args", "run"),
    "distributions": (
        "discrete_from_json", "binned_from_json", "density_from_json",
        "validate_distribution", "renormalize",
        "DiscreteDistribution", "BinnedVariable", "DensitySpec",
    ),
    "entropy": (
        "shannon_entropy", "total_entropy", "random_distribution", "robin_hood_pair",
        "schur_concavity_check", "additivity_defect", "run_axiom_suite",
    ),
    "quantize": (
        "quantize_density", "differential_entropy", "total_entropy_from_density",
        "convergence_sweep",
    ),
    "statmech": (
        "maxent_shell_check", "shell_entropy", "boltzmann_entropy", "sackur_tetrode_entropy",
        "log_phase_shell_volume", "compare_entropy_forms", "modified_differential_entropy",
        "DiscretizedShellDensity",
    ),
    "functional_eq": ("fit_log_affine",),
}
CARRIERS = ("DiscreteDistribution", "BinnedVariable", "DensitySpec", "DiscretizedShellDensity")

# Imports timed on their first load: metric suffix -> module name.
IMPORTS = {"numpy": "numpy", "scipy_special": "scipy.special",
           "scipy_integrate": "scipy.integrate", "entrokit": "entrokit"}

# Counters that are not spans: name -> unit.
COUNTERS = {
    "distributions.DiscreteDistribution.items": "count",
    "distributions.DensitySpec.pdf.calls": "count",
    "distributions.DensitySpec.cdf.calls": "count",
    "quantize.bins": "count",
    "quantize.pdf_evals_per_bin": "ratio",
    "cli.stdout_bytes": "B",
    "cli.interpreter.self_s": "s",
    **{f"import.{name}.self_s": "s" for name in IMPORTS},
    "import.total_s": "s",
}
TRACE_METRICS = {"trace.traced_ops_per_s": ("1/s", "higher"),
                 "trace.untraced_ops_per_s": ("1/s", "higher"),
                 "trace.overhead": ("ratio", "lower"),
                 "trace.span_coverage": ("ratio", "higher")}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric with its unit and direction; span and counter
    values are per op of the traced phase."""
    spec = []
    for layer, names in LAYERS.items():
        for name in names:
            spec += [{"name": f"{layer}.{name}.calls", "unit": "count", "better": "lower"},
                     {"name": f"{layer}.{name}.self_s", "unit": "s", "better": "lower"},
                     {"name": f"{layer}.{name}.errors", "unit": "count", "better": "lower"}]
    spec += [{"name": n, "unit": u, "better": "lower"} for n, u in COUNTERS.items()]
    spec += [{"name": n, "unit": u, "better": b} for n, (u, b) in TRACE_METRICS.items()]
    return spec


class Tracer:
    """Span and counter totals for one traced phase."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, errors
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, key: str, fn):
        stats, stack = self.stats[key], self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            if self.active:
                counts[key] += 1
            return fn(*args)

        return counted

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every listed name of every layer; `uninstall` restores them."""
        modules = {layer: importlib.import_module(f"entrokit.{layer}") for layer in LAYERS}
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "entrokit" or name.startswith("entrokit.")]
        dist = modules["distributions"]
        counts = self.counts

        def count_items(post):
            def post_init(obj):
                post(obj)
                if self.active:
                    counts["distributions.DiscreteDistribution.items"] += obj.probs.size
            return post_init

        def count_bins(quantize_density):
            def counted(f, h):
                pdf_before = counts["distributions.DensitySpec.pdf.calls"]
                result = quantize_density(f, h)
                if not self.active:
                    return result
                counts["quantize.bins"] += result.binned.probs.size
                counts["quantize.pdf_evals"] += (
                    counts["distributions.DensitySpec.pdf.calls"] - pdf_before)
                return result
            return counted

        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name)
                key = f"{layer}.{name}"
                if name in CARRIERS:
                    post = original.__post_init__
                    if name == "DiscreteDistribution":
                        post = count_items(post)
                    self._set(original, "__post_init__", self._span(key, post))
                    continue
                inner = count_bins(original) if name == "quantize_density" else original
                wrapper = self._span(key, inner)
                for module in holders:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        for method in ("pdf", "cdf"):
            key = f"distributions.DensitySpec.{method}.calls"
            self._set(dist.DensitySpec, method,
                      self._count(key, getattr(dist.DensitySpec, method)))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def merge(self, report: dict) -> None:
        """Add a child process's totals, as written by `report`."""
        for key, (calls, self_s, errors) in report["stats"].items():
            s = self.stats[key]
            s[0] += calls
            s[1] += self_s
            s[2] += errors
        for key, value in report["counts"].items():
            self.counts[key] += value
        self.top_s += report["top_s"]

    def report(self) -> dict:
        return {"stats": dict(self.stats), "counts": dict(self.counts), "top_s": self.top_s}


class ImportTimer:
    """Self time of the first load of each module in IMPORTS, taken by
    wrapping builtins.__import__ while entrokit loads, so it times what the
    program imports rather than a fixed list.  Any entrokit submodule loaded
    by an absolute import counts as entrokit."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._targets = {module: name for name, module in IMPORTS.items()}
        self._original = builtins.__import__

    def _import(self, name, globals=None, locals=None, fromlist=(), level=0):
        target = None
        if level == 0:
            target = "entrokit" if name.split(".")[0] == "entrokit" else self._targets.get(name)
        if target is None or name in sys.modules:
            return self._original(name, globals, locals, fromlist, level)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return self._original(name, globals, locals, fromlist, level)
        finally:
            dt = time.perf_counter() - t0
            self.self_s[target] += dt - self._stack.pop()
            if self._stack:
                self._stack[-1] += dt

    def __enter__(self) -> "ImportTimer":
        builtins.__import__ = self._import
        return self

    def __exit__(self, *exc) -> None:
        builtins.__import__ = self._original

    def totals(self) -> dict[str, float]:
        out = {name: self.self_s.get(name, 0.0) for name in IMPORTS}
        out["total"] = sum(out.values())
        return out


def layer_metrics(totals: dict, ops: int) -> dict[str, float]:
    """Per-op span and counter values from a traced phase's totals.

    The ratio pdf_evals_per_bin has quantize.bins as its base."""
    stats, counts = totals["stats"], totals["counts"]
    out = {}
    for layer, names in LAYERS.items():
        for name in names:
            calls, self_s, errors = stats.get(f"{layer}.{name}", (0, 0.0, 0))
            out[f"{layer}.{name}.calls"] = calls / ops
            out[f"{layer}.{name}.self_s"] = self_s / ops
            out[f"{layer}.{name}.errors"] = errors / ops
    for key in COUNTERS:
        out[key] = counts.get(key, 0.0) / ops
    bins = counts.get("quantize.bins", 0.0)
    out["quantize.pdf_evals_per_bin"] = counts.get("quantize.pdf_evals", 0.0) / bins if bins else 0.0
    return out
