"""Seeded inputs and reference answers for the four workloads.

Runs in the benchmark's parent process, before any timed interval, and never
imports entrokit: every reference value is computed independently of the
program, from a closed form, with math.fsum, or with numpy.  The same seed always writes the same files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FAMILIES = ("gaussian", "exponential", "uniform")
MAXENT_SIZES = (64, 256, 1024, 4096)
TINY_MAXENT_SIZES = (8, 16, 32, 64)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _density(rng: np.random.Generator, family: str) -> tuple[dict, float]:
    """A density spec of the family and its scale: sigma, 1/rate or b - a."""
    if family == "gaussian":
        sigma = _log_uniform(rng, 0.25, 4.0)
        return {"family": family, "mu": float(rng.uniform(-5, 5)), "sigma": sigma}, sigma
    if family == "exponential":
        rate = _log_uniform(rng, 0.25, 4.0)
        return {"family": family, "rate": rate}, 1.0 / rate
    a = float(rng.uniform(-5, 5))
    b = a + _log_uniform(rng, 0.25, 4.0)
    return {"family": family, "a": a, "b": b}, b - a


# Span of each family's truncated support, in units of its scale (rounded).
SPANS = {"gaussian": 15.0, "exponential": 30.0, "uniform": 1.0}


def differential_entropy(spec: dict) -> float:
    """Closed-form differential entropy in nats."""
    if spec["family"] == "gaussian":
        return 0.5 * math.log(2.0 * math.pi * math.e * spec["sigma"] ** 2)
    if spec["family"] == "exponential":
        return 1.0 - math.log(spec["rate"])
    return math.log(spec["b"] - spec["a"])


def _shannon(probs: list[float]) -> float:
    return math.fsum(-p * math.log(p) for p in probs if p > 0)


def _ln_omega(E: float, dE: float, V: float, N: int) -> float:
    """ln of the ideal-gas energy-shell volume, unit mass, written out with
    math.lgamma rather than scipy's gammaln."""
    ln_phi = N * math.log(V) + 1.5 * N * math.log(2.0 * math.pi * E) - math.lgamma(1.5 * N + 1.0)
    return ln_phi + math.log(math.expm1(1.5 * N * math.log1p(dE / E)))


# -- cli_oneshot ----------------------------------------------------------------

CLI_KINDS = (
    "discrete", "total", "differential", "modified", "quantize",
    "converge", "axioms", "fit-phi", "statmech ideal-gas", "statmech compare",
)

# One deliberately invalid argv per kind; each must exit 65 with the envelope.
_INVALID = {
    "discrete": ["discrete", "--probs", "[0.6,0.5]"],
    "total": ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[1,0]}'],
    "differential": ["differential", "--density", '{"family":"gaussian","mu":0,"sigma":-1}'],
    "modified": ["modified", "--density", '{"family":"exponential","rate":1}', "--h=-0.5"],
    "quantize": ["quantize", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0"],
    "converge": ["converge", "--density", '{"family":"exponential","rate":1}',
                 "--h-start", "0.5", "--halvings", "0"],
    "axioms": ["axioms", "--seed", "1", "--n-dists", "20", "--k=-1"],
    "fit-phi": ["fit-phi", "--data", "0.5,1.0\n0.5,1.1"],
    "statmech ideal-gas": ["statmech", "ideal-gas", "--E=-150", "--dE", "1.5",
                           "--V", "1000", "--N", "100"],
    "statmech compare": ["statmech", "compare", "--E", "150", "--dE", "1.5",
                         "--V", "0", "--N", "100"],
}


def _cli_op(rng: np.random.Generator, kind: str) -> dict:
    """One valid argv of the kind, with what the correct answer must be."""
    if kind == "discrete":
        n = int(rng.integers(2, 33))
        w = rng.exponential(size=n)
        if n > 2:
            w[rng.integers(0, n)] = 0.0  # 0 ln 0 = 0 must hold
        p = (w / math.fsum(w.tolist())).tolist()
        unit = "bits" if rng.random() < 0.5 else "nats"
        value = _shannon(p) / (math.log(2.0) if unit == "bits" else 1.0)
        return {"argv": ["discrete", "--probs", json.dumps(p), "--unit", unit],
                "ref": {"value": value, "unit": unit}}
    if kind == "total":
        n = int(rng.integers(2, 17))
        w = rng.exponential(size=n)
        p = (w / math.fsum(w.tolist())).tolist()
        values = np.cumsum(rng.uniform(0.5, 1.5, size=n)).tolist()
        widths = rng.uniform(0.1, 2.0, size=n).tolist()
        value = math.fsum(-pi * (math.log(pi) - math.log(hi)) for pi, hi in zip(p, widths))
        data = {"values": values, "probs": p, "widths": widths}
        return {"argv": ["total", "--data", json.dumps(data)], "ref": {"value": value}}
    family = FAMILIES[int(rng.integers(0, 3))]
    spec, scale = _density(rng, family)
    density = json.dumps(spec)
    if kind == "differential":
        return {"argv": ["differential", "--density", density],
                "ref": {"value": differential_entropy(spec)}}
    if kind == "modified":
        h = _log_uniform(rng, 0.05, 2.0)
        return {"argv": ["modified", "--density", density, "--h", repr(h)],
                "ref": {"value": differential_entropy(spec) - math.log(h)}}
    if kind == "quantize":
        h = scale / float(rng.uniform(2.0, 8.0))
        return {"argv": ["quantize", "--density", density, "--h", repr(h)],
                "ref": {"spec": spec, "h": h}}
    if kind == "converge":
        return {"argv": ["converge", "--density", density, "--h-start", repr(scale / 2),
                         "--halvings", "3"],
                "ref": {"rows": 3, "differential": differential_entropy(spec)}}
    if kind == "axioms":
        seed = int(rng.integers(0, 2**31))
        return {"argv": ["axioms", "--seed", str(seed), "--n-dists", "200",
                         "--additivity-pairs", "20", "--majorization-pairs", "20"],
                "ref": {"seed": seed, "n_distributions": 200}}
    if kind == "fit-phi":
        A, B = float(rng.uniform(-3.0, -0.5)), float(rng.uniform(-2.0, 2.0))
        rows = [f"{p!r},{A * math.log(p) + B!r}" for p in np.geomspace(1e-3, 1.0, 8).tolist()]
        return {"argv": ["fit-phi", "--data", "\n".join(rows)], "ref": {"A": A, "B": B}}
    # statmech: thin shells (dE/E <= 0.05) and the README's phase-cell range
    N = int(rng.integers(10, 1001))
    E = N * float(rng.uniform(0.5, 3.0))
    dE = E * float(rng.uniform(0.001, 0.05))
    V = N * _log_uniform(rng, 10.0, 1e6)
    planck_h = _log_uniform(rng, 1.0, 4.0)
    argv = ["statmech", kind.split()[1], "--E", repr(E), "--dE", repr(dE), "--V", repr(V),
            "--N", str(N), "--planck-h", repr(planck_h)]
    ln_omega = _ln_omega(E, dE, V, N)
    s_cell = ln_omega - 3.0 * N * math.log(planck_h)
    if kind == "statmech compare":
        return {"argv": argv, "ref": {"S_cell_in_log": s_cell}}
    indist = bool(rng.random() < 0.5)
    if indist:
        argv.append("--indistinguishable")
    st = N * (math.log(V / N) + 1.5 * math.log(4.0 * math.pi * E / (3.0 * N * planck_h**2)) + 2.5)
    return {"argv": argv, "ref": {"lnOmega": ln_omega,
                                  "S": s_cell - (math.lgamma(N + 1.0) if indist else 0.0),
                                  "S_sackur_tetrode": st}}


def _gen_cli(rng: np.random.Generator, out: Path, tiny: bool) -> None:
    ops = []
    for _ in range(12):
        bad = int(rng.integers(0, len(CLI_KINDS)))
        for i, kind in enumerate(CLI_KINDS):
            if i == bad:
                ops.append({"kind": kind, "argv": _INVALID[kind], "expect": 65, "ref": None})
            else:
                ops.append({"kind": kind, "expect": 0, **_cli_op(rng, kind)})
    (out / "ops.json").write_text(json.dumps(ops))


# -- library workloads ----------------------------------------------------------


def _gen_quantize(rng: np.random.Generator, out: Path, tiny: bool) -> None:
    """Widths halve from span/16 to span/16384 (span/256 when tiny), which is
    about sigma/1100 for a gaussian.  Every op then quantizes about 16,000
    bins at its finest width whatever the family and parameters, so ops cost
    alike and the latency median does not depend on the family mix."""
    halvings = 5 if tiny else 11
    ops = []
    for _ in range(30):
        for family in rng.permutation(FAMILIES).tolist():
            spec, scale = _density(rng, family)
            h0 = SPANS[family] * scale / 16
            ops.append({"spec": spec, "h": [h0 * 2.0**-j for j in range(halvings)],
                        "differential": differential_entropy(spec)})
    (out / "ops.json").write_text(json.dumps(ops))


def _gen_axioms(rng: np.random.Generator, out: Path, tiny: bool) -> None:
    sizes = TINY_MAXENT_SIZES if tiny else MAXENT_SIZES
    suite = ({"n_distributions": 200, "additivity_pairs": 20, "majorization_pairs": 20}
             if tiny else {})
    ops, cells = [], {}
    for i in range(20):
        ops.append({"kind": "suite", "seed": int(rng.integers(0, 2**31)), "sizes": suite})
        maxent = {"kind": "maxent", "trials": 50 if tiny else 1000,
                  "seed": int(rng.integers(0, 2**31)), "C": _log_uniform(rng, 0.5, 2.0),
                  "cells": [], "entropy": []}
        for m in sizes:
            key = f"op{i}_m{m}"
            w = rng.uniform(0.5, 2.0, size=m)
            cells[key] = w
            maxent["cells"].append(key)
            # the uniform density 1/W on cells w has entropy ln(W / C)
            maxent["entropy"].append(math.log(math.fsum(w.tolist()) / maxent["C"]))
        ops.append(maxent)
    np.savez(out / "cells.npz", **cells)
    (out / "ops.json").write_text(json.dumps(ops))


GENERATORS = {
    "cli_oneshot": _gen_cli,
    "quantize_fine": _gen_quantize,
    "axiom_suites": _gen_axioms,
}


def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> None:
    """Write the workload's inputs for this seed into the directory `out`."""
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](np.random.default_rng(seed), out, tiny)
