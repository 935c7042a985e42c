"""cli_oneshot: one fresh `python -m entrokit` process per op.

Kept free of numpy so the client's own start-up stays small; the checks
use the standard library only.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from loop import strict_json

CHILD_TIMEOUT_S = 60


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _rel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _cdf(spec: dict, x: float) -> float:
    if spec["family"] == "gaussian":
        return 0.5 * math.erfc(-(x - spec["mu"]) / (spec["sigma"] * math.sqrt(2.0)))
    if spec["family"] == "exponential":
        return -math.expm1(-spec["rate"] * x) if x > 0 else 0.0
    return min(max((x - spec["a"]) / (spec["b"] - spec["a"]), 0.0), 1.0)


def _check_quantize(body: dict, ref: dict):
    if body["h"] != ref["h"]:
        return f"h {body['h']} echoed for {ref['h']}"
    b, h = body["binned"], ref["h"]
    for x, p, w in zip(b["values"], b["probs"], b["widths"]):
        exact = _cdf(ref["spec"], x + h / 2) - _cdf(ref["spec"], x - h / 2)
        if w != h or not _close(p, exact, 1e-10):
            return f"bin at {x} has mass {p}, closed form {exact}"
    if not _close(math.fsum(b["probs"]) + body["mass_deficit"], 1.0, 1e-8):
        return "masses plus deficit do not sum to 1"
    return None


def _check_converge(body: dict, ref: dict):
    rows = body["rows"]
    if len(rows) != ref["rows"]:
        return f"{len(rows)} rows, expected {ref['rows']}"
    for r in rows:
        if not _close(r["differential_entropy"], ref["differential"], 1e-8):
            return f"differential entropy {r['differential_entropy']}, closed form {ref['differential']}"
        if r["abs_error"] != abs(r["total_entropy"] - r["differential_entropy"]):
            return "abs_error is not |total - differential|"
    return None


def _check_ideal_gas(body: dict, ref: dict):
    for key in ("lnOmega", "S", "S_sackur_tetrode"):
        if not _rel_close(body[key], ref[key]):
            return f"{key} {body[key]}, reference {ref[key]}"
    return None


def _check_compare(body: dict, ref: dict):
    if not _rel_close(body["S_cell_in_log"], ref["S_cell_in_log"]):
        return f"S_cell_in_log {body['S_cell_in_log']}, reference {ref['S_cell_in_log']}"
    if not _rel_close(body["gap"], body["S_cell_in_log"] - body["S_prefactor"]):
        return "gap is not S_cell_in_log - S_prefactor"
    return None


# Per-kind check of a successful op's parsed stdout against its reference.
CHECKS = {
    "discrete": lambda b, r: None if _close(b["value"], r["value"], 1e-12) and b["unit"] == r["unit"]
    else f"{b} for {r}",
    "total": lambda b, r: None if _close(b["value"], r["value"], 1e-12) else f"{b} for {r}",
    "differential": lambda b, r: None if _close(b["value"], r["value"], 1e-8) else f"{b} for {r}",
    "modified": lambda b, r: None if _close(b["value"], r["value"], 1e-8) else f"{b} for {r}",
    "quantize": _check_quantize,
    "converge": _check_converge,
    "axioms": lambda b, r: None if b["passed"] is True and b["seed"] == r["seed"]
    and b["n_distributions"] == r["n_distributions"] else f"axiom report {b}",
    "fit-phi": lambda b, r: None if _close(b["A"], r["A"], 1e-10) and _close(b["B"], r["B"], 1e-10)
    and b["admissible"] is True and b["residual"] <= 1e-10 else f"{b} for {r}",
    "statmech ideal-gas": _check_ideal_gas,
    "statmech compare": _check_compare,
}


def check_output(op: dict, code: int, stdout: str):
    """None if the exit code has the op's class and stdout is the right
    strict-JSON body; otherwise the reason."""
    if code != op["expect"]:
        return f"{op['kind']} exited {code}, expected {op['expect']}"
    try:
        body = strict_json(stdout)
    except ValueError as e:
        return f"{op['kind']} stdout is not JSON: {e}"
    if op["expect"] != 0:
        err = body.get("error") if isinstance(body, dict) else None
        if not (len(body) == 1 and isinstance(err, dict)
                and isinstance(err.get("kind"), str) and isinstance(err.get("message"), str)):
            return f"{op['kind']} printed no error envelope: {stdout!r}"
        return None
    return CHECKS[op["kind"]](body, op["ref"])


class CliOps:
    """Builds the (run, check) pairs; with a tracer, each op runs the
    benchmark's traced child instead of `python -m entrokit`."""

    def __init__(self, root: Path, inputs: Path) -> None:
        self.root = root
        self.specs = json.loads((inputs / "ops.json").read_text())
        self.report_path = inputs / "child_trace.json"

    def ops(self, tracer=None) -> list:
        return [self._op(spec, tracer) for spec in self.specs]

    def _op(self, spec: dict, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "entrokit", *spec["argv"]]
        else:
            child = str(Path(__file__).with_name("cli_child.py"))
            cmd = [sys.executable, child, str(self.report_path), *spec["argv"]]

        def run():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
            if tracer is not None:
                report = json.loads(self.report_path.read_text())
                tracer.merge(report)
                c = tracer.counts
                c["cli.stdout_bytes"] += report["stdout_bytes"]
                for name, value in report["imports"].items():
                    key = "import.total_s" if name == "total" else f"import.{name}.self_s"
                    c[key] += value
                c["cli.interpreter.self_s"] += (wall - report["imports"]["total"]
                                                - report["top_s"] - report["overhead_s"])
                tracer.top_s += report["imports"]["total"]  # imports are spans too
            return proc.returncode, proc.stdout

        return run, lambda out: check_output(spec, *out)
