"""The library workloads: ops that call entrokit in-process, and the
checks of their results against references computed at generation time.

Tolerances are the test suite's: 1e-12 for the shift identity and the
maxent entropy, 1e-8 for closed-form differential entropies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def quantize_fine(ek, inputs: Path) -> list:
    """One op is one convergence_sweep over eleven halving widths, for a
    gaussian, exponential or uniform density."""
    def op(spec):
        def run():
            return ek.convergence_sweep(ek.density_from_json(spec["spec"]), spec["h"])

        def check(rows):
            if len(rows) != len(spec["h"]):
                return f"{len(rows)} rows for {len(spec['h'])} widths"
            for r in rows:
                if abs(r.differential_entropy - spec["differential"]) > 1e-8:
                    return f"differential {r.differential_entropy}, closed form {spec['differential']}"
            if rows[-1].abs_error > 1e-3:
                return f"gap {rows[-1].abs_error} at the finest width"
            # shift identity at the coarsest width: total = H(bin masses) + ln h
            h0 = spec["h"][0]
            q = ek.quantize_density(ek.density_from_json(spec["spec"]), h0)
            shifted = ek.shannon_entropy(q.binned.dist).value + math.log(h0)
            if abs(rows[0].total_entropy - shifted) > 1e-12:
                return f"shift identity off by {rows[0].total_entropy - shifted:.3e}"
            return None

        return run, check

    return [op(spec) for spec in json.loads((inputs / "ops.json").read_text())]


def axiom_suites(ek, inputs: Path) -> list:
    """Ops alternate between one run_axiom_suite and one maxent_shell_check
    on each of four seeded unequal cell sets."""
    cells = dict(np.load(inputs / "cells.npz"))

    def suite(spec):
        expected = spec["sizes"].get("n_distributions", 10_000)

        def run():
            return ek.run_axiom_suite(spec["seed"], **spec["sizes"])

        def check(report):
            if not report.passed or report.n_distributions != expected:
                return f"axiom suite seed {spec['seed']} failed: {report}"
            return None

        return run, check

    def maxent(spec):
        def run():
            return [ek.maxent_shell_check(ek.DiscretizedShellDensity.uniform(cells[key]),
                                          C=spec["C"], trials=spec["trials"], seed=spec["seed"])
                    for key in spec["cells"]]

        def check(reports):
            for key, ref, report in zip(spec["cells"], spec["entropy"], reports):
                if not report.is_maximal:
                    return f"{key}: uniform density not maximal"
                if abs(report.entropy - ref) > 1e-12:
                    return f"{key}: entropy {report.entropy}, reference {ref}"
            return None

        return run, check

    specs = json.loads((inputs / "ops.json").read_text())
    return [suite(s) if s["kind"] == "suite" else maxent(s) for s in specs]


WORKLOADS = {"quantize_fine": quantize_fine, "axiom_suites": axiom_suites}
