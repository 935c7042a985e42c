#!/usr/bin/env python3
"""Write the golden corpus of the axiom and max-entropy suites.

For a few seeds and size settings the corpus holds the compact JSON bytes
of `run_axiom_suite(...).to_json_obj()`, exactly as the CLI prints them,
and for a grid of cell counts m and phase-cell constants C the entropy
and verdict of `maxent_shell_check`.  `tests/test_batch_suites.py` checks the
current code against it byte for byte.

The package is imported from the `src/` of the checkout given, so the
corpus of any commit can be written and compared with another's:

    python scripts/axiom_golden.py                       # this checkout
    python scripts/axiom_golden.py --checkout ../other --out /tmp/other.json
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEEDS = (0, 7, 20261017, 538864902)
SUITE_SIZES = {
    "defaults": {},
    "criterion_11": {"n_distributions": 400, "additivity_pairs": 50, "majorization_pairs": 50},
    "max_n_8_bits": {"max_n": 8, "k": 1.0 / math.log(2.0)},
    "max_n_200": {"max_n": 200, "n_distributions": 2000, "additivity_pairs": 100,
                  "majorization_pairs": 200},
    # few enough pairs that no drawn row of one element pins the extremes
    # at 0.0 for these seeds, so these reports change with the draws
    "unsaturated": {"n_distributions": 20, "additivity_pairs": 5, "majorization_pairs": 5},
}
MAXENT_CELLS = (1, 4, 64, 1024, 4096)
MAXENT_C = (0.3, 1.0, 3.0)
MAXENT_TRIALS = 200


def corpus() -> dict:
    import numpy as np
    from entrokit import DiscretizedShellDensity, maxent_shell_check, run_axiom_suite

    suites = []
    for name, sizes in SUITE_SIZES.items():
        for seed in SEEDS:
            report = run_axiom_suite(seed, **sizes)
            suites.append({"name": name, "seed": seed, "sizes": sizes,
                           "report": json.dumps(report.to_json_obj(), separators=(",", ":"))})
    maxent = []
    for m in MAXENT_CELLS:
        # unequal cells, so the uniform density is not the constant vector
        d = DiscretizedShellDensity.uniform(np.random.default_rng(m).uniform(0.5, 2.0, m))
        for c in MAXENT_C:
            report = maxent_shell_check(d, C=c, trials=MAXENT_TRIALS, seed=1000 + m)
            maxent.append({"m": m, "C": c, "trials": MAXENT_TRIALS, "seed": 1000 + m,
                           "entropy": report.entropy, "is_maximal": report.is_maximal})
    return {"suites": suites, "maxent": maxent}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository whose src/ is imported (default: this one)")
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "axiom_golden.json")
    args = ap.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(corpus(), indent=1) + "\n")


if __name__ == "__main__":
    main()
