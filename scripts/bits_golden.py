#!/usr/bin/env python3
"""Write the bits corpus: what the CLI prints and what the library returns,
as bytes, for a fixed set of inputs.

The corpus holds, for every argv, its exit code and the sha256 of its
stdout, run in-process through `entrokit.cli.main` as given, with `--k 2.5`
appended and with `--unit bits` appended.  The argv are the ten commands of
acceptance criterion 11 (whose stdout is also stored in full), the 360
`cli_oneshot` ops that `bench/gen.py` writes at seeds 1-3, and a list of
edge cases.  It also holds the sha256 of the `quantize_fine` sweep rows at
seed 20261017, one digest per density family, and of a corpus of Shannon,
total and shell entropies.  For a few seeds and size settings it holds the
compact JSON bytes of `run_axiom_suite(...).to_json_obj()`, exactly as the
CLI prints them, and for a grid of cell counts m and phase-cell constants C
the entropy and verdict of `maxent_shell_check`.
`tests/test_bits_golden.py` checks the current code against it entry by
entry; a deliberate change of bits regenerates it and lists every moved
entry.

The package is imported from the `src/` of the checkout given, so the
corpus of any commit can be written and compared with another's:

    python scripts/bits_golden.py                       # this checkout
    python scripts/bits_golden.py --checkout ../other --out /tmp/other.json
"""

import argparse
import hashlib
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GAUSSIAN = '{"family":"gaussian","mu":0,"sigma":1}'
CRITERION_11 = [
    ["discrete", "--probs", "[0.5,0.5]", "--unit", "bits"],
    ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[2,2]}'],
    ["differential", "--density", GAUSSIAN],
    ["modified", "--density", GAUSSIAN, "--h", "0.5"],
    ["quantize", "--density", GAUSSIAN, "--h", "0.5"],
    ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "3", "--format", "csv"],
    ["axioms", "--seed", "20260810", "--n-dists", "400", "--additivity-pairs", "50",
     "--majorization-pairs", "50"],
    ["fit-phi", "--data", "0.1,2.0\n0.2,1.3\n0.5,0.4\n0.9,-0.2"],
    ["statmech", "ideal-gas", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "100",
     "--indistinguishable"],
    ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "100",
     "--planck-h", "2"],
]


def _density(family, **params):
    return json.dumps({"family": family, **params})


EDGE_CASES = [
    ["discrete", "--probs", "[1.0]"],
    ["discrete", "--probs", "[0.5,0.5,0]"],
    ["discrete", "--probs", "[1e-300,1]"],
    ["discrete", "--probs", "[0.6,0.5]"],
    ["quantize", "--density", _density("gaussian", mu=0, sigma=1e-300), "--h", "1"],
    ["quantize", "--density", _density("gaussian", mu=0, sigma=1e307), "--h", "1e308"],
    ["quantize", "--density", _density("gaussian", mu=-3, sigma=1e-3), "--h", "1e-4"],
    ["quantize", "--density", _density("gaussian", mu=1e6, sigma=0.5), "--h", "0.01"],
    ["quantize", "--density", _density("exponential", rate=1e-3), "--h", "100"],
    ["quantize", "--density", _density("uniform", a=-1, b=3), "--h", "0.3"],
    ["quantize", "--density", _density("uniform", a=0, b=1), "--h", "0"],
    ["converge", "--density", _density("gaussian", mu=0.5, sigma=2), "--h-start", "0.5",
     "--halvings", "10"],
    ["converge", "--density", _density("exponential", rate=3), "--h-start", "0.5",
     "--halvings", "10"],
    ["converge", "--density", _density("uniform", a=-2, b=5), "--h-start", "0.5",
     "--halvings", "10"],
    ["differential", "--density", _density("exponential", rate=1e-300)],
    ["modified", "--density", _density("gaussian", mu=2, sigma=0.25), "--h", "1e-9"],
    ["axioms", "--seed", "0", "--n-dists", "50", "--k", "1e6"],
    ["statmech", "ideal-gas", "--E", "150", "--dE", "1500", "--V", "1000", "--N", "100"],
    ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "1000",
     "--planck-h", "0.1"],
    ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "100",
     "--planck-h", "2", "--indistinguishable"],
    # after a space, argparse may read -1e5 as an option; after "=" it is a value
    ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "100",
     "--planck-h", "2", "--ln-omega=-1e5"],
]
VARIANTS = ([], ["--k", "2.5"], ["--unit", "bits"])
SWEEP_SEED = 20261017
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv):
    from entrokit import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _bench_ops(workload: str, seed: int) -> list:
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        gen.generate(workload, seed, Path(tmp))
        return json.loads((Path(tmp) / "ops.json").read_text())


def _digest(values) -> str:
    return _sha(" ".join(float(v).hex() for v in values))


def _entropies() -> dict:
    import numpy as np
    from entrokit import (BinnedVariable, DiscretizedShellDensity, renormalize,
                          shannon_entropy, shell_entropy, total_entropy)

    rng = np.random.default_rng(SWEEP_SEED)
    out = {}
    for k in (1.0, 2.5):
        shannon, total, shell = [], [], []
        for n in (1, 2, 3, 17, 256, 257, 1000, 4097):
            p = renormalize(rng.exponential(size=n))
            shannon.append(shannon_entropy(p, k).value)
            widths = rng.uniform(1e-3, 10.0, n)
            v = BinnedVariable(np.cumsum(widths), p, widths)
            total.append(total_entropy(v, k).value)
            w = rng.uniform(0.5, 2.0, n)
            for d in (DiscretizedShellDensity.uniform(w), DiscretizedShellDensity(w, p.probs / w)):
                shell += [shell_entropy(d, c, k).value for c in (0.3, 1.0, 3.0)]
        out[f"k={k}"] = {"shannon": _digest(shannon), "total": _digest(total),
                         "shell": _digest(shell)}
    return out


def _suites() -> list:
    from entrokit import run_axiom_suite

    return [{"name": name, "seed": seed, "sizes": sizes,
             "report": json.dumps(run_axiom_suite(seed, **sizes).to_json_obj(),
                                  separators=(",", ":"))}
            for name, sizes in SUITE_SIZES.items() for seed in SEEDS]


def _maxent() -> list:
    import numpy as np
    from entrokit import DiscretizedShellDensity, maxent_shell_check

    out = []
    for m in MAXENT_CELLS:
        # unequal cells, so the uniform density is not the constant vector
        d = DiscretizedShellDensity.uniform(np.random.default_rng(m).uniform(0.5, 2.0, m))
        for c in MAXENT_C:
            report = maxent_shell_check(d, C=c, trials=MAXENT_TRIALS, seed=1000 + m)
            out.append({"m": m, "C": c, "trials": MAXENT_TRIALS, "seed": 1000 + m,
                        "entropy": report.entropy, "is_maximal": report.is_maximal})
    return out


def corpus() -> dict:
    from entrokit import convergence_sweep, density_from_json

    cases = [("criterion_11", a) for a in CRITERION_11]
    for seed in (1, 2, 3):
        cases += [(f"cli_oneshot_{seed}", op["argv"]) for op in _bench_ops("cli_oneshot", seed)]
    cases += [("edge", a) for a in EDGE_CASES]
    argv, stdout = [], {}
    for source, base in cases:
        for extra in VARIANTS:
            code, text = _run(base + extra)
            argv.append({"source": source, "argv": base + extra, "code": code, "sha256": _sha(text)})
            if source == "criterion_11" and not extra:
                stdout[" ".join(base)] = text
    rows = {}
    for op in _bench_ops("quantize_fine", SWEEP_SEED):
        sweep = convergence_sweep(density_from_json(op["spec"]), op["h"])
        fields = [x for r in sweep for x in (r.h, r.total_entropy, r.differential_entropy,
                                              r.abs_error)]
        rows.setdefault(op["spec"]["family"], []).extend(fields)
    sweeps = {family: _digest(values) for family, values in sorted(rows.items())}
    return {"argv": argv, "stdout": stdout, "sweeps": sweeps, "entropies": _entropies(),
            "suites": _suites(), "maxent": _maxent()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="repository whose src/ is imported (default: this one)")
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "bits_golden.json")
    args = ap.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(corpus(), indent=1) + "\n")


if __name__ == "__main__":
    main()
