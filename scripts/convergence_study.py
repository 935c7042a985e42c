#!/usr/bin/env python3
"""Sweep the total-vs-differential entropy gap as bin widths halve.

Writes one CSV per density family (same columns as `entrokit converge
--format csv`) and prints a summary table of the error decay.

Usage:
    python scripts/convergence_study.py --h-start 0.5 --halvings 8 --out-dir out/
"""

import argparse
from pathlib import Path

from entrokit import DensitySpec, convergence_sweep
from entrokit.quantize import convergence_csv

FAMILIES = {
    "uniform_0_2": DensitySpec.uniform(0.0, 2.0),
    "gaussian_0_1": DensitySpec.gaussian(0.0, 1.0),
    "exponential_1": DensitySpec.exponential(1.0),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h-start", type=float, default=0.5)
    ap.add_argument("--halvings", type=int, default=8)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    h_values = [args.h_start * 2.0**-j for j in range(args.halvings)]

    for name, density in FAMILIES.items():
        rows = convergence_sweep(density, h_values)
        path = args.out_dir / f"convergence_{name}.csv"
        path.write_text(convergence_csv(rows), newline="")
        print(f"\n{name}  (H_diff = {rows[0].differential_entropy:.9f})  -> {path}")
        print(f"  {'h':>12}  {'abs_error':>12}  ratio")
        prev = None
        for r in rows:
            ratio = "" if prev is None else f"{prev / r.abs_error:5.2f}x" if r.abs_error else ""
            print(f"  {r.h:12.6f}  {r.abs_error:12.3e}  {ratio}")
            prev = r.abs_error


if __name__ == "__main__":
    main()
