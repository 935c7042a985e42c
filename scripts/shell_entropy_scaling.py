#!/usr/bin/env python3
"""Ideal-gas shell entropy against the Sackur-Tetrode closed form as N grows.

Holds E/N, V/N and dE/E fixed while N scales, so the per-particle entropy
should be flat.  The gap to the closed form is the Stirling remainder, which
shrinks like ln(N)/N, plus the shell offset, which does not: at fixed dE/E
the shell holds nearly all of the ball of energy E + dE, so the per-particle
gap tends to (3/2) ln(1 + dE/E).  At the defaults that is 0.0149 nats, a
relative 7.8e-4, which the rel diff column approaches as N grows.

Usage:
    python scripts/shell_entropy_scaling.py --e-per-n 1.5 --v-per-n 1e6
"""

import argparse

from entrokit import ShellSpec, boltzmann_entropy, sackur_tetrode_entropy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e-per-n", type=float, default=1.5)
    ap.add_argument("--v-per-n", type=float, default=1e6)
    ap.add_argument("--shell-frac", type=float, default=0.01, help="dE / E")
    ap.add_argument(
        "--counts",
        type=int,
        nargs="+",
        default=[10, 30, 100, 300, 1_000, 3_000, 10_000],
    )
    args = ap.parse_args()

    print(f"{'N':>8}  {'S/(Nk)':>12}  {'ST/(Nk)':>12}  {'rel diff':>10}")
    for n in args.counts:
        spec = ShellSpec(
            E=args.e_per_n * n,
            dE=args.shell_frac * args.e_per_n * n,
            V=args.v_per_n * n,
            N=n,
            indistinguishable=True,
        )
        s = boltzmann_entropy(spec).value
        st = sackur_tetrode_entropy(spec).value
        print(f"{n:8d}  {s / n:12.6f}  {st / n:12.6f}  {abs(s - st) / st:10.3e}")


if __name__ == "__main__":
    main()
