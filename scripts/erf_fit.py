#!/usr/bin/env python3
"""Derive the polynomial coefficients behind the gaussian bin masses
(`entrokit.distributions.erf_split`) with mpmath, and print them as the
Python literals that module holds.

Three pieces cover [0, inf):
- near the mean, |t| < ERF_NEAR: erf(t) = t + t P(t^2);
- ERF_NEAR <= x < ERFC_FAR: erfc(x) = exp(-x^2) R(z), z = (x - 3)/(x + 3);
- x >= ERFC_FAR: erfc(x) = exp(-x^2) Q(1/x^2) / x.

Each of P, R and Q is mpmath's Chebyshev fit (`mpmath.chebyfit`, at 40
digits) of the function it stands for, over the interval its variable
spans.  The script also prints the largest relative error of each fit, from
its rounded coefficients, on a grid of 2,001 points:

    python scripts/erf_fit.py
"""

import mpmath as mp

ERF_NEAR = 0.75
ERFC_FAR = 6.0
Z_SHIFT = 3
DEGREES = {"ERF_NEAR_P": 10, "ERFC_MID_R": 16, "ERFC_FAR_Q": 10}


def pieces():
    """(name, function, interval, offset) for P, R and Q, in mpmath: a fit's
    error is taken relative to the function plus the offset."""
    def erfcx(x):
        return mp.exp(x * x) * mp.erfc(x)

    def z(x):
        return (mp.mpf(x) - Z_SHIFT) / (mp.mpf(x) + Z_SHIFT)

    return [
        # P's error is weighed against erf(t) / t = 1 + P, the value it enters
        ("ERF_NEAR_P", lambda w: mp.erf(mp.sqrt(w)) / mp.sqrt(w) - 1 if w else 2 / mp.sqrt(mp.pi) - 1,
         (mp.mpf(0), mp.mpf(ERF_NEAR) ** 2), 1),
        ("ERFC_MID_R", lambda v: erfcx(Z_SHIFT * (1 + v) / (1 - v)), (z(ERF_NEAR), z(ERFC_FAR)), 0),
        ("ERFC_FAR_Q", lambda u: erfcx(1 / mp.sqrt(u)) / mp.sqrt(u) if u else 1 / mp.sqrt(mp.pi),
         (mp.mpf(0), 1 / mp.mpf(ERFC_FAR) ** 2), 0),
    ]


def main() -> None:
    mp.mp.dps = 40
    for name, f, (a, b), offset in pieces():
        coeffs = [float(c) for c in mp.chebyfit(f, [a, b], DEGREES[name] + 1)]
        grid = [a + (b - a) * i / 2000 for i in range(2001)]
        worst = max(abs((mp.polyval(coeffs, s) - f(s)) / (f(s) + offset)) for s in grid)
        print(f"# largest relative error {mp.nstr(worst, 3)} on [{mp.nstr(a, 6)}, {mp.nstr(b, 6)}]")
        lines = [f"{name} = ("]
        for c in coeffs:  # as many to a line as fit in 99 columns
            if len(lines[-1]) + len(f" {c!r},") > 99 or lines[-1] == lines[0]:
                lines.append("   ")
            lines[-1] += f" {c!r},"
        print("\n".join(lines + [")"]))


if __name__ == "__main__":
    main()
