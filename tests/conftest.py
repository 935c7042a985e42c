import math

import mpmath
import numpy as np
from hypothesis import strategies as st

from entrokit import DiscreteDistribution


@st.composite
def distributions(draw, min_n=1, max_n=16, allow_zeros=True):
    """Normalized probability vectors with optional exact-zero entries."""
    n = draw(st.integers(min_n, max_n))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    if not allow_zeros:
        weights = [w + 1e-3 for w in weights]
    total = math.fsum(weights)
    if total <= 0:
        weights = [1.0] * n
        total = float(n)
    probs = np.array(weights) / total
    return DiscreteDistribution(probs)


@st.composite
def same_length_pairs(draw, min_n=2, max_n=16):
    n = draw(st.integers(min_n, max_n))
    a = draw(distributions(min_n=n, max_n=n))
    b = draw(distributions(min_n=n, max_n=n))
    return a, b


def oracle_entropy_integral(f, h=1.0):
    """-integral of pdf ln(h pdf), and integral of pdf, over f's support by
    mpmath quadrature of the pointwise density, split where it jumps or
    peaks: an oracle independent of the closed forms."""
    lo, hi = f.support
    inner = [*f.discontinuities(), f.params.get("mu", lo)]
    pts = sorted({lo, hi, *[x for x in inner if lo < x < hi]})
    with mpmath.workdps(30):
        def neg_plogp(x):
            p = mpmath.mpf(f.pdf(float(x)))
            return -p * mpmath.log(h * p) if p > 0 else mpmath.mpf(0)

        value = mpmath.quad(neg_plogp, pts)
        mass = mpmath.quad(lambda x: mpmath.mpf(f.pdf(float(x))), pts)
        return float(value), float(mass)
