import importlib.util
import math
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from entrokit import DensityFamily, DiscreteDistribution
from entrokit.distributions import FSUM_ELEMENTS, offsets_of


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def bits_corpus():
    """The bits corpus as `scripts/bits_golden.py` computes it from the
    current code, computed once per test run."""
    spec = importlib.util.spec_from_file_location("bits_golden", ROOT / "scripts" / "bits_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus()


def ragged(rows):
    """The flat array and the offsets of a block of rows."""
    return np.concatenate(rows), offsets_of([r.size for r in rows])


def peak_bytes(fn):
    """The tracemalloc peak of the bytes allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# FSUM_ELEMENTS values that send every block of a test through
# segment_fsums' and fsum_decides' numpy passes (0), or through fsum row by
# row up to the package's own threshold
SUM_PATHS = (0, FSUM_ELEMENTS)


@contextmanager
def sum_path(elements):
    """Blocks of at most `elements` elements summed by fsum row by row, and
    every larger block by the numpy passes, inside the with block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("entrokit.distributions.FSUM_ELEMENTS", elements)
        yield


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


def oracle_pdf(f, x):
    """Density of f at the mpmath number x, written out in mpmath from the
    family's parameters, so no double from the package enters."""
    p = {k: mpmath.mpf(v) for k, v in f.params.items()}
    if f.family is DensityFamily.UNIFORM:
        return 1 / (p["b"] - p["a"]) if p["a"] <= x <= p["b"] else mpmath.mpf(0)
    if f.family is DensityFamily.GAUSSIAN:
        z = (x - p["mu"]) / p["sigma"]
        return mpmath.exp(-z * z / 2) / (p["sigma"] * mpmath.sqrt(2 * mpmath.pi))
    return p["rate"] * mpmath.exp(-p["rate"] * x) if x >= 0 else mpmath.mpf(0)


def oracle_entropy_integral(f, h=1.0):
    """-integral of pdf ln(h pdf), and integral of pdf, over f's support by
    30-digit mpmath quadrature of the density written out in mpmath, split
    where it jumps or peaks: an oracle independent of the closed forms."""
    lo, hi = f.support
    inner = [*f.discontinuities(), f.params.get("mu", lo)]
    pts = sorted({lo, hi, *[x for x in inner if lo < x < hi]})
    with mpmath.workdps(30):
        def neg_plogp(x):
            p = oracle_pdf(f, x)
            return -p * mpmath.log(h * p) if p > 0 else mpmath.mpf(0)

        value = mpmath.quad(neg_plogp, pts)
        mass = mpmath.quad(lambda x: oracle_pdf(f, x), pts)
        return float(value), float(mass)
