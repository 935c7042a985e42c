"""The gaussian bin masses: erf_split against mpmath over [0, inf], the
few-point path against the block path bit for bit, and the bulk bins at
h = sigma/16,384 against 30-digit masses between their explicit edges."""

import math

import mpmath
import numpy as np
import pytest

from entrokit import DensitySpec
from entrokit.distributions import ERF_NEAR, ERFC_FAR, erf_split


def _ulps(got: float, exact) -> float:
    """|got - exact| in ulps of the double nearest exact (subnormal spacing
    in the underflow range)."""
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(float(exact)))


def test_erf_split_within_a_few_ulps_over_the_half_line():
    # erf itself within 1 ulp up to ERF_NEAR; erfc beyond, from exp(-x^2)
    # and a polynomial, within 5 ulps (4.3 is the worst seen at 10^5 random
    # points); the grid runs through the underflow of erfc near x = 26.5
    grid = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-8],
        np.linspace(0.0, ERF_NEAR, 400, endpoint=False),
        np.linspace(ERF_NEAR, ERFC_FAR, 1200, endpoint=False),
        np.linspace(ERFC_FAR, 26.0, 400),
        np.linspace(26.0, 27.3, 200),
    ])
    d, s = erf_split(grid)
    with mpmath.workdps(30):
        for x, v, si in zip(grid.tolist(), d.tolist(), s.tolist()):
            if x < ERF_NEAR:
                assert si == 0.0 and _ulps(v, mpmath.erf(x)) <= 1.0, (x, v)
            else:
                assert si == 1.0 and _ulps(-v, mpmath.erfc(x)) <= 5.0, (x, v)


def test_erf_split_is_odd_and_reads_inf_and_nan():
    t = np.array([0.3, 0.75, 2.0, 6.0, 27.0, 30.0, math.inf, 1e308])
    d, s = erf_split(t)
    nd, ns = erf_split(-t)
    assert np.array_equal(nd, -d) and np.array_equal(ns, -s)
    assert d[-3:].tolist() == [0.0, 0.0, 0.0] and s[-3:].tolist() == [1.0, 1.0, 1.0]
    d, _ = erf_split(np.array([math.nan, 0.1, math.nan, 3.0, -1.0]))
    assert np.isnan(d[[0, 2]]).all() and np.isfinite(d[[1, 3, 4]]).all()


def test_few_points_give_the_bits_of_the_block():
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.normal(0.0, 3.0, 64), rng.uniform(-30.0, 30.0, 16),
                        [0.0, -0.0, ERF_NEAR, -ERF_NEAR, ERFC_FAR, math.inf, -math.inf]])
    d, s = erf_split(t)
    for i in range(0, t.size, 3):
        di, si = erf_split(t[i : i + 3])
        assert di.tobytes() == d[i : i + 3].tobytes() and si.tobytes() == s[i : i + 3].tobytes()


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 2.0)])
def test_bulk_bins_at_sigma_over_16384_match_high_precision_oracle(mu, sigma):
    # explicit float edges over |z| <= 1: each bin is a difference of two
    # values of erf near the mean, so nothing near 1 cancels; the oracle
    # takes the mass between the very edges given
    edges = mu + sigma * np.arange(-16384, 16385) / 16384.0
    masses = DensitySpec.gaussian(mu, sigma).bin_masses(edges)
    with mpmath.workdps(30):
        cdf = [mpmath.ncdf(x, mu, sigma) for x in edges.tolist()]
        worst = max(abs(mpmath.mpf(m) / (b - a) - 1)
                    for m, a, b in zip(masses.tolist(), cdf, cdf[1:]))
    assert worst <= 1e-11, worst
