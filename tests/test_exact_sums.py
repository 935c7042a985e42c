"""The one exact row sum: segment_fsums returns math.fsum's bits for every
row of a block, raises where fsum raises, and hands to fsum itself only the
rows its numpy passes cannot certify.  Also the sums that leave the float
range, which are refused as bad data rather than raised as overflows.

The oracle is math.fsum, called row by row.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from entrokit import (
    BinnedVariable,
    DiscreteDistribution,
    DiscretizedShellDensity,
    InvalidDensity,
    NotNormalized,
    ValidationError,
    distributions,
    maxent_shell_check,
    run_axiom_suite,
    shannon_entropy,
    total_entropy,
)
from entrokit.distributions import fsum_decides, normalized_rows, segment_fsums

from conftest import SUM_PATHS, ragged, sum_path

ELEMENTS = st.one_of(
    st.floats(),  # every double, the infinities and nan included
    st.floats(-1e-300, 1e-300),  # subnormals and tiny normals
    st.sampled_from([1e308, -1e308, 1e-308, -1e-308, 2.0**-1074, 1.0, -1.0, 2.0**-53, 0.0, -0.0]),
    st.integers(-(2**60), 2**60).map(lambda i: i * 2.0**-60),
)


@st.composite
def rows(draw):
    """One row: plain draws, or draws followed by the negatives of some of
    them (heavy cancellation), or a tie 2^e + 2^(e - 53) with a small tail,
    shuffled."""
    base = draw(st.lists(ELEMENTS, min_size=1, max_size=12))
    kind = draw(st.sampled_from(["plain", "cancel", "tie"]))
    if kind == "cancel":
        base = base + [-x for x in base[: draw(st.integers(1, len(base)))]]
        base += draw(st.lists(ELEMENTS, max_size=2))
    elif kind == "tie":
        e = draw(st.integers(-1000, 1000))
        base = [2.0**e, 2.0 ** (e - 53)] + [x * 2.0 ** (e - 100) for x in base[:2]
                                            if math.isfinite(x)]
    return draw(st.permutations(base))


def fsum_outcome(row):
    """math.fsum(row) as bits, or the error it raises."""
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


def block_outcome(rows_, elements):
    """segment_fsums over the block of rows, as per-row bits, or the error
    it raises, with blocks of at most `elements` elements summed by fsum."""
    flat, offsets = ragged([np.array(r, dtype=float) for r in rows_])
    try:
        with sum_path(elements):
            return [float(s).hex() for s in segment_fsums(flat, offsets)]
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


def decision_outcome(rows_, elements):
    """fsum_decides of sum > 1 and of sum < 1e308 over the block of rows, or
    the error it raises, with blocks of at most `elements` elements summed
    by fsum."""
    flat, offsets = ragged([np.array(r, dtype=float) for r in rows_])
    try:
        with sum_path(elements):
            return [fsum_decides(flat, offsets, p).tolist()
                    for p in (lambda t: t > 1.0, lambda t: t < 1e308)]
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


class TestSegmentFsums:
    @given(st.lists(rows(), min_size=1, max_size=6))
    @example([[1.0, 2.0**-53]])  # a tie: rounds to even, down to 1
    @example([[1.0, 2.0**-53, 2.0**-160]])  # just above the tie: up
    @example([[1.0, -(2.0**-54), -(2.0**-160)]])  # just below a power of 2
    @example([[1e16, 1.0, -1e16], [0.5, -0.5], [-0.0], [-0.0, -0.0]])
    @example([[1e308, 1e308], [1.0]])  # fsum overflows
    @example([[1.0], [math.inf, -math.inf]])  # fsum's ValueError
    @example([[math.nan, 1.0], [math.inf, 1.0], [2.0**-1074, 2.0**-1074]])
    def test_equals_fsum_bit_for_bit(self, rows_):
        expected = [fsum_outcome(r) for r in rows_]
        errors = [e for e in expected if isinstance(e, tuple)]
        # a block raises the error of its first row that fsum raises on
        for elements in SUM_PATHS:
            assert block_outcome(rows_, elements) == (errors[0] if errors else expected)

    @pytest.mark.parametrize("rows_", [
        [[-0.0], [-0.0, -0.0], [1.0, -1.0], [0.25]],  # zero totals of either sign
        [[1e308, 1e308], [1.0]],  # fsum overflows; decisions scale the row
        [[0.5], [math.inf, 1.0], [-math.inf], [math.nan, 1.0]],
        [[1.0], [math.inf, -math.inf], [1e308, 1e308]],  # fsum's ValueError
    ])
    def test_small_blocks_take_fsum_with_the_same_bits_and_errors(self, rows_):
        """A block of at most FSUM_ELEMENTS elements skips the numpy passes
        and goes to fsum row by row: both paths give the same bits,
        decisions and errors."""
        for outcome in (block_outcome, decision_outcome):
            numpy_passes, row_by_row = (outcome(rows_, e) for e in SUM_PATHS)
            assert numpy_passes == row_by_row

    def test_long_rows(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(size=100_000)
        x = np.concatenate([x, -x[:50_000] * (1.0 + 2.0**-40)])
        p = rng.exponential(size=4096)
        p /= math.fsum(p.tolist())
        terms = -p * np.log(p)
        flat, offsets = ragged([x, terms, rng.standard_normal(70_000) * 1e-200])
        expected = [math.fsum(flat[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]
        assert segment_fsums(flat, offsets).tolist() == expected

    def test_long_rows_near_a_midpoint(self):
        """Rows of 500 to 4,000 entries whose exact sum is the midpoint
        2^e + 2^(e - 53) plus an offset d: d = 0, or +-2^(e - 53 - j) from
        well outside the certificate's band (j = 12) to far inside it.  Each
        row is the midpoint, a equal terms v of up to 2^(e - 42), the two
        doubles c1 + c2 = -a v, and d, or the negative of all that.  np.sum
        of many equal terms rounds the same way again and again, so a band
        2^10 times too narrow certifies some rows of up to about 1,000
        entries on the wrong side of the midpoint; in longer rows the band's
        n^2 growth outruns np.sum's error."""
        rng = np.random.default_rng(25)
        rows_ = []
        for draw in range(36):
            e = int(rng.integers(-800, 800))
            a = int(rng.integers(1000, 4000) if draw % 3 == 0 else rng.integers(500, 1000))
            v = 2.0 ** (e - 42) * rng.uniform(0.75, 1.0)
            c1 = -(a * v)
            c2 = -float(Fraction(v) * a + Fraction(c1))  # a v + c1, a double
            sign = 1.0 if draw % 2 else -1.0
            for d in [0.0] + [s * 2.0 ** (e - 53 - j) for j in (12, 24, 36, 42) for s in (1, -1)]:
                rows_.append(sign * np.concatenate([[2.0**e, 2.0 ** (e - 53)], np.full(a, v),
                                                    [c1, c2, d]]))
        flat, offsets = ragged(rows_)
        expected = [math.fsum(r.tolist()) for r in rows_]
        with sum_path(0):
            assert segment_fsums(flat, offsets).tolist() == expected

    def test_uncertified_rows_fall_back_to_fsum(self, monkeypatch):
        """Only the rows the numpy passes cannot vouch for go to fsum: a
        row just past a rounding midpoint whose last bit only the
        remainder decides, a row exactly on a midpoint, a zero sum, and a
        row beyond the extraction range.  The others never reach it."""
        fsum = math.fsum
        called = []

        def counted(xs):
            called.append(list(xs))
            return fsum(xs)

        monkeypatch.setattr(math, "fsum", counted)
        rows_ = [
            [0.25, 0.5, 0.25],
            [1.0, 2.0**-53, 2.0**-160],  # above the tie by 2^-160
            [1.0, 2.0**-53],  # the tie itself: rounds to even, down to 1
            [0.5, -0.5],
            [1e308, -1e308, 1.0],
            [3.0, 2.0**-70],
        ]
        flat, offsets = ragged([np.array(r) for r in rows_])
        with sum_path(0):  # the numpy passes, which this small block skips by default
            got = segment_fsums(flat, offsets).tolist()
        assert got == [1.0, 1.0 + 2.0**-52, 1.0, 0.0, 1.0, 3.0]
        assert called == rows_[1:5]


def test_the_suites_certify_as_many_rows_as_before(monkeypatch):
    """The rows that segment_fsums and fsum_decides hand to fsum in a
    default axiom suite and in two max-entropy checks, counted.  The values
    are fsum's on either path, so a looser bound that certified fewer rows
    would only show here, as time lost."""
    fsum = distributions._fsum
    calls = []

    def counted(row):
        calls.append(row.size)
        return fsum(row)

    cells = [DiscretizedShellDensity.uniform(np.random.default_rng(m).uniform(0.5, 2.0, m))
             for m in (64, 4096)]
    monkeypatch.setattr(distributions, "_fsum", counted)
    run_axiom_suite(0)
    suite = len(calls)
    for d in cells:
        maxent_shell_check(d, 1.0, trials=1000)
    assert (suite, len(calls) - suite) == (889, 4)


class TestSumsBeyondTheFloatRange:
    def test_an_overflowing_probability_sum_is_not_normalized(self):
        with pytest.raises(NotNormalized, match="beyond the float range"):
            DiscreteDistribution([1e308, 1e308])

    def test_decisions_on_rows_whose_partial_sums_overflow(self):
        # fsum raises on both; the first sum is 2e308, the second 1e308
        flat, offsets = ragged([np.array([1e308, 1e308]), np.array([1e308, 1e308, -1e308])])
        for elements in SUM_PATHS:
            with sum_path(elements):
                assert normalized_rows(flat, offsets, 1e-9).tolist() == [False, False]
                above = fsum_decides(flat, offsets, lambda t: t > 5e307)
                below = fsum_decides(flat, offsets, lambda t: t < 1.5e308)
            assert above.tolist() == [True, True]
            assert below.tolist() == [False, True]

    def test_shell_density_whose_weights_overflow(self):
        with pytest.raises(InvalidDensity, match="beyond the float range"):
            DiscretizedShellDensity(np.array([1e308, 1e308]), np.array([1.0, 1.0]))


class TestUniformShellDensity:
    """DiscretizedShellDensity.uniform checks its cells before it sums them."""

    @pytest.mark.parametrize(
        "w, match",
        [
            ([0.0], "positive"),
            ([1.0, -1.0], "positive"),
            ([1.0, math.nan], "finite"),
            ([], "non-empty"),
            ([[1.0]], "1-D"),
            ([1e308, 1e308], "beyond the float range"),
            ([5e-324], "cell volumes sum to 5e-324"),
        ],
    )
    def test_bad_cells_are_validation_errors(self, w, match):
        with pytest.raises(ValidationError, match=match):
            DiscretizedShellDensity.uniform(np.array(w))

    def test_density_is_one_over_the_exact_total(self):
        w = np.array([0.1, 0.2, 0.3, 1e-17])
        d = DiscretizedShellDensity.uniform(w)
        assert d.densities.tolist() == [1.0 / math.fsum(w.tolist())] * 4


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=30)
       .filter(any), st.floats(1e-3, 1e3), st.booleans())
def test_total_entropy_is_k_times_the_fsum_of_its_terms(weights, k, shannon):
    # zero weights give no term (0 ln 0 = 0); unit widths give Shannon entropy
    p = np.array(weights) / math.fsum(weights)
    h = np.ones(p.size) if shannon else np.linspace(0.5, 2.0, p.size)
    d = DiscreteDistribution(p, 1e-6)
    v = BinnedVariable(values=np.arange(p.size), dist=d, widths=h)
    pos = p > 0
    expected = k * math.fsum((-p[pos] * (np.log(p[pos]) - np.log(h[pos]))).tolist())
    assert total_entropy(v, k).value == expected
    if shannon:
        assert shannon_entropy(d, k).value == expected
