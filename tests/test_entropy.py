import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrokit import (
    BinnedVariable,
    DiscreteDistribution,
    DiscretizedShellDensity,
    EvaluationFailure,
    LogAffineFit,
    PhiFunction,
    PhiUndefined,
    ValidationError,
    additivity_defect,
    maxent_shell_check,
    phi_entropy,
    random_distribution,
    reconstruct_phi,
    robin_hood_pair,
    run_axiom_suite,
    schur_concavity_check,
    shannon_entropy,
    shannon_phi,
    total_entropy,
    validate_distribution,
)

from entrokit import entropy
from entrokit.distributions import ragged
from entrokit.entropy import _pinsker_holds, entropy_rows

from conftest import distributions, same_length_pairs

LN2 = math.log(2.0)
BITS = 1.0 / LN2


def binned(probs, widths):
    n = len(probs)
    return BinnedVariable(
        values=np.arange(n, dtype=float),
        dist=validate_distribution(probs),
        widths=np.asarray(widths, dtype=float),
    )


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy(validate_distribution([0.5, 0.5])).value == pytest.approx(
            LN2, abs=1e-15
        )

    def test_degenerate_distribution(self):
        assert shannon_entropy(validate_distribution([1.0, 0.0, 0.0])).value == 0.0

    def test_third_two_thirds(self):
        # independent oracle: closed-form ln(3) - (2/3) ln(2)
        expected = math.log(3.0) - (2.0 / 3.0) * math.log(2.0)
        h = shannon_entropy(validate_distribution([1 / 3, 2 / 3])).value
        assert h == pytest.approx(expected, abs=1e-12)

    def test_bits_of_fair_coin_is_exactly_one(self):
        assert shannon_entropy(validate_distribution([0.5, 0.5]), BITS).value == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValidationError):
            shannon_entropy(validate_distribution([0.5, 0.5]), k=-1.0)

    @given(distributions())
    def test_nonnegative(self, d):
        assert shannon_entropy(d).value >= 0.0

    @given(distributions())
    def test_bounded_by_log_n(self, d):
        assert shannon_entropy(d).value <= math.log(d.n) + 1e-12

    @given(distributions())
    def test_bits_are_nats_over_ln2(self, d):
        nats = shannon_entropy(d, 1.0).value
        bits = shannon_entropy(d, BITS).value
        assert bits == pytest.approx(nats / LN2, rel=1e-12, abs=1e-300)

    @given(same_length_pairs(), st.floats(0.001, 0.999))
    def test_concave_on_simplex(self, pq, lam):
        p, q = pq
        mix = DiscreteDistribution(lam * p.probs + (1 - lam) * q.probs)
        lhs = shannon_entropy(mix).value
        rhs = lam * shannon_entropy(p).value + (1 - lam) * shannon_entropy(q).value
        assert lhs >= rhs - 1e-10


class TestPhiEntropy:
    def test_shannon_kernel_recovers_shannon(self):
        d = validate_distribution([0.5, 0.5])
        assert phi_entropy(d, shannon_phi()) == pytest.approx(LN2, abs=1e-15)

    def test_quadratic_kernel(self):
        d = validate_distribution([0.5, 0.5])
        phi = PhiFunction(lambda p: p * (1 - p), name="p(1-p)", zero_value=0.0)
        assert phi_entropy(d, phi) == pytest.approx(0.5, abs=1e-15)

    def test_zero_convention_term(self):
        d = validate_distribution([1.0, 0.0])
        assert phi_entropy(d, shannon_phi()) == 0.0

    def test_undefined_kernel_raises(self):
        d = validate_distribution([1.0, 0.0])
        bad = PhiFunction(lambda p: 1.0 / p, name="1/p")
        with pytest.raises(PhiUndefined):
            phi_entropy(d, bad)

    def test_concavity_margin_detects_both_signs(self):
        concave = PhiFunction(lambda p: p * (1 - p), name="p(1-p)", zero_value=0.0)
        convex = PhiFunction(lambda p: p * p, name="p^2", zero_value=0.0)
        assert concave.concavity_margin(seed=1) >= -1e-12
        assert convex.concavity_margin(seed=1) < -1e-4


HALVES = DiscreteDistribution(np.array([0.5, 0.5]))
#: a kernel or user function that fails, or whose values or sum are not
#: finite, and the error it must raise instead of a bare error or a number
KERNEL_FAULTS = {
    "kernel-raises-zero-division": (
        lambda: phi_entropy(HALVES, PhiFunction(lambda p: 1.0 / (p - 0.5), "pole", 0.0)),
        EvaluationFailure,
    ),
    "kernel-sum-overflows": (
        lambda: phi_entropy(HALVES, PhiFunction(lambda p: 1e308, "huge", 0.0)),
        EvaluationFailure,
    ),
    "concavity-margin-of-a-non-finite-kernel": (
        lambda: PhiFunction(lambda p: math.inf, "inf", 0.0).concavity_margin(),
        EvaluationFailure,
    ),
    "concavity-margin-whose-gap-overflows": (
        lambda: PhiFunction(
            lambda p: -1.7e308 if 0.4 < p < 0.6 else 1.7e308, "band", 0.0
        ).concavity_margin(),
        EvaluationFailure,
    ),
    "reconstructed-kernel-where-A-minus-B-overflows": (
        lambda: reconstruct_phi(LogAffineFit(-1e308, 1e308, 0.0), 1e308)(0.5),
        ValidationError,
    ),
}


@pytest.mark.parametrize("call, error", KERNEL_FAULTS.values(), ids=KERNEL_FAULTS.keys())
def test_kernel_faults_raise_their_error(call, error):
    with pytest.raises(error):
        call()


class TestTotalEntropy:
    def test_unit_widths_collapse_to_shannon(self):
        v = binned([0.5, 0.5], [1.0, 1.0])
        assert total_entropy(v).value == pytest.approx(LN2, abs=1e-15)

    def test_double_widths(self):
        # direct summation oracle: -2 * 0.5 * ln(0.25) = ln 4
        v = binned([0.5, 0.5], [2.0, 2.0])
        assert total_entropy(v).value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_degenerate_with_e_width(self):
        v = binned([1.0, 0.0], [math.e, 1.0])
        assert total_entropy(v).value == pytest.approx(1.0, abs=1e-12)

    def test_can_be_negative(self):
        # widths below the masses push the total entropy negative
        v = binned([0.5, 0.5], [0.1, 0.1])
        assert total_entropy(v).value < 0.0

    @given(distributions(min_n=2), st.floats(0.01, 100.0))
    def test_uniform_width_shift_identity(self, d, h):
        v = BinnedVariable(
            values=np.arange(d.n, dtype=float),
            dist=d,
            widths=np.full(d.n, h),
        )
        shift = shannon_entropy(d).value + math.log(h)
        assert total_entropy(v).value == pytest.approx(shift, abs=1e-12)


class TestAdditivity:
    def test_known_pair(self):
        p = validate_distribution([0.5, 0.5])
        q = validate_distribution([1 / 3, 2 / 3])
        assert additivity_defect(p, q) <= 1e-12
        total = shannon_entropy(p).value + shannon_entropy(q).value
        assert total == pytest.approx(1.329661348854758, abs=1e-12)

    def test_singleton_factor(self):
        p = validate_distribution([1.0])
        q = validate_distribution([0.3, 0.7])
        assert additivity_defect(p, q) == 0.0

    def test_symmetric_pair(self):
        p = validate_distribution([0.25, 0.75])
        assert additivity_defect(p, p) <= 1e-12

    @given(distributions(max_n=12), distributions(max_n=12))
    def test_additive_for_all_products(self, p, q):
        assert additivity_defect(p, q) <= 1e-10


class TestSchurConcavity:
    def test_extreme_points(self):
        p = validate_distribution([1.0, 0.0])
        q = validate_distribution([0.5, 0.5])
        report = schur_concavity_check(p, q)
        assert report.majorizes and report.entropy_ordered and not report.incomparable

    def test_equal_distributions(self):
        q = validate_distribution([0.5, 0.5])
        report = schur_concavity_check(q, q)
        assert report.majorizes and report.entropy_ordered

    def test_three_point_pair(self):
        p = validate_distribution([0.7, 0.2, 0.1])
        q = validate_distribution([0.5, 0.3, 0.2])
        report = schur_concavity_check(p, q)
        assert report.majorizes and report.entropy_ordered

    def test_incomparable_pair_is_flagged_not_raised(self):
        p = validate_distribution([0.6, 0.15, 0.15, 0.1])
        q = validate_distribution([0.5, 0.4, 0.05, 0.05])
        report = schur_concavity_check(p, q)
        assert report.incomparable
        assert not report.majorizes

    def test_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            schur_concavity_check(
                validate_distribution([1.0]), validate_distribution([0.5, 0.5])
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_robin_hood_pairs_are_ordered(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 32))
        p, q = robin_hood_pair(rng, n, transfers=int(rng.integers(1, 8)))
        report = schur_concavity_check(p, q)
        assert report.majorizes
        assert report.entropy_ordered


class TestAxiomSuite:
    def test_small_run_passes_and_reproduces(self):
        a = run_axiom_suite(seed=7, n_distributions=400, additivity_pairs=60, majorization_pairs=60)
        b = run_axiom_suite(seed=7, n_distributions=400, additivity_pairs=60, majorization_pairs=60)
        assert a == b
        assert a.passed
        assert a.min_entropy >= 0.0
        assert a.additivity_max_defect <= 1e-10
        assert a.concavity_min_slack >= -1e-10
        assert a.majorization_violations == 0

    def test_different_seeds_differ(self):
        # every measured field, not one: a single defect often lands on the
        # same rounding error for two seeds
        a = run_axiom_suite(seed=1, n_distributions=100, additivity_pairs=10, majorization_pairs=10)
        b = run_axiom_suite(seed=2, n_distributions=100, additivity_pairs=10, majorization_pairs=10)
        assert replace(a, seed=0) != replace(b, seed=0)

    def test_near_uniform_draw_is_not_an_equality_failure(self):
        # n = 2 with |p - 1/2| = 1.9e-7 has ln 2 - H = 7.2e-14: a genuine
        # non-uniform point whose entropy gap is quadratic in its deviation,
        # which Pinsker's inequality allows (a suite once drew such a point)
        p = np.array([0.5 + 1.9e-7, 0.5 - 1.9e-7])
        flat, offsets = ragged([p])
        h = [shannon_entropy(DiscreteDistribution(p)).value]
        assert 0.0 < math.log(2.0) - h[0] < 1e-13
        assert _pinsker_holds(flat, offsets, h, 1.0).all()

    def test_pinsker_test_trips_on_a_false_entropy(self):
        flat, offsets = ragged([np.array([0.5, 0.5]), np.array([0.6, 0.4]), np.full(4, 0.25)])
        honest = [shannon_entropy(DiscreteDistribution(flat[a:b])).value
                  for a, b in zip(offsets[:-1], offsets[1:])]
        assert _pinsker_holds(flat, offsets, honest, 1.0).all()
        # claiming ln n for the non-uniform row is a violation
        claimed = [honest[0], math.log(2.0), honest[2]]
        assert _pinsker_holds(flat, offsets, claimed, 1.0).tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "sizes",
        [
            {"n_distributions": 1},
            {"n_distributions": -4},
            {"max_n": 0},
            {"max_n": 1},
            {"additivity_pairs": -3},
            {"majorization_pairs": -1},
            {"n_distributions": 10.0},
        ],
        ids=["n-1", "n-minus-4", "max-n-0", "max-n-1-with-pairs", "additivity-minus-3",
             "majorization-minus-1", "n-float"],
    )
    def test_bad_counts_raise_before_any_draw(self, sizes):
        with pytest.raises(ValidationError):
            run_axiom_suite(0, **sizes)

    @pytest.mark.parametrize(
        "sizes",
        [
            {"max_n": 10**11, "additivity_pairs": 0, "majorization_pairs": 0},
            {"max_n": 2**22 + 1, "additivity_pairs": 0},
            {"max_n": 2**11 + 1, "additivity_pairs": 1},
            {"n_distributions": 3},
        ],
        ids=["max-n-1e11", "max-n-above-the-row-bound", "joint-above-the-row-bound",
             "n-odd"],
    )
    def test_counts_beyond_the_row_bound_raise_before_any_draw(self, sizes, monkeypatch):
        # a draw would allocate up to 8 * max_n**2 bytes: fail loudly instead
        def no_draw(rng, offsets):
            raise AssertionError(f"drew a block of {offsets[-1]} elements")

        monkeypatch.setattr(entropy, "_simplex_rows", no_draw)
        with pytest.raises(ValidationError):
            run_axiom_suite(0, **{"n_distributions": 2, **sizes})
        with pytest.raises(AssertionError, match="drew a block"):
            run_axiom_suite(0, n_distributions=2, max_n=2**11, additivity_pairs=1)

    def test_max_n_1_without_majorization_pairs(self):
        report = run_axiom_suite(0, n_distributions=20, max_n=1, additivity_pairs=5,
                                 majorization_pairs=0)
        assert report.passed
        assert report.min_entropy == 0.0

    def test_blocks_split_rows_whatever_their_sizes(self):
        # joints of up to 150 x 150 cells are larger than a block, and the
        # small rows fill blocks of many pairs
        report = run_axiom_suite(3, n_distributions=60, max_n=150, additivity_pairs=6,
                                 majorization_pairs=10)
        assert report.passed

    def test_entropy_overflow_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="entropy value must be finite"):
            run_axiom_suite(0, n_distributions=100, k=1e308)


class TestEntropyRows:
    @given(st.lists(distributions(max_n=12), min_size=1, max_size=8))
    def test_rows_match_single_distributions(self, dists):
        flat, offsets = ragged([d.probs for d in dists])
        # the per-distribution sum, written out: -k fsum(p ln p) over p > 0
        expected = [BITS * math.fsum((-p * np.log(p)).tolist())
                    for p in (d.probs[d.probs > 0] for d in dists)]
        assert entropy_rows(flat, offsets, BITS) == expected


CELLS = DiscretizedShellDensity.uniform(np.ones(4))
BAD_COUNTS = {
    "random-distribution-n-minus-1": lambda rng: random_distribution(rng, -1),
    "random-distribution-n-2.5": lambda rng: random_distribution(rng, 2.5),
    "random-distribution-n-1e12": lambda rng: random_distribution(rng, 10**12),
    "robin-hood-n-1": lambda rng: robin_hood_pair(rng, 1),
    "robin-hood-n-2.5": lambda rng: robin_hood_pair(rng, 2.5),
    "robin-hood-transfers-2.5": lambda rng: robin_hood_pair(rng, 4, transfers=2.5),
    "robin-hood-transfers-minus-1": lambda rng: robin_hood_pair(rng, 4, transfers=-1),
    "maxent-seed-minus-1": lambda rng: maxent_shell_check(CELLS, 1.0, seed=-1),
    "concavity-seed-minus-1": lambda rng: shannon_phi().concavity_margin(seed=-1),
    "concavity-n-samples-minus-3": lambda rng: shannon_phi().concavity_margin(n_samples=-3),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_counts_and_seeds_raise_before_any_draw(call):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError):
        call(rng)
    assert rng.bit_generator.state == state
