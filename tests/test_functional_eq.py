import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entrokit import (
    BinnedVariable,
    DegenerateDesign,
    EvaluationFailure,
    LogAffineFit,
    NotAdmissible,
    PhiPrimeSamples,
    ValidationError,
    cauchy_defect,
    difference_equation_defect,
    fit_log_affine,
    reconstruct_phi,
    total_entropy,
    validate_distribution,
)

from conftest import same_length_pairs

GRID10 = tuple(np.linspace(0.05, 1.0, 10).tolist())


class TestDifferenceEquation:
    def test_log_affine_solves_it(self):
        g = lambda p: -2.0 * math.log(p) + 3.0
        assert difference_equation_defect(g, GRID10, GRID10) <= 1e-10

    def test_pure_log_solves_it(self):
        assert difference_equation_defect(math.log, GRID10, GRID10) <= 1e-12

    def test_square_is_flagged(self):
        grid = tuple(np.arange(2, 10) / 10.0)
        defect = difference_equation_defect(lambda p: p * p, grid, grid)
        assert defect > 0.1
        # closed-form oracle: max over q of (1 - q^2)(max p^2 - min p^2)
        oracle = max(1 - q * q for q in grid) * (0.9**2 - 0.2**2)
        assert defect == pytest.approx(oracle, rel=1e-12)

    @given(st.floats(-50.0, 50.0))
    def test_constant_offset_cancels(self, c):
        g = lambda p: 1.7 * math.log(p) - 0.3
        base = difference_equation_defect(g, GRID10, GRID10)
        shifted = difference_equation_defect(lambda p: g(p) + c, GRID10, GRID10)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(EvaluationFailure):
            difference_equation_defect(lambda p: math.log(p - 0.5), GRID10, GRID10)

    def test_grid_must_stay_in_unit_interval(self):
        with pytest.raises(ValidationError):
            difference_equation_defect(math.log, (0.5, 1.5), GRID10)
        with pytest.raises(ValidationError):
            difference_equation_defect(math.log, (), GRID10)


class TestCauchyEquation:
    def test_log_is_canonical_solution(self):
        assert cauchy_defect(math.log) <= 1e-12

    def test_scalar_multiples_remain_solutions(self):
        assert cauchy_defect(lambda p: -3.0 * math.log(p)) <= 1e-12

    def test_constant_offset_breaks_it_by_exactly_that_constant(self):
        # the difference form tolerates an offset, the product form does not
        defect = cauchy_defect(lambda p: math.log(p) + 1.0)
        assert defect == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(EvaluationFailure):
            cauchy_defect(lambda p: math.log(p - 0.5))


class TestFitLogAffine:
    def test_recovers_exact_coefficients(self):
        samples = PhiPrimeSamples.from_function(
            lambda p: -2.0 * math.log(p) + 3.0, grid=np.arange(1, 10) / 10.0
        )
        fit = fit_log_affine(samples)
        assert fit.A == pytest.approx(-2.0, abs=1e-10)
        assert fit.B == pytest.approx(3.0, abs=1e-10)
        assert fit.residual <= 1e-10
        assert fit.admissible

    def test_positive_slope_is_not_admissible(self):
        fit = fit_log_affine(PhiPrimeSamples.from_function(math.log))
        assert fit.A == pytest.approx(1.0, abs=1e-12)
        assert fit.B == pytest.approx(0.0, abs=1e-12)
        assert fit.residual <= 1e-12
        assert not fit.admissible

    def test_identity_data_fits_poorly(self):
        samples = PhiPrimeSamples.from_function(lambda p: p, grid=np.arange(1, 10) / 10.0)
        fit = fit_log_affine(samples)
        # frozen from the normal-equations oracle
        assert fit.residual == pytest.approx(0.11829197582681328, rel=1e-9)
        assert fit.residual > 0.05

    def test_sample_validation(self):
        with pytest.raises(ValidationError):
            PhiPrimeSamples(((0.5, 1.0), (0.5, 1.0), (0.5, 1.0)))
        with pytest.raises(ValidationError):
            PhiPrimeSamples(((1.5, 1.0), (0.5, 1.0), (0.25, 1.0)))
        with pytest.raises(ValidationError):
            PhiPrimeSamples(((0.5, math.nan), (0.25, 1.0), (0.125, 1.0)))

    def test_degenerate_design_guard(self):
        samples = PhiPrimeSamples(((0.2, 1.0), (0.4, 1.0), (0.8, 1.0)))
        clones = PhiPrimeSamples.__new__(PhiPrimeSamples)
        object.__setattr__(clones, "points", ((0.5, 1.0),) * 4)
        with pytest.raises(DegenerateDesign):
            fit_log_affine(clones)
        fit_log_affine(samples)

    @given(
        st.lists(st.floats(1e-4, 1.0), min_size=5, max_size=24, unique=True),
        st.floats(-10.0, -0.01),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=100)
    def test_exact_recovery_on_random_grids(self, grid, a, b):
        # a grid clustered within rounding error of one abscissa cannot
        # identify a slope; require an octave of spread
        assume(max(grid) / min(grid) >= 2.0)
        samples = PhiPrimeSamples.from_function(lambda p: a * math.log(p) + b, grid=grid)
        fit = fit_log_affine(samples)
        assert fit.residual < 1e-9
        assert fit.A == pytest.approx(a, rel=1e-7, abs=1e-9)
        assert fit.B == pytest.approx(b, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: LogAffineFit(-1.0, 0.0, math.nan),
        lambda: LogAffineFit(math.nan, 0.0, 0.0),
        lambda: reconstruct_phi(LogAffineFit(-1e308, 1e308, 0.0), 0.0),
    ],
    ids=["residual-nan", "A-nan", "A-minus-B-overflows"],
)
def test_non_finite_fits_are_refused(make):
    with pytest.raises(ValidationError):
        make()


def test_a_fit_beyond_the_float_range_is_refused_without_a_warning():
    # A ln p overflows at p = 0.1; the warning filters make a numpy warning fail
    samples = PhiPrimeSamples(((0.1, 1e308), (0.2, 1.0), (0.3, 2.0)))
    with pytest.raises(ValidationError, match="leaves the float range"):
        fit_log_affine(samples)


class TestReconstructPhi:
    def test_boundary_at_unit_width(self):
        phi = reconstruct_phi(LogAffineFit(A=-1.0, B=0.0, residual=0.0), 0.0)
        assert phi(1.0) == 0.0

    def test_boundary_at_width_two(self):
        phi = reconstruct_phi(LogAffineFit(A=-1.0, B=0.0, residual=0.0), math.log(2.0))
        assert phi(1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_direct_substitution(self):
        phi = reconstruct_phi(LogAffineFit(A=-2.0, B=1.0, residual=0.0), 0.0)
        # independent substitution: A p ln p + (B-A) p + (A-B) at p = 1/2
        expected = -2.0 * 0.5 * math.log(0.5) + 3.0 * 0.5 - 3.0
        assert phi(0.5) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.8068528194400546, abs=1e-15)

    def test_zero_value_is_continuous_limit(self):
        phi = reconstruct_phi(LogAffineFit(A=-2.0, B=1.0, residual=0.0), 0.5)
        assert phi(0.0) == pytest.approx(phi(1e-13), abs=1e-11)

    def test_rejects_nonnegative_slope(self):
        with pytest.raises(NotAdmissible):
            reconstruct_phi(LogAffineFit(A=0.0, B=1.0, residual=0.0), 0.0)
        with pytest.raises(NotAdmissible):
            reconstruct_phi(LogAffineFit(A=1.0, B=0.0, residual=0.0), 0.0)

    @given(
        same_length_pairs(min_n=2, max_n=8),
        st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
        st.floats(-4.0, -0.1),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=100)
    def test_kernel_sums_track_total_entropy_gaps(self, pq, widths, a, b):
        # per-interval kernels with boundary value k ln(h_j) reproduce total
        # entropy up to discarded constants: differences must match exactly
        p, q = pq
        n = p.n
        k = -a
        h = np.asarray(widths[:n])
        fit = LogAffineFit(A=a, B=b, residual=0.0)
        kernels = [reconstruct_phi(fit, k * math.log(hj)) for hj in h]

        def kernel_sum(dist):
            return math.fsum(kernels[j](float(dist.probs[j])) for j in range(n))

        values = np.arange(n, dtype=float)
        gap_phi = kernel_sum(p) - kernel_sum(q)
        gap_total = (
            total_entropy(BinnedVariable(values, p, h), k).value
            - total_entropy(BinnedVariable(values, q, h), k).value
        )
        assert gap_phi == pytest.approx(gap_total, abs=1e-10)
