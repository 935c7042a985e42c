import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrokit import (
    DensitySpec,
    DiscretizedShellDensity,
    InvalidDensity,
    NonPositiveWidth,
    ShellSpec,
    ValidationError,
    boltzmann_entropy,
    classical_entropy_comparison,
    compare_entropy_forms,
    differential_entropy,
    log_phase_ball_volume,
    log_phase_shell_volume,
    maxent_shell_check,
    modified_differential_entropy,
    sackur_tetrode_entropy,
    shell_entropy,
)

from conftest import oracle_entropy_integral

GAUSS_HC = 0.5 * math.log(2.0 * math.pi * math.e)


class TestModifiedDifferentialEntropy:
    def test_unit_uniform_at_tenth_width(self):
        # identity oracle: H_C - k ln h with H_C = 0
        v = modified_differential_entropy(DensitySpec.uniform(0.0, 1.0), 0.1).value
        assert v == pytest.approx(-math.log(0.1), abs=1e-8)

    def test_unit_width_changes_nothing(self):
        v = modified_differential_entropy(DensitySpec.uniform(0.0, 1.0), 1.0).value
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_half_width(self):
        v = modified_differential_entropy(DensitySpec.gaussian(0.0, 1.0), 0.5).value
        assert v == pytest.approx(GAUSS_HC + math.log(2.0), abs=1e-8)

    @pytest.mark.parametrize(
        "f",
        [
            DensitySpec.uniform(0.0, 2.0),
            DensitySpec.gaussian(0.0, 1.0),
            DensitySpec.gaussian(-1.0, 0.5),
            DensitySpec.exponential(1.0),
            DensitySpec.exponential(3.0),
        ],
    )
    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0])
    def test_width_shift_identity(self, f, h):
        gap = (
            modified_differential_entropy(f, h).value
            - differential_entropy(f).value
        )
        assert gap == pytest.approx(-math.log(h), abs=1e-8)

    @pytest.mark.parametrize(
        "f",
        [
            DensitySpec.uniform(0.0, 2.0),
            DensitySpec.gaussian(-1.0, 0.5),
            DensitySpec.exponential(3.0),
        ],
    )
    @pytest.mark.parametrize("h", [0.1, 2.0])
    def test_matches_quadrature_oracle(self, f, h):
        ref, _ = oracle_entropy_integral(f, h)
        assert abs(modified_differential_entropy(f, h).value - ref) <= 1e-14

    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            modified_differential_entropy(DensitySpec.uniform(0.0, 1.0), 0.0)


    def test_bad_width_is_non_positive_width(self):
        # the kind quantize_density reports for the same h
        with pytest.raises(NonPositiveWidth, match="positive finite"):
            modified_differential_entropy(DensitySpec.uniform(0.0, 1.0), math.nan)


class TestShellSpec:
    def test_positivity_enforced(self):
        with pytest.raises(ValidationError):
            ShellSpec(E=-1.0, dE=0.1, V=1.0, N=1)
        with pytest.raises(ValidationError):
            ShellSpec(E=1.0, dE=0.1, V=1.0, N=0)
        with pytest.raises(ValidationError):
            ShellSpec(E=1.0, dE=0.1, V=1.0, N=2, planck_h=0.0)

    def test_thick_shell_warns(self):
        with pytest.warns(RuntimeWarning, match="thickness"):
            ShellSpec(E=1.0, dE=0.5, V=1.0, N=1)


class TestPhaseVolumes:
    def test_single_particle_value(self):
        # direct oracle off the log domain: Phi = (2 pi)^{3/2} / Gamma(5/2)
        spec = ShellSpec(E=1.0, dE=1e-3, V=1.0, N=1)
        oracle = math.log((2.0 * math.pi) ** 1.5 / math.gamma(2.5))
        assert log_phase_ball_volume(spec) == pytest.approx(oracle, abs=1e-12)

    def test_doubling_volume_adds_n_log2(self):
        a = ShellSpec(E=2.0, dE=1e-3, V=1.0, N=7)
        b = ShellSpec(E=2.0, dE=1e-3, V=2.0, N=7)
        assert log_phase_ball_volume(b) - log_phase_ball_volume(a) == pytest.approx(
            7.0 * math.log(2.0), abs=1e-12
        )

    def test_thin_shell_matches_derivative_form(self):
        spec = ShellSpec(E=1.0, dE=1e-8, V=1.0, N=1)
        derivative_form = (
            log_phase_ball_volume(spec)
            + math.log(1.5 * spec.N / spec.E)
            + math.log(spec.dE)
        )
        assert log_phase_shell_volume(spec) == pytest.approx(derivative_form, abs=1e-6)

    def test_huge_particle_count_stays_finite(self):
        spec = ShellSpec(E=1.5e6, dE=1.5e4, V=1e7, N=1_000_000)
        assert math.isfinite(log_phase_shell_volume(spec))


def oracle_log_shell_volume(E, dE, V, N, m):
    """ln[Phi(E + dE) - Phi(E)] in 40-digit mpmath, no branch taken."""
    with mpmath.workdps(40):
        E, dE, V, N, m = (mpmath.mpf(x) for x in (E, dE, V, N, m))
        ln_phi = N * mpmath.log(V) + 1.5 * N * mpmath.log(2 * mpmath.pi * m * E)
        ln_phi -= mpmath.loggamma(1.5 * N + 1)
        return ln_phi + mpmath.log(mpmath.expm1(1.5 * N * mpmath.log1p(dE / E)))


class TestShellVolumeOracle:
    """log_phase_shell_volume against mpmath on each side of its two
    switches, delta = (3N/2) ln(1 + dE/E) at 1e-12 and at 700."""

    @pytest.mark.parametrize(
        "E, dE, V, N, m",
        [
            (1.0, 6e-13, 1.0, 1, 1.0),  # delta 9e-13: derivative form
            (3.0, 1e-20, 2.0, 10, 1.0),  # delta 5e-20: derivative form
            (1.0, 7e-13, 1.0, 1, 1.0),  # delta 1.05e-12: expm1
            (150.0, 1.5, 1000.0, 100, 1.0),  # delta 1.49: expm1
            (1.5e6, 1.5e-6, 1e7, 10**6, 1.0),  # delta 1.5e-6: expm1
            (1.0, math.expm1(699 / 1500), 1.0, 1000, 1.0),  # delta 699: expm1
            (1.0, math.expm1(701 / 1500), 1.0, 1000, 1.0),  # delta 701: the tail
            (1.0, 1e3, 1.0, 1000, 1.0),  # delta 1.04e4: the tail
            # 2 pi m E over- and underflows a float
            (1e200, 1e197, 1.0, 1, 1e200),
            (1e-200, 1e-203, 1.0, 1, 1e-200),
            (1e300, 1.0, 1.0, 1, 1.0),
        ],
    )
    @pytest.mark.filterwarnings("ignore:shell thickness")
    def test_matches_mpmath(self, E, dE, V, N, m):
        spec = ShellSpec(E=E, dE=dE, V=V, N=N, m=m)
        delta = 1.5 * N * math.log1p(dE / E)
        ref = oracle_log_shell_volume(E, dE, V, N, m)
        # the derivative form drops the relative term (3N/2 - 1) dE / (2E) < delta / 2
        bound = 1e-15 * abs(ref) + (delta / 2 if delta < 1e-12 else 0.0)
        assert abs(log_phase_shell_volume(spec) - ref) <= bound


class TestParticleCountBound:
    def test_counts_beyond_the_bound_are_validation_errors(self):
        huge = 10**400
        with pytest.raises(ValidationError, match="N must be an integer <= 1e"):
            ShellSpec(E=1.0, dE=0.01, V=1.0, N=huge)
        with pytest.raises(ValidationError, match="N must be an integer <= 1e"):
            compare_entropy_forms(1.0, 1.0, huge)

    def test_the_largest_count_gives_finite_entropies(self):
        spec = ShellSpec(E=1e300, dE=1e298, V=1e-300, N=10**300, m=1e-300)
        assert math.isfinite(boltzmann_entropy(spec).value)
        assert math.isfinite(sackur_tetrode_entropy(spec).value)
        assert math.isfinite(classical_entropy_comparison(spec).s_cell_in_log)


class TestBoltzmannEntropy:
    def test_distinguishability_gap_is_log_factorial(self):
        base = dict(E=150.0, dE=1.5, V=1000.0, N=100)
        s_dist = boltzmann_entropy(ShellSpec(indistinguishable=False, **base)).value
        s_ind = boltzmann_entropy(ShellSpec(indistinguishable=True, **base)).value
        assert s_dist - s_ind == pytest.approx(math.lgamma(101.0), rel=1e-12)

    def test_sackur_tetrode_cross_check(self):
        # frozen from the closed-form oracle at this exact configuration;
        # the gap is the Stirling remainder net of the shell-vs-ball offset
        spec = ShellSpec(E=150.0, dE=1.5, V=1000.0, N=100, indistinguishable=True)
        s = boltzmann_entropy(spec).value
        st_ = sackur_tetrode_entropy(spec).value
        assert st_ == pytest.approx(755.9400692608065, rel=1e-12)
        rel = abs(s - st_) / st_
        assert rel == pytest.approx(0.007155662091160249, rel=1e-9)

    @pytest.mark.parametrize(
        "E, V, N, planck_h, m",
        [
            (150.0, 1000.0, 100, 1.0, 1.0),
            (1.0, 1.0, 1, 1.0, 1.0),
            # the bracket overflows, and underflows, as a plain float
            (1e300, 1.0, 1, 1e-10, 1.0),
            (1e-300, 1e-300, 1, 1e10, 1.0),
            (2e-200, 3e210, 1000, 1e-195, 5e-5),
            # argon near room conditions, in SI units
            (155.25, 1e-3, 25 * 10**21, 6.62607015e-34, 6.63e-26),
            # logs of about 700 that cancel to a small entropy: one log per
            # input loses about 1e-14 here
            (1e200, 1e-300, 1, 1.0, 1.0),
            (1e300, 1e-300, 3, 1e50, 1.0),
        ],
    )
    def test_sackur_tetrode_matches_mpmath(self, E, V, N, planck_h, m):
        spec = ShellSpec(E=E, dE=E / 100.0, V=V, N=N, m=m, planck_h=planck_h)
        with mpmath.workdps(40):
            E_, V_, N_, h_, m_ = (mpmath.mpf(x) for x in (E, V, N, planck_h, m))
            bracket = V_ / N_ * (4 * mpmath.pi * m_ * E_ / (3 * N_ * h_**2)) ** 1.5
            ref = N_ * (mpmath.log(bracket) + 2.5)
            got = sackur_tetrode_entropy(spec).value
            assert abs((got - ref) / ref) <= 1e-14, (got, float(ref))

    def test_k_scaling_is_exact(self):
        spec = ShellSpec(E=10.0, dE=0.1, V=5.0, N=3)
        assert boltzmann_entropy(spec, 2.0).value == 2.0 * boltzmann_entropy(spec, 1.0).value

    def test_monotone_in_volume_and_energy(self):
        base = dict(dE=0.5, N=50, indistinguishable=True)
        s = lambda E, V: boltzmann_entropy(ShellSpec(E=E, V=V, **base)).value
        assert s(100.0, 20.0) < s(100.0, 21.0)
        assert s(100.0, 20.0) < s(101.0, 20.0)

    def test_extensivity_probe(self):
        # fixed E/N and V/N: entropy per particle moves by < 1% from N=100
        # to N=200
        per_particle = []
        for n in (100, 200):
            spec = ShellSpec(E=1.5 * n, dE=0.015 * n, V=10.0 * n, N=n)
            per_particle.append(boltzmann_entropy(spec).value / n)
        assert abs(per_particle[1] - per_particle[0]) / per_particle[0] < 0.01


class TestMaxentShellCheck:
    def test_uniform_is_maximal(self):
        d = DiscretizedShellDensity.uniform(np.full(16, 2.0))
        report = maxent_shell_check(d, C=1.0, trials=500, seed=11)
        assert report.is_maximal
        assert report.entropy == pytest.approx(math.log(32.0), abs=1e-12)

    def test_spike_sits_strictly_below_uniform(self):
        w = np.full(8, 1.0)
        spike = np.zeros(8)
        spike[0] = 1.0
        s_spike = maxent_shell_check(DiscretizedShellDensity(w, spike), C=1.0, trials=1).entropy
        s_unif = maxent_shell_check(DiscretizedShellDensity.uniform(w), C=1.0, trials=1).entropy
        assert s_spike < s_unif
        # direct evaluation oracle: -ln(C / w_1) vs -ln(C / W)
        assert s_spike == pytest.approx(math.log(1.0), abs=1e-12)
        assert s_unif == pytest.approx(math.log(8.0), abs=1e-12)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_must_be_positive(self, trials):
        d = DiscretizedShellDensity.uniform(np.full(4, 1.0))
        with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
            maxent_shell_check(d, C=1.0, trials=trials)

    def test_thousand_seeded_perturbations(self):
        d = DiscretizedShellDensity.uniform(np.full(16, 1.0))
        assert maxent_shell_check(d, C=1.0, trials=1000, seed=42).is_maximal

    def test_unequal_cells_still_maximal(self):
        d = DiscretizedShellDensity.uniform(np.array([0.5, 1.0, 2.0, 4.0]))
        assert maxent_shell_check(d, C=0.7, trials=500, seed=3).is_maximal

    def test_bad_normalization_rejected(self):
        with pytest.raises(InvalidDensity):
            DiscretizedShellDensity(np.full(4, 1.0), np.full(4, 0.3))

    @pytest.mark.parametrize(
        "w, f",
        [
            ([1.0, math.inf], [0.5, 0.0]),
            ([1.0, 1.0], [0.5, math.nan]),
            ([[1.0, 1.0]], [[0.5, 0.5]]),
            ([], []),
            ([1.0, 1.0], [1.0]),
        ],
    )
    def test_malformed_cells_rejected(self, w, f):
        with pytest.raises(ValidationError):
            DiscretizedShellDensity(np.array(w), np.array(f))

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_scalar_constants_must_be_positive_finite(self, bad):
        d = DiscretizedShellDensity.uniform(np.full(4, 1.0))
        spec = ShellSpec(E=1.0, dE=0.01, V=1.0, N=1)
        with pytest.raises(ValidationError, match="C must be a positive finite real"):
            shell_entropy(d, bad)
        with pytest.raises(ValidationError, match="planck_h must be a positive finite real"):
            compare_entropy_forms(1.0, bad, 1)
        with pytest.raises(ValidationError, match="energy must be a positive finite real"):
            log_phase_ball_volume(spec, bad)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=50)
    def test_cell_constant_shift(self, c1, c2):
        # swapping C for C' moves the entropy by exactly -k ln(C'/C)
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, size=12)
        raw = rng.exponential(size=12)
        d = DiscretizedShellDensity(w, raw / math.fsum((w * raw).tolist()))
        gap = shell_entropy(d, c2) - shell_entropy(d, c1)
        assert gap == pytest.approx(-math.log(c2 / c1), abs=1e-12)

    @pytest.mark.parametrize("cells, C", [([1e-300], 1e308), ([1e300, 1e300], 1e-308)],
                             ids=["C-f-overflows", "C-f-underflows"])
    def test_entropy_where_C_f_leaves_the_float_range(self, cells, C):
        # C f_i is inf or 0 as a double, but ln(C f_i) is a modest number
        d = DiscretizedShellDensity.uniform(np.array(cells))
        with mpmath.workdps(50):
            expected = -mpmath.fsum(
                mpmath.mpf(w) * mpmath.mpf(f) * mpmath.log(mpmath.mpf(C) * mpmath.mpf(f))
                for w, f in zip(d.cell_volumes.tolist(), d.densities.tolist())
            )
        entropy = shell_entropy(d, C)
        assert entropy == pytest.approx(float(expected), rel=1e-15)
        report = maxent_shell_check(d, C, trials=50)
        assert (report.entropy, report.is_maximal) == (entropy, True)


    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(-300.0, 300.0),
           st.floats(-300.0, 300.0), st.sampled_from([1.0, 1.0 / math.log(2.0), 2.5]))
    @example(2, 0, 297.0, 297.3, 1.0)  # cells near C, both near 1e297
    @example(1, 0, -297.0, 300.0, 1.0)  # C f_i overflows a double
    @example(64, 1, 297.0, -300.0, 2.5)  # C f_i underflows a double
    @settings(max_examples=60, deadline=None)
    def test_shell_entropy_matches_mpmath(self, m, seed, w_decade, c_decade, k):
        # cells spread over six decades around 10**w_decade, and C
        # log-uniform in 1e-300..1e300.  The value is summed from ln p_i and
        # ln h_i (masses p_i = w_i f_i, widths h_i = w_i / C), each a few
        # ulps of its size off, so the error is bounded by
        # 2^-50 k sum p_i (1 + |ln p_i| + |ln h_i|).  That is 2^-50 k sum|terms|
        # but for the cancellation where C f_i is near 1, which rounding
        # C f_i or w_i f_i alone turns into a relative error of any size.
        rng = np.random.default_rng(seed)
        w = 10.0 ** (w_decade + rng.uniform(-3.0, 3.0, m))
        raw = rng.exponential(size=m) * (rng.random(m) < 0.8)  # some empty cells
        raw[0] += 1.0
        d = DiscretizedShellDensity(w, raw / math.fsum((w * raw).tolist()))
        C = 10.0**c_decade
        with mpmath.workdps(50):
            K, c = mpmath.mpf(k), mpmath.mpf(C)
            cells = [(mpmath.mpf(wi) * mpmath.mpf(fi), mpmath.log(mpmath.mpf(wi) / c))
                     for wi, fi in zip(d.cell_volumes.tolist(), d.densities.tolist()) if fi > 0]
            exact = -K * mpmath.fsum(p * (mpmath.log(p) - log_h) for p, log_h in cells)
            bound = 2**-50 * K * mpmath.fsum(
                p * (1 + abs(mpmath.log(p)) + abs(log_h)) for p, log_h in cells
            )
            assert abs(shell_entropy(d, C, k) - exact) <= bound

    @pytest.mark.parametrize(
        "cells",
        [np.full(10, 1.6e307), np.full(2, 8e307), np.array([1e-300, 1.7e308]),
         np.full(5, 1e300)],
        ids=["ten-at-1.6e307", "two-at-8e307", "1e-300-and-1.7e308", "five-at-1e300"],
    )
    @pytest.mark.filterwarnings("error")
    def test_maxent_on_cells_near_the_float_limit(self, cells):
        # the cells sum to a finite value, but w_i times a draw need not be
        # one; the uniform density is still the maximizer
        assert maxent_shell_check(DiscretizedShellDensity.uniform(cells), C=1.0).is_maximal

    @pytest.mark.parametrize("call", [shell_entropy, maxent_shell_check])
    def test_entropy_beyond_the_float_range_is_a_validation_error(self, call):
        # S = ln 40 nats, so k S overflows a double
        d = DiscretizedShellDensity.uniform(np.full(4, 1.0))
        with pytest.raises(ValidationError, match="entropy value must be finite"):
            call(d, 0.1, k=1e308)


class TestEntropyFormComparison:
    def test_unit_cell_collapses_both(self):
        spec = ShellSpec(E=150.0, dE=1.5, V=1000.0, N=100, planck_h=1.0)
        report = classical_entropy_comparison(spec)
        assert report.s_cell_in_log == report.s_prefactor
        assert report.gap == 0.0

    def test_closed_form_case(self):
        report = compare_entropy_forms(ln_omega=8.0, planck_h=2.0, N=1)
        assert report.s_cell_in_log == pytest.approx(8.0 - 3.0 * math.log(2.0), abs=1e-12)
        assert report.s_prefactor == pytest.approx(1.0, abs=1e-12)
        assert report.gap == pytest.approx(8.0 - 3.0 * math.log(2.0) - 1.0, abs=1e-10)

    def test_gap_is_not_an_additive_constant(self):
        # two-point evaluation: were the readings equal up to a constant,
        # the gap could not move with the cell size
        g2 = compare_entropy_forms(8.0, 2.0, 1).gap
        g4 = compare_entropy_forms(8.0, 4.0, 1).gap
        assert g2 != pytest.approx(g4, abs=1e-6)

    def test_overflow_reported_as_log_magnitude(self):
        report = compare_entropy_forms(ln_omega=100.0, planck_h=1e-3, N=200)
        assert report.overflowed
        assert report.s_prefactor == math.inf
        assert report.prefactor_sign == 1
        expected = math.log(100.0) - 600.0 * math.log(1e-3)
        assert report.prefactor_log_magnitude == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "ln_omega, planck_h, N",
        [(1e6, 10.0, 103), (1e-100, 0.1, 110), (-1e-100, 0.1, 110)],
        ids=["cell-overflows", "cell-underflows", "negative"],
    )
    def test_prefactor_when_the_cell_is_out_of_float_range(self, ln_omega, planck_h, N):
        # h^3N is not a normal float here, though the reading k ln(Omega) / h^3N is
        report = compare_entropy_forms(ln_omega=ln_omega, planck_h=planck_h, N=N)
        assert not report.overflowed
        with mpmath.workdps(30):
            expected = float(mpmath.mpf(ln_omega) / mpmath.mpf(planck_h) ** (3 * N))
        assert report.s_prefactor == pytest.approx(expected, rel=1e-12)

    def test_underflow_reported_too(self):
        report = compare_entropy_forms(ln_omega=-5.0, planck_h=1e3, N=200)
        assert report.overflowed
        assert report.s_prefactor == 0.0
        assert report.prefactor_sign == -1
