import io
import json
import math
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest

from entrokit import (
    DensityFamily,
    DensitySpec,
    NonPositiveWidth,
    UnboundedSupport,
    ValidationError,
    convergence_sweep,
    differential_entropy,
    quantize_density,
    shannon_entropy,
    total_entropy_from_density,
)

from entrokit import cli, density_from_json, quantize

from conftest import oracle_entropy_integral

GAUSS_HC = 0.5 * math.log(2.0 * math.pi * math.e)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def oracle_bin_mass(f, a, b):
    """Mass of [a, b] at 50 digits, from the CDF of the named family."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if f.family is DensityFamily.GAUSSIAN:
            mu, sigma = f.params["mu"], f.params["sigma"]
            return float(mpmath.ncdf(b, mu, sigma) - mpmath.ncdf(a, mu, sigma))
        rate = mpmath.mpf(f.params["rate"])
        return float(mpmath.exp(-rate * a) - mpmath.exp(-rate * b))


class TestQuantizeDensity:
    def test_flat_density_exact_bins(self):
        r = quantize_density(DensitySpec.uniform(0.0, 1.0), 0.1)
        assert r.binned.probs.size == 10
        np.testing.assert_allclose(r.binned.probs, 0.1, atol=1e-12)
        assert r.mass_deficit == pytest.approx(0.0, abs=1e-12)

    def test_flat_density_coarser(self):
        r = quantize_density(DensitySpec.uniform(0.0, 2.0), 0.5)
        assert r.binned.probs.size == 4
        np.testing.assert_allclose(r.binned.probs, 0.25, atol=1e-12)
        np.testing.assert_allclose(r.binned.values, [0.25, 0.75, 1.25, 1.75], atol=1e-12)

    def test_gaussian_central_bin_midpoint_anchored(self):
        # the grid centers on the support midpoint, so the mode sits at a
        # bin midpoint and the central bin is [-h/2, h/2]
        r = quantize_density(DensitySpec.gaussian(0.0, 1.0), 0.5)
        i = int(np.abs(r.binned.values).argmin())
        assert r.binned.values[i] == pytest.approx(0.0, abs=1e-12)
        oracle = normal_cdf(0.25) - normal_cdf(-0.25)
        assert r.binned.probs[i] == pytest.approx(oracle, abs=1e-10)

    def test_all_widths_equal_h(self):
        r = quantize_density(DensitySpec.exponential(1.0), 0.3)
        assert np.all(r.binned.widths == 0.3)

    @pytest.mark.parametrize(
        "f",
        [
            DensitySpec.uniform(0.0, 1.0),
            DensitySpec.uniform(-1.0, 3.0),
            DensitySpec.gaussian(0.0, 1.0),
            DensitySpec.gaussian(2.0, 0.5),
            DensitySpec.exponential(1.0),
            DensitySpec.exponential(0.25),
        ],
    )
    @pytest.mark.parametrize("h", [0.5, 0.25, 0.1])
    def test_mass_conservation_against_cdf(self, f, h):
        # deficit comes from the CDF outside the grid, masses from the
        # tail-aware bin differences: agreement cross-checks the two
        r = quantize_density(f, h)
        total = math.fsum(r.binned.probs.tolist()) + r.mass_deficit
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_bin_masses_match_cdf_increments(self):
        f = DensitySpec.gaussian(0.5, 2.0)
        r = quantize_density(f, 0.25)
        left = r.binned.values - r.h / 2.0
        for x, p in zip(left[::7], r.binned.probs[::7]):
            assert p == pytest.approx(oracle_bin_mass(f, x, x + r.h), abs=1e-10)

    @pytest.mark.parametrize("f", [DensitySpec.gaussian(0.0, 1.0), DensitySpec.exponential(1.0)])
    @pytest.mark.parametrize("h", [1 / 64, 1 / 1024])
    def test_bin_masses_match_high_precision_oracle(self, f, h):
        # h is a power of two and the grid starts on a multiple of h/2, so
        # midpoint -/+ h/2 are the exact bin edges; the three outermost
        # bins on each side are the tails where cancellation would show
        r = quantize_density(f, h)
        n = r.binned.probs.size
        picks = sorted({0, 1, 2, n - 3, n - 2, n - 1, *np.linspace(0, n - 1, 25, dtype=int)})
        for i in picks:
            x, m = float(r.binned.values[i]), float(r.binned.probs[i])
            ref = oracle_bin_mass(f, x - h / 2, x + h / 2)
            assert abs(m - ref) <= 1e-11 * ref, (i, m, ref)

    @pytest.mark.parametrize(
        "f",
        [DensitySpec.gaussian(0.0, 1.0), DensitySpec.gaussian(0.5, 2.0),
         DensitySpec.gaussian(-3.0, 1e-3)],
    )
    def test_bins_across_the_mean_match_high_precision_oracle(self, f):
        # a bin holding the mean takes its right edge's mass on the bulk
        # side, as the complement 2 - erfc
        mu, sigma = f.params["mu"], f.params["sigma"]
        for a, b in [(-2.0, 0.1), (-0.3, 0.7), (-1e-3, 1e-3), (-1e-9, 0.5), (0.0, 0.5),
                     (-6.0, 6.0)]:
            edges = np.array([mu + a * sigma, mu + b * sigma])
            m, ref = float(f.bin_masses(edges)[0]), oracle_bin_mass(f, *edges)
            assert abs(m - ref) <= 1e-11 * ref, (a, b, m, ref)

    @pytest.mark.parametrize(
        "f", [DensitySpec.gaussian(0.0, 1.0), DensitySpec.gaussian(-3.0, 1e-3)]
    )
    @pytest.mark.parametrize("z", [-8.5, -2.5, -1e-3, 0.0, 1e-12, 1e-3, 0.3, 1.0, 2.5, 7.0, 8.5])
    def test_cdf_matches_high_precision_oracle(self, f, z):
        # right of the mean cdf is 1 - erfc/2, the complement on the bulk
        # side; left of it, erfc's own tail, which is good to a few ulps of
        # erfc (9e-15 relative at z = -8.5)
        x = f.params["mu"] + z * f.params["sigma"]
        ref = oracle_bin_mass(f, -math.inf, x)
        bound = 1e-15 if z >= 0 else 1e-13
        assert abs(f.cdf(x) - ref) <= bound * ref, (f.cdf(x), ref)

    @pytest.mark.parametrize("f", [DensitySpec.gaussian(0.0, 1.0), DensitySpec.exponential(1.0)])
    @pytest.mark.parametrize("h", [0.5, 1 / 64, 1 / 1024])
    def test_mass_deficit_matches_high_precision_oracle(self, f, h):
        # the two tails beyond the outer edges at 50 digits; a right tail
        # taken as 1 - cdf cancels against 1 and misses this by up to 0.5%
        r = quantize_density(f, h)
        lo = float(r.binned.values[0]) - h / 2.0
        hi = float(r.binned.values[-1]) + h / 2.0
        left = oracle_bin_mass(f, -math.inf, lo) if f.family is DensityFamily.GAUSSIAN else 0.0
        ref = left + oracle_bin_mass(f, hi, math.inf)
        assert abs(r.mass_deficit - ref) <= 1e-12 * ref, (r.mass_deficit, ref)

    @pytest.mark.parametrize(
        "f, h",
        [
            (DensitySpec.gaussian(0.0, 1.0), 1e-300),
            (DensitySpec.gaussian(0.0, 1.0), 5e-324),
            (DensitySpec.uniform(0.0, 1.0), 2.0**-23),
        ],
    )
    def test_grid_beyond_max_bins_is_refused(self, f, h):
        with pytest.raises(ValidationError, match="bins"):
            quantize_density(f, h)

    def test_sweep_refuses_its_finest_grid_before_quantizing(self, monkeypatch):
        def never(*args):
            raise AssertionError("quantized before the grid bound was checked")

        monkeypatch.setattr(quantize, "_quantized_rows", never)
        hs = [0.5 * 2.0**-j for j in range(40)]
        with pytest.raises(ValidationError, match="bins"):
            convergence_sweep(DensitySpec.gaussian(0.0, 1.0), hs)

    def test_k_is_checked_before_quantizing(self, monkeypatch):
        """A 4-million-bin grid is refused for its k before any bin of it is
        computed."""
        def never(*args):
            raise AssertionError("quantized before k was checked")

        monkeypatch.setattr(quantize, "_quantized_rows", never)
        f, h = DensitySpec.gaussian(0.0, 1.0), 15 / 4e6
        with pytest.raises(ValidationError, match="^k must be"):
            total_entropy_from_density(f, h, k="x")
        with pytest.raises(ValidationError, match="^k must be"):
            convergence_sweep(f, [h], k=0.0)

    def test_point_mass_gaussian_is_one_bin(self):
        r = quantize_density(DensitySpec.gaussian(0.0, 1e-300), 1.0)
        assert r.binned.probs.tolist() == [1.0]
        assert r.mass_deficit == 0.0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(NonPositiveWidth):
            quantize_density(DensitySpec.uniform(0.0, 1.0), 0.0)
        with pytest.raises(NonPositiveWidth):
            quantize_density(DensitySpec.uniform(0.0, 1.0), -0.5)

    def test_rejects_unbounded_support(self):
        # forged spec bypassing construction-time validation: the quantizer
        # still refuses to tile an infinite interval
        bad = object.__new__(DensitySpec)
        object.__setattr__(bad, "family", DensitySpec.gaussian(0, 1).family)
        object.__setattr__(bad, "params", {"mu": 0.0, "sigma": 1.0})
        object.__setattr__(bad, "support", (-math.inf, math.inf))
        with pytest.raises(UnboundedSupport):
            quantize_density(bad, 0.5)


class TestDifferentialEntropy:
    def test_unit_uniform_is_zero(self):
        assert differential_entropy(DensitySpec.uniform(0.0, 1.0)).value == pytest.approx(
            0.0, abs=1e-10
        )

    def test_uniform_two(self):
        assert differential_entropy(DensitySpec.uniform(0.0, 2.0)).value == pytest.approx(
            math.log(2.0), abs=1e-10
        )

    def test_standard_gaussian(self):
        assert differential_entropy(DensitySpec.gaussian(0.0, 1.0)).value == pytest.approx(
            GAUSS_HC, abs=1e-8
        )

    def test_unit_exponential(self):
        assert differential_entropy(DensitySpec.exponential(1.0)).value == pytest.approx(
            1.0, abs=1e-8
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_scale_covariance_of_uniform(self, a):
        # ln(a), negative below a = 1: differential entropy escapes the
        # nonnegativity axiom of the discrete case
        h = differential_entropy(DensitySpec.uniform(0.0, a)).value
        assert h == pytest.approx(math.log(a), abs=1e-8)
        if a < 1.0:
            assert h < 0.0

    def test_k_scaling_is_exact(self):
        f = DensitySpec.gaussian(0.0, 1.0)
        assert differential_entropy(f, 2.0).value == 2.0 * differential_entropy(f, 1.0).value

    @pytest.mark.parametrize(
        "f",
        [
            DensitySpec.uniform(0.0, 2.0),
            DensitySpec(DensityFamily.UNIFORM, {"a": 0.0, "b": 1.0}, support=(-1.0, 2.0)),
            DensitySpec.gaussian(0.0, 1.0),
            DensitySpec.gaussian(2.0, 0.5),
            DensitySpec(DensityFamily.GAUSSIAN, {"mu": 0.0, "sigma": 1.0}, support=(-6.5, 7.0)),
            DensitySpec.exponential(1.0),
            DensitySpec.exponential(0.25),
            DensitySpec(DensityFamily.EXPONENTIAL, {"rate": 1.0}, support=(-1.0, 25.0)),
        ],
    )
    def test_entropy_integral_matches_quadrature_oracle(self, f):
        value, mass = f.entropy_integral()
        ref_value, ref_mass = oracle_entropy_integral(f)
        assert abs(value - ref_value) <= 1e-14
        assert abs(mass - ref_mass) <= 1e-14

    def test_tiny_sigma_gaussian(self):
        # ln sigma enters directly, never through sigma**2, which underflows
        sigma = 1e-300
        h = differential_entropy(DensitySpec.gaussian(0.0, sigma)).value
        assert h == pytest.approx(math.log(sigma) + GAUSS_HC, rel=1e-12)


class TestTotalEntropyFromDensity:
    def test_flat_density_vanishes(self):
        assert total_entropy_from_density(
            DensitySpec.uniform(0.0, 1.0), 0.1
        ).value == pytest.approx(0.0, abs=1e-12)

    def test_flat_density_half_masses(self):
        assert total_entropy_from_density(
            DensitySpec.uniform(0.0, 2.0), 0.5
        ).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gaussian_quarter_width(self):
        v = total_entropy_from_density(DensitySpec.gaussian(0.0, 1.0), 0.25).value
        assert v == pytest.approx(GAUSS_HC, abs=0.01)

    @pytest.mark.parametrize(
        "f",
        [
            DensitySpec.uniform(0.0, 1.0),
            DensitySpec.uniform(0.0, 2.0),
            DensitySpec.gaussian(0.0, 1.0),
            DensitySpec.exponential(1.0),
        ],
    )
    @pytest.mark.parametrize("h", [0.5, 0.25, 0.1])
    def test_shift_identity(self, f, h):
        # total entropy differs from the quantized Shannon entropy by
        # exactly k ln h
        quantized = quantize_density(f, h).binned.dist
        total = total_entropy_from_density(f, h).value
        assert total == pytest.approx(
            shannon_entropy(quantized).value + math.log(h), abs=1e-12
        )

    def test_k_scaling_is_exact(self):
        f = DensitySpec.exponential(1.0)
        one = total_entropy_from_density(f, 0.25, 1.0).value
        assert total_entropy_from_density(f, 0.25, 2.0).value == 2.0 * one


class TestConvergenceSweep:
    def test_gaussian_error_shrinks(self):
        rows = convergence_sweep(DensitySpec.gaussian(0.0, 1.0), [0.5, 0.25, 0.125])
        errs = [r.abs_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert [r.h for r in rows] == [0.5, 0.25, 0.125]

    def test_flat_density_is_exact_at_every_width(self):
        rows = convergence_sweep(DensitySpec.uniform(0.0, 1.0), [0.5, 0.1, 0.01])
        for r in rows:
            assert r.abs_error == pytest.approx(0.0, abs=1e-12)

    def test_exponential_error_shrinks_below_percent(self):
        rows = convergence_sweep(DensitySpec.exponential(1.0), [0.4, 0.2, 0.1])
        errs = [r.abs_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 0.01

    def test_rows_carry_consistent_error(self):
        rows = convergence_sweep(DensitySpec.gaussian(0.0, 1.0), [0.5, 0.25])
        for r in rows:
            assert r.abs_error == abs(r.total_entropy - r.differential_entropy)

    def test_h_values_must_decrease(self):
        f = DensitySpec.uniform(0.0, 1.0)
        with pytest.raises(ValidationError):
            convergence_sweep(f, [0.1, 0.5])
        with pytest.raises(NonPositiveWidth):
            convergence_sweep(f, [0.5, 0.0])


def test_a_last_edge_beyond_the_float_range_reads_as_its_limit():
    """h * n overflows on the way to the last edge, -1e308 + 2e308, which is
    formed at a quarter of the scale instead; bin_masses clips it to b, as
    it would an edge past the float range, so the bins are right, and the
    warning filters make a numpy warning fail."""
    f = density_from_json('{"family":"uniform","a":-1e308,"b":1e300}')
    assert quantize_density(f, 1e308).to_json_obj() == {
        "h": 1e308,
        "mass_deficit": 0.0,
        "binned": {
            "values": [-5e307, 5e307],
            "probs": [0.9999999900000001, 9.999999900000002e-09],
            "widths": [1e308, 1e308],
        },
    }
    rows = convergence_sweep(f, [1e308, 5e307])
    assert [(r.h, r.total_entropy) for r in rows] == [
        (1e308, 709.1962088363729), (5e307, 709.1962088294413)
    ]


@pytest.mark.parametrize("sigma, h", [
    (1e307, 1e308),  # h t overflows, though x0 + h t does not
    (1.2e307, 1.3e308),  # the left edge -1.5 h itself is past the float range
])
def test_grid_points_that_are_finite_stay_finite(sigma, h):
    """A centred grid of three bins: every midpoint is finite, and so are
    the two inner edges, though (x0 + s h) + h t overflows on the way to
    them.  The masses are those of the exact edges, and no numpy warning
    is raised (the warning filters make one fail)."""
    f = DensitySpec.gaussian(0.0, sigma)
    r = quantize_density(f, h)
    assert r.binned.values.tolist() == pytest.approx([-h, 0.0, h], rel=1e-15)
    edges = [-math.inf, -0.5 * h, 0.5 * h, math.inf]
    assert r.binned.probs.tolist() == pytest.approx(
        [oracle_bin_mass(f, a, b) for a, b in zip(edges, edges[1:])], rel=1e-12)
    out = io.StringIO()
    density = json.dumps({"family": "gaussian", "mu": 0, "sigma": sigma})
    with redirect_stdout(out):
        assert cli.main(["quantize", "--density", density, "--h", repr(h)]) == 0
    assert json.loads(out.getvalue())["binned"]["values"] == r.binned.values.tolist()
