import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrokit import (
    BinnedVariable,
    DensitySpec,
    DiscreteDistribution,
    EntropyUnit,
    EntropyValue,
    EntrokitError,
    NegativeProbability,
    NotNormalized,
    UnboundedSupport,
    ValidationError,
    binned_from_json,
    density_from_json,
    differential_entropy,
    discrete_from_json,
    product_distribution,
    renormalize,
    validate_distribution,
)

from entrokit.distributions import (
    GAUSSIAN_HALF_WIDTH,
    MAX_ROW,
    TRUNCATION_EPS,
    fsum_decides,
    normalized_rows,
)

from conftest import (
    SUM_PATHS,
    distributions,
    peak_bytes,
    ragged,
    same_length_pairs,
    sum_path,
)


class TestValidateDistribution:
    def test_fair_coin_is_valid(self):
        d = validate_distribution([0.5, 0.5])
        assert d.n == 2

    def test_zero_entries_allowed(self):
        d = validate_distribution([1.0, 0.0, 0.0])
        assert d.n == 3
        assert d.probs[1] == 0.0

    def test_overweight_vector_rejected(self):
        with pytest.raises(NotNormalized):
            validate_distribution([0.6, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeProbability):
            validate_distribution([1.2, -0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            validate_distribution([])

    def test_no_silent_repair(self):
        # slightly-off input stays off: validation either passes it through
        # untouched or rejects, it never rescales
        probs = [0.5, 0.5 + 1e-10]
        d = validate_distribution(probs)
        assert math.fsum(d.probs.tolist()) == math.fsum(probs)

    def test_renormalize_is_explicit(self):
        d = renormalize([2.0, 2.0])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    @pytest.mark.parametrize(
        "weights", [[1e308, 1e308], [1.7e308, 1e308, 3e307, 1e-300, 0.0, 5.0]]
    )
    def test_renormalize_when_the_sum_overflows(self, weights):
        with mpmath.workprec(2200):  # every sum of these doubles is exact
            total = mpmath.fsum(weights)
            ref = [float(mpmath.mpf(w) / total) for w in weights]
        np.testing.assert_allclose(renormalize(weights).probs, ref, rtol=1e-15, atol=0.0)

    def test_tolerance_is_configurable(self):
        probs = [0.5, 0.5 + 1e-7]
        with pytest.raises(NotNormalized):
            validate_distribution(probs)
        validate_distribution(probs, tolerance=1e-6)


class TestProductDistribution:
    def test_two_by_two_rowmajor(self):
        p = validate_distribution([0.5, 0.5])
        q = validate_distribution([1 / 3, 2 / 3])
        prod = product_distribution(p, q)
        np.testing.assert_allclose(prod.probs, [1 / 6, 1 / 3, 1 / 6, 1 / 3], atol=1e-15)

    def test_identity_factor(self):
        p = validate_distribution([1.0])
        q = validate_distribution([0.2, 0.8])
        np.testing.assert_array_equal(product_distribution(p, q).probs, [0.2, 0.8])

    def test_symmetric_case(self):
        p = validate_distribution([0.5, 0.5])
        prod = product_distribution(p, p)
        np.testing.assert_array_equal(prod.probs, [0.25, 0.25, 0.25, 0.25])

    def test_joint_size_is_bounded_before_it_is_allocated(self):
        p = DiscreteDistribution(np.full(2049, 1.0 / 2049))

        def refuse():
            with pytest.raises(ValidationError, match=f"<= {MAX_ROW}"):
                product_distribution(p, p)

        assert peak_bytes(refuse) < 2 * 2**20

    @given(same_length_pairs(min_n=1, max_n=12))
    def test_output_valid_at_scaled_tolerance(self, pq):
        p, q = pq
        prod = product_distribution(p, q)
        validate_distribution(prod.probs, tolerance=p.tolerance * (p.n + q.n))

    @given(same_length_pairs(min_n=1, max_n=12))
    def test_commutes_as_multiset(self, pq):
        p, q = pq
        a = np.sort(product_distribution(p, q).probs)
        b = np.sort(product_distribution(q, p).probs)
        np.testing.assert_array_equal(a, b)


class TestBinnedVariable:
    def test_roundtrip_json(self):
        bv = binned_from_json('{"values": [0, 1], "probs": [0.5, 0.5], "widths": [1, 2]}')
        assert bv.to_json_obj() == {
            "values": [0.0, 1.0],
            "probs": [0.5, 0.5],
            "widths": [1.0, 2.0],
        }

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            BinnedVariable(
                values=[0.0, 1.0, 2.0],
                dist=validate_distribution([0.5, 0.5]),
                widths=[1.0, 1.0],
            )

    def test_nonpositive_width(self):
        with pytest.raises(ValidationError, match="widths"):
            BinnedVariable(
                values=[0.0, 1.0],
                dist=validate_distribution([0.5, 0.5]),
                widths=[1.0, 0.0],
            )

    def test_values_must_increase(self):
        with pytest.raises(ValidationError, match="increasing"):
            BinnedVariable(
                values=[1.0, 0.0],
                dist=validate_distribution([0.5, 0.5]),
                widths=[1.0, 1.0],
            )

    def test_values_spanning_the_float_range_are_compared_not_subtracted(self):
        # 1e308 - (-1e308) overflows; neighbours are compared instead
        dist = validate_distribution([0.5, 0.5])
        v = BinnedVariable(values=[-1e308, 1e308], dist=dist, widths=[1.0, 1.0])
        assert v.values.tolist() == [-1e308, 1e308]
        with pytest.raises(ValidationError, match="increasing"):
            BinnedVariable(values=[1e308, -1e308], dist=dist, widths=[1.0, 1.0])


class TestDensitySpec:
    def test_uniform_support_is_natural(self):
        f = DensitySpec.uniform(0.0, 2.0)
        assert f.support == (0.0, 2.0)
        assert f.pdf(1.0) == 0.5
        assert f.pdf(3.0) == 0.0

    def test_gaussian_truncation_keeps_mass(self):
        f = DensitySpec.gaussian(0.0, 1.0)
        lo, hi = f.support
        assert lo == -hi
        assert f.bin_masses(np.array([lo, hi]))[0] >= 1 - 1e-9

    def test_gaussian_half_width_is_the_truncation_quantile(self):
        from statistics import NormalDist

        assert GAUSSIAN_HALF_WIDTH == -NormalDist().inv_cdf(TRUNCATION_EPS / 2.0)
        f = DensitySpec.gaussian(3.0, 0.7)
        assert f.support == (3.0 - GAUSSIAN_HALF_WIDTH * 0.7, 3.0 + GAUSSIAN_HALF_WIDTH * 0.7)

    def test_exponential_left_edge_is_zero(self):
        f = DensitySpec.exponential(2.0)
        assert f.support[0] == 0.0
        assert f.pdf(-0.5) == 0.0
        assert f.pdf(0.0) == 2.0

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            DensitySpec.gaussian(0.0, 0.0)
        with pytest.raises(ValidationError):
            DensitySpec.uniform(2.0, 1.0)
        with pytest.raises(ValidationError):
            DensitySpec.exponential(-1.0)

    def test_cdf_matches_pdf_shape(self):
        f = DensitySpec.gaussian(1.0, 2.0)
        assert f.cdf(1.0) == pytest.approx(0.5, abs=1e-15)
        xs = np.linspace(*f.support, 50)
        cdfs = [f.cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))

    def test_explicit_support_must_hold_mass(self):
        with pytest.raises(UnboundedSupport, match="^declared support holds mass 0.68"):
            DensitySpec(
                "gaussian", {"mu": 0.0, "sigma": 1.0}, support=(-1.0, 1.0)
            )

    def test_an_implied_support_that_holds_too_little_mass_is_named(self):
        # mu -/+ 7.4 sigma round to (1 - 2^-53, 1), which holds only the lower half
        with pytest.raises(UnboundedSupport, match="^implied support holds mass 0.5,"):
            DensitySpec.gaussian(1.0, 1e-17)

    def test_unknown_family_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown density family 'bogus'"):
            DensitySpec("bogus", {})

    def test_json_parsing(self):
        f = density_from_json('{"family": "exponential", "rate": 1.5}')
        assert f.params == {"rate": 1.5}
        with pytest.raises(ValidationError, match="family"):
            density_from_json('{"family": "cauchy", "x0": 0}')
        with pytest.raises(ValidationError):
            density_from_json('{"family": "gaussian", "mu": 0}')


    @pytest.mark.parametrize("mu", [1e300, -1e17])
    def test_collapsed_support_is_named(self, mu):
        # mu -/+ 7.4 sigma rounds back to mu: no interval is left to hold mass
        with pytest.raises(ValidationError, match="implied support"):
            DensitySpec.gaussian(mu, 1.0)

    def test_support_wider_than_a_float_is_rejected(self):
        with pytest.raises(ValidationError, match="finite interval"):
            DensitySpec.uniform(-1e308, 1e308)

    def test_non_numeric_params_are_validation_errors(self):
        with pytest.raises(ValidationError, match="reals"):
            density_from_json('{"family": "gaussian", "mu": "zero", "sigma": 1}')
        with pytest.raises(ValidationError, match="reals"):
            density_from_json('{"family": "exponential", "rate": [1]}')

    @given(
        st.one_of(
            st.builds(lambda a, b: ("uniform", {"a": a, "b": b}), st.floats(), st.floats()),
            st.builds(lambda m, s: ("gaussian", {"mu": m, "sigma": s}), st.floats(), st.floats()),
            st.builds(lambda r: ("exponential", {"rate": r}), st.floats()),
        )
    )
    def test_any_float_params_give_an_error_or_a_finite_entropy(self, family_params):
        family, params = family_params
        try:
            f = DensitySpec(family, params)
        except EntrokitError:
            return
        assert math.isfinite(differential_entropy(f).value)


class TestEntropyValue:
    def test_unit_from_k(self):
        assert EntropyValue(1.0, 1.0).unit is EntropyUnit.NATS
        assert EntropyValue(1.0, 1 / math.log(2)).unit is EntropyUnit.BITS
        assert EntropyValue(1.0, 2.0).unit is EntropyUnit.CUSTOM

    def test_unit_k_consistency_enforced(self):
        with pytest.raises(ValidationError):
            EntropyValue(1.0, 2.0, EntropyUnit.NATS)
        with pytest.raises(ValidationError):
            EntropyValue(1.0, 1.0, EntropyUnit.BITS)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            EntropyValue(value, 1.0)

    def test_json_shape(self):
        assert EntropyValue(0.25, 1.0).to_json_obj() == {
            "value": 0.25,
            "unit": "nats",
        }


class TestJsonInputs:
    def test_bare_array_accepted(self):
        d = discrete_from_json("[0.25, 0.75]")
        np.testing.assert_array_equal(d.probs, [0.25, 0.75])

    def test_probs_object_accepted(self):
        d = discrete_from_json('{"probs": [0.25, 0.75]}')
        np.testing.assert_array_equal(d.probs, [0.25, 0.75])

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            discrete_from_json("[0.5, 0.5")
        with pytest.raises(ValidationError):
            discrete_from_json('{"weights": [1, 1]}')
        with pytest.raises(ValidationError):
            binned_from_json('{"values": [0], "probs": [1.0]}')

    @given(distributions())
    def test_emit_parse_roundtrip(self, d):
        again = discrete_from_json(json.dumps(d.to_json_obj()))
        np.testing.assert_array_equal(again.probs, d.probs)


class TestCertifiedDecisions:
    """fsum_decides must reach fsum's decision on every row, including rows
    whose sum lies inside the np.sum error band, where it falls back."""

    @staticmethod
    def fsum_calls(monkeypatch):
        calls = []
        fsum = math.fsum

        def counted(xs):
            calls.append(1)
            return fsum(xs)

        monkeypatch.setattr(math, "fsum", counted)
        return calls

    def test_sums_inside_the_band_of_a_1e_9_threshold(self, monkeypatch):
        rng = np.random.default_rng(5)
        rows = []
        for j in range(-40, 41):
            x = rng.uniform(0.0, 2.0, 1000)
            x *= (1.0 + 1e-9 + j * 1e-15) / math.fsum(x.tolist())
            rows.append(x)
        flat, offsets = ragged(rows)
        expected = [abs(math.fsum(r.tolist()) - 1.0) <= 1e-9 for r in rows]
        assert any(expected) and not all(expected)
        calls = self.fsum_calls(monkeypatch)
        assert normalized_rows(flat, offsets, 1e-9).tolist() == expected
        assert calls  # the rows within about 2e-13 of the threshold fell back

    def test_heavy_cancellation(self, monkeypatch):
        rows = [
            np.array([1e16, 1.0, -1e16]),
            np.array([1e16, 1.0, -1e16, 1e-9]),
            np.array([1e16, 1.0 + 2e-9, -1e16]),
            np.array([1e300, -1e300, 1.0]),
            np.array([0.5, 0.25, 0.25]),
        ]
        flat, offsets = ragged(rows)
        expected = [abs(math.fsum(r.tolist()) - 1.0) <= 1e-9 for r in rows]
        calls = self.fsum_calls(monkeypatch)
        with sum_path(0):  # the np.sum pass, which this small block skips by default
            assert normalized_rows(flat, offsets, 1e-9).tolist() == expected
        assert len(calls) == 4  # every row but the last is too close to call

    @given(
        st.lists(
            st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=40),
            min_size=1,
            max_size=6,
        ),
        st.integers(-4, 4),
    )
    def test_threshold_at_the_exact_sum(self, rows, ulps):
        rows = [np.array(r) for r in rows]
        flat, offsets = ragged(rows)
        exact = np.array([math.fsum(r.tolist()) for r in rows])
        # thresholds a few ulps either side of each exact sum
        thr = exact + ulps * np.spacing(np.abs(exact))
        for elements in SUM_PATHS:
            with sum_path(elements):
                got = fsum_decides(flat, offsets, lambda t: t > thr, lambda t: t - 1.0 <= 1e-9)
            assert got.tolist() == ((exact > thr) & (exact - 1.0 <= 1e-9)).tolist()

    def test_per_row_tolerances(self):
        flat, offsets = ragged([np.array([0.5, 0.5 + 1e-8]), np.array([0.5, 0.5 + 1e-8])])
        assert normalized_rows(flat, offsets, np.array([1e-9, 1e-7])).tolist() == [False, True]
