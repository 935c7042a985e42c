"""Each invariant has one decision site: a carrier of one row decides as a
block decides, and both decide as math.fsum does.

The oracles here are written out from math.fsum, independently of the
block kernels: the carriers' checks and the entropy sums as they stood
before the carriers became one-row blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrokit import (
    BinnedVariable,
    DensitySpec,
    DiscreteDistribution,
    DiscretizedShellDensity,
    EntropyUnit,
    InvalidDensity,
    NegativeProbability,
    NotNormalized,
    LogAffineFit,
    PhiFunction,
    PhiPrimeSamples,
    QuantizationResult,
    ShellSpec,
    ValidationError,
    boltzmann_entropy,
    compare_entropy_forms,
    convergence_sweep,
    differential_entropy,
    discrete_from_json,
    maxent_shell_check,
    modified_differential_entropy,
    quantize_density,
    reconstruct_phi,
    renormalize,
    sackur_tetrode_entropy,
    shannon_entropy,
    shell_entropy,
    total_entropy,
)
from entrokit.distributions import (
    BITS_K,
    EntropyValue,
    binned_from_json,
    density_from_json,
    probs_from_json,
    unit_to_k,
    normalized_rows,
)
from entrokit.entropy import entropy_rows
from entrokit.statmech import SHELL_TOLERANCE

from conftest import ragged

TOLERANCES = st.sampled_from([1e-12, 1e-9, 1e-6, 0.25])


@st.composite
def near_boundary(draw, weights_max=8):
    """Positive weights scaled to sum to 1 + tol, 1 - tol or 1, then the
    last one moved a few ulps, so the exact sum lands on either side of a
    tolerance boundary; sometimes one entry made negative or non-finite."""
    n = draw(st.integers(1, weights_max))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    tol = draw(TOLERANCES)
    target = 1.0 + draw(st.sampled_from([-1.0, 0.0, 1.0])) * tol
    x = raw / math.fsum(raw.tolist()) * target
    x[-1] += draw(st.integers(-4, 4)) * np.spacing(x[-1])
    spoil = draw(st.sampled_from([None, None, None, -1e-3, -0.5, math.nan, math.inf]))
    if spoil is not None:
        x[draw(st.integers(0, n - 1))] = spoil
    return x, tol


def carrier_outcome(make):
    try:
        make()
    except ValidationError as e:
        return type(e), str(e)
    return None


def expected_probability_outcome(p, tol):
    """The DiscreteDistribution checks written out with math.fsum."""
    if not np.all(np.isfinite(p)):
        return ValidationError, "probs must be finite everywhere"
    if np.any(p < 0):
        return NegativeProbability, f"negative probability entry {float(p.min())}"
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > tol:
        return NotNormalized, (
            f"probabilities sum to {total}, off by {total - 1.0:+.3e} (tolerance {tol:.1e})"
        )
    return None


@given(near_boundary())
@settings(max_examples=400)
@example((np.array([1.0]), 1e-9))
@example((np.full(3, 1 / 3), 1e-9))
@example((np.array([0.7, 0.5]), 1e-9))
@example((np.array([-0.5, 1.5]), 1e-9))
@example((np.array([np.nan, 1.0]), 1e-9))
def test_discrete_distribution_decides_as_fsum(case):
    p, tol = case
    got = carrier_outcome(lambda: DiscreteDistribution(p, tolerance=tol))
    assert got == expected_probability_outcome(p, tol)


@given(near_boundary(), st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_shell_density_decides_as_fsum(case, seed):
    wf, _ = case
    w = np.random.default_rng(seed).uniform(0.5, 2.0, wf.size)
    f = wf / w
    if not np.all(np.isfinite(f)):
        expected = ValidationError, "densities must be finite everywhere"
    elif np.any(f < 0):
        expected = InvalidDensity, "densities must be nonnegative"
    else:
        total = math.fsum((w * f).tolist())
        expected = None
        if abs(total - 1.0) > SHELL_TOLERANCE:
            expected = InvalidDensity, f"sum(w_i f_i) = {total}, off by {total - 1.0:+.3e}"
    assert carrier_outcome(lambda: DiscretizedShellDensity(w, f)) == expected


@given(near_boundary(), st.sampled_from([1.0, BITS_K, 2.5, 1e-3]))
def test_shannon_entropy_is_k_times_the_fsum_of_its_terms(case, k):
    p, _ = case
    p = np.abs(np.nan_to_num(p, nan=1.0, posinf=1.0))
    d = DiscreteDistribution(p / math.fsum(p.tolist()), tolerance=0.5)
    pos = d.probs[d.probs > 0]
    expected = k * math.fsum((-pos * np.log(pos)).tolist())
    assert shannon_entropy(d, k).value == expected


@given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.01, 100.0),
       st.sampled_from([1.0, BITS_K, 2.5]))
def test_shell_entropy_is_k_times_the_fsum_of_its_terms(m, seed, C, k):
    # the total entropy of the cell masses p = w f at widths h = w / C, with
    # ln h formed from the mantissas and exponents of w and C
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, m)
    raw = rng.exponential(size=m) * (rng.random(m) < 0.8)  # some empty cells
    raw[0] += 1.0
    d = DiscretizedShellDensity(w, raw / math.fsum((w * raw).tolist()))
    p = w * d.densities
    mask = p > 0
    (mw, ew), (mc, ec) = np.frexp(w), math.frexp(C)
    log_h = np.log(mw / mc) + (ew - ec) * math.log(2.0)
    expected = k * math.fsum((-p[mask] * (np.log(p[mask]) - log_h[mask])).tolist())
    assert shell_entropy(d, C, k).value == expected


@given(st.lists(near_boundary(), min_size=1, max_size=6))
@settings(max_examples=200)
def test_one_row_and_a_block_decide_alike(cases):
    tols = np.array([tol for _, tol in cases])
    clean = [np.nan_to_num(np.abs(p), posinf=1.0) for p, _ in cases]
    flat, offsets = ragged(clean)
    assert normalized_rows(flat, offsets, tols).tolist() == [
        bool(normalized_rows(p, np.array([0, p.size]), t)[0]) for p, t in zip(clean, tols)
    ]
    assert entropy_rows(flat, offsets) == [entropy_rows(p, np.array([0, p.size]))[0]
                                           for p in clean]


def test_quantization_result_rejects_a_non_finite_deficit():
    binned = quantize_density(DensitySpec.uniform(0.0, 1.0), 0.25).binned
    assert QuantizationResult(binned, 0.25, 0.0).mass_deficit == 0.0
    for deficit in (math.nan, 0.5):
        with pytest.raises(ValidationError, match="bin masses plus deficit sum to"):
            QuantizationResult(binned, 0.25, deficit)


# -- k and its unit ---------------------------------------------------------------

COIN = DiscreteDistribution([0.5, 0.5])
GAS = ShellSpec(E=1.0, dE=0.01, V=1.0, N=1)
GAUSSIAN = DensitySpec.gaussian(0.0, 1.0)
ENTROPY_VALUES = {
    "shannon_entropy": lambda k: shannon_entropy(COIN, k),
    "total_entropy": lambda k: total_entropy(BinnedVariable([0, 1], COIN, [1, 2]), k),
    "differential_entropy": lambda k: differential_entropy(GAUSSIAN, k),
    "modified_differential_entropy": lambda k: modified_differential_entropy(GAUSSIAN, 0.5, k),
    "boltzmann_entropy": lambda k: boltzmann_entropy(GAS, k),
    "sackur_tetrode_entropy": lambda k: sackur_tetrode_entropy(GAS, k),
    "shell_entropy": lambda k: shell_entropy(DiscretizedShellDensity.uniform([1.0, 2.0]), 0.5, k),
}


@pytest.mark.parametrize("k", [0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", ENTROPY_VALUES.values(), ids=ENTROPY_VALUES.keys())
def test_entropy_value_owns_the_check_of_k(fn, k):
    with pytest.raises(ValidationError, match=f"^k must be a positive finite real, got {k}$"):
        fn(k)


@pytest.mark.parametrize("fn", ENTROPY_VALUES.values(), ids=ENTROPY_VALUES.keys())
def test_the_unit_is_read_off_k(fn):
    assert fn(1.0).unit is EntropyUnit.NATS
    assert fn(BITS_K).unit is EntropyUnit.BITS
    assert fn(3.0).unit is EntropyUnit.CUSTOM
    assert fn(3.0).value == 3.0 * fn(1.0).value


def test_a_unit_passed_in_must_be_the_one_k_gives():
    v = shannon_entropy(COIN, BITS_K)
    # the planted-error form of bench/tests: a wrong value with its own k and unit
    wrong = type(v)(value=v.value + 1e-6, k=v.k, unit=v.unit)
    assert (wrong.value, wrong.k, wrong.unit) == (v.value + 1e-6, BITS_K, EntropyUnit.BITS)
    assert EntropyValue(1.0, 1.0, "nats").unit is EntropyUnit.NATS
    for k, unit in [(1.0, EntropyUnit.CUSTOM), (2.0, EntropyUnit.NATS), (1.0, EntropyUnit.BITS)]:
        with pytest.raises(ValidationError, match=f"gives .*, not {unit}"):
            EntropyValue(1.0, k, unit)


# -- the shell row check ----------------------------------------------------------


def test_a_negative_density_is_refused_where_its_weight_rounds_it_to_zero():
    w, f = np.array([1.0, 1e-300]), np.array([1.0, -1e-300])
    assert (w * f)[1] == 0.0  # -0.0, which a sign test on w*f would pass
    with pytest.raises(InvalidDensity, match="^densities must be nonnegative$"):
        DiscretizedShellDensity(w, f)


# -- the wire takes real numbers ----------------------------------------------------


def test_library_callers_may_pass_numpy_reals_and_tuples():
    half = np.float64(0.5)
    assert probs_from_json([half, 0.5]) == [half, 0.5]
    for values in ((0, 1), np.array([0, 1]), [np.int64(0), np.float64(1)]):
        bv = binned_from_json({"values": values, "probs": (half, half), "widths": np.ones(2)})
        assert bv.values.tolist() == [0.0, 1.0] and bv.probs.tolist() == [0.5, 0.5]
    f = density_from_json({"family": "gaussian", "mu": np.float64(0), "sigma": np.int64(1)})
    assert f == DensitySpec.gaussian(0.0, 1.0)


@pytest.mark.parametrize("probs", [
    [True, False],
    [np.bool_(True), 0.0],
    ["0.5", "0.5"],
    [0.5, None],
    [[0.5, 0.5]],
    np.array([True, False]),
    np.array(["0.5", "0.5"]),
    np.array([0.5, 0.5], dtype=object),
])
def test_bools_strings_and_non_reals_are_refused(probs):
    with pytest.raises(ValidationError, match="must be reals"):
        binned_from_json({"values": [0, 1], "probs": probs, "widths": [1, 1]})


# -- one validator per kind of outside value -----------------------------------------

HALVES = quantize_density(DensitySpec.uniform(0.0, 1.0), 0.5).binned
REFUSED = {
    # vectors: float_vector
    "probs-numeric-strings": lambda: DiscreteDistribution(["0.5", "0.5"]),
    "probs-bool": lambda: DiscreteDistribution([True]),
    "probs-letter": lambda: DiscreteDistribution(["a"]),
    "probs-ragged": lambda: DiscreteDistribution([[0.5], [0.5, 0.5]]),
    "probs-dict": lambda: DiscreteDistribution({"a": 1}),
    "cells-ragged": lambda: DiscretizedShellDensity.uniform([[1], [1, 2]]),
    "renormalize-letter": lambda: renormalize(["x"]),
    # scalars: check_real and check_positive
    "density-bool-and-string": lambda: DensitySpec("gaussian", {"mu": True, "sigma": "1"}),
    "density-support-string": lambda: DensitySpec("uniform", {"a": 0, "b": 1}, ("0", 1)),
    "shannon-k-bool": lambda: shannon_entropy(COIN, k=True),
    "shannon-k-string": lambda: shannon_entropy(COIN, k="2"),
    "quantize-h-string": lambda: quantize_density(GAUSSIAN, "0.5"),
    "shell-E-string": lambda: ShellSpec(E="1", dE=0.01, V=1.0, N=1),
    "entropy-value-string": lambda: EntropyValue("1", 1.0),
    "log-affine-fit-string": lambda: LogAffineFit(A="x", B=0.0, residual=0.0),
    "phi-zero-value-string": lambda: PhiFunction(lambda p: p, "x", "0"),
    "deficit-string": lambda: QuantizationResult(HALVES, 0.5, "0"),
    "samples-string": lambda: PhiPrimeSamples((("0.1", 1.0), (0.2, 1.0), (0.3, 1.0))),
    "boundary-log-width-string": lambda: reconstruct_phi(LogAffineFit(-1.0, 0.0, 0.0), "0"),
    "ln-omega-string": lambda: compare_entropy_forms("1", 1.0, 1),
    "trials-bool": lambda: maxent_shell_check(DiscretizedShellDensity.uniform([1.0]), 1.0,
                                               trials=True),
    # k and the unit, checked before they are used
    "differential-k-string": lambda: differential_entropy(GAUSSIAN, "2"),
    "modified-k-string": lambda: modified_differential_entropy(GAUSSIAN, 0.5, "2"),
    "sackur-tetrode-k-string": lambda: sackur_tetrode_entropy(GAS, "1"),
    "boltzmann-k-bool": lambda: boltzmann_entropy(GAS, True),
    "unit-unknown": lambda: unit_to_k("foo"),
    "entropy-value-unit-unknown": lambda: EntropyValue(1.0, 1.0, "foo"),
    # wire objects: check_keys
    "probs-extra-key": lambda: discrete_from_json({"probs": [0.5, 0.5], "x": 1}),
    "binned-extra-key": lambda: binned_from_json(
        {"values": [0, 1], "probs": [0.5, 0.5], "widths": [1, 2], "x": 1}),
    "density-params-not-a-dict": lambda: DensitySpec("exponential", [("rate", 1.0)]),
    # containers: check_sequence
    "density-support-of-three": lambda: DensitySpec("uniform", {"a": 0, "b": 1}, (0, 1, 2)),
    "samples-not-pairs": lambda: PhiPrimeSamples([0.1, 0.2, 0.3]),
    "sweep-widths-none": lambda: convergence_sweep(GAUSSIAN, None),
}


@pytest.mark.parametrize("make", REFUSED.values(), ids=REFUSED.keys())
def test_junk_from_a_caller_is_a_validation_error(make):
    with pytest.raises(ValidationError):
        make()


ACCEPTED = {
    "tuple": (0.5, 0.5),
    "float32-array": np.array([0.5, 0.5], dtype=np.float32),
    "list-of-numpy-floats": [np.float64(0.5), np.float32(0.5)],
}


@pytest.mark.parametrize("probs", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_reals_in_a_tuple_or_of_numpy_types_are_accepted(probs):
    d = DiscreteDistribution(probs)
    assert d.probs.dtype == np.float64 and d.probs.tolist() == [0.5, 0.5]
    assert d.probs is not probs


def test_checked_scalars_come_back_as_python_floats():
    value = shannon_entropy(COIN, np.float32(2.0))
    assert type(value.k) is float and type(value.value) is float
    fit = LogAffineFit(np.float32(-1.0), np.int64(0), np.float64(0.0))
    assert {type(x) for x in (fit.A, fit.B, fit.residual)} == {float}
    assert type(PhiFunction(lambda p: p, "x", np.float32(0.0)).zero_value) is float
    assert math.isnan(PhiFunction(lambda p: p, "x").zero_value)  # nan: undeclared
