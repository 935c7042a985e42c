"""Validated probability carriers shared by every other module.

All types are frozen dataclasses validated on construction and immutable
afterwards; operations are pure functions, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .errors import (
    NegativeProbability,
    NotNormalized,
    UnboundedSupport,
    ValidationError,
)

DEFAULT_TOLERANCE = 1e-9

# Quantile mass dropped per truncated tail of an infinite support.  Small
# enough that the residual mass never disturbs 1e-12-level identities built
# on quantized distributions.
TRUNCATION_EPS = 1e-13
# -NormalDist().inv_cdf(TRUNCATION_EPS / 2): the gaussian's truncated support
# is mu -/+ this many sigma
GAUSSIAN_HALF_WIDTH = 7.440902150642369

# Most elements one batch block of ragged rows holds (a single larger row
# makes a block of its own).  Each block pays a fixed set of numpy calls, so
# larger blocks pay them less often; the block's arrays set the memory peak.
# At 16,384 a default axiom suite and a 4,096-cell max-entropy check peak
# near 1.4 and 0.8 MiB under tracemalloc, within their 2 MiB test ceiling;
# at 65,536 they peak near 4.4 and 2.6 MiB.
BLOCK_ELEMENTS = 16384
# Most elements of a block that segment_fsums and fsum_decides sum by fsum row
# by row, which beats their numpy calls below about 1,000 (500 for decisions).
FSUM_ELEMENTS = 256

# Most elements one row may hold: the bins of one grid, the joint
# distribution of one suite pair (32 MiB per float array).  Checked before
# anything of that size is allocated.
MAX_ROW = 2**22

UNIT_ROUNDOFF = 2.0**-53

LN2 = math.log(2.0)
BITS_K = 1.0 / LN2
SQRT2 = math.sqrt(2.0)
HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# erf(t) = t + t P(t^2) for |t| < ERF_NEAR, erfc(x) = exp(-x^2) R((x - 3)/(x + 3))
# up to ERFC_FAR and exp(-x^2) Q(1/x^2) / x from there, fitted by
# scripts/erf_fit.py; erfc rounds to 0 from x = 27.2, so larger x reads ERFC_ZERO
ERF_NEAR, ERFC_FAR, ERFC_ZERO = 0.75, 6.0, 27.5
ERF_NEAR_P = (
    1.1472499701094691e-08, -1.5940066854661717e-07, 1.643068417974155e-06,
    -1.4924196305569617e-05, 0.00012055289567541706, -0.0008548326188759752, 0.005223977615420539,
    -0.026866170644428485, 0.11283791670952596, -0.37612638903183715, 0.1283791670955126,
)
ERFC_MID_R = (
    -1.6765221805840914e-07, -2.1476388667435354e-07, 1.25808120149777e-06, 2.0943042836658166e-06,
    -7.98615711227755e-06, -1.285727508287555e-05, 6.405813402781729e-05, 4.525512796022144e-05,
    -0.0005970620880930369, 0.0007077464410175722, 0.004269136339094823, -0.024392499318562477,
    0.07166583719784277, -0.15011593650078014, 0.245603801712332, -0.3262335600430372,
    0.17900115118138996,
)
ERFC_FAR_Q = (
    92075.12002292661, -25006.23066866484, 4054.3906595796225, -586.9115191209945,
    91.51417736327535, -16.660096988181703, 3.7024876063761933, -1.0578554468499726,
    0.4231421876215437, -0.28209479177385105, 0.5641895835477563,
)


# the types of a real a caller hands in, alone or in a list or tuple; bool
# is an int, and is refused by name wherever these are tested
REAL_TYPES = (int, float, np.integer, np.floating)


def check_real(x, name: str, error: type[ValidationError] = ValidationError) -> float:
    """The one check for every scalar a caller hands in: a finite int or
    float, Python or numpy, never a bool or a string, as a Python float."""
    if isinstance(x, bool) or not isinstance(x, REAL_TYPES):
        raise error(f"{name} takes reals: ints and floats, never bools or strings; got {x!r:.40}")
    try:
        v = float(x)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise error(f"{name} must be finite, got {x!r:.40}")
    return v


def check_positive(x, name: str, error: type[ValidationError] = ValidationError) -> float:
    """The one check for every width, scale and unit constant: a positive check_real."""
    if isinstance(x, bool) or not (isinstance(x, REAL_TYPES) and 0 < x < math.inf):
        raise error(f"{name} must be a positive finite real, got {x!r:.40}")
    return check_real(x, name, error)


def check_count(x, name: str, least: int, most: float | None = None) -> int:
    """The one check for every count: an integer, never a bool, no smaller
    than `least` and, when `most` is given, no larger than it."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) and x >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {x!r}")
    if most is not None and x > most:
        raise ValidationError(f"{name} must be an integer <= {most}, got {x!r}")
    return int(x)


def check_keys(obj, keys: tuple[str, ...], what: str) -> None:
    """The one check of a wire object: a dict holding exactly `keys`."""
    if not (isinstance(obj, dict) and obj.keys() == set(keys)):
        got = tuple(obj) if isinstance(obj, dict) else obj
        raise ValidationError(f"{what} must hold exactly the keys {keys}, got {got!r:.80}")


def check_sequence(x, name: str, length: int | None = None):
    """The one check of a container whose entries are checked one by one: a
    list, tuple or array, holding `length` entries when that is given."""
    if isinstance(x, (list, tuple)) or (isinstance(x, np.ndarray) and x.ndim > 0):
        if length is None or len(x) == length:
            return x
    size = "" if length is None else f" of {length} entries"
    raise ValidationError(f"{name} must be a list, tuple or array{size}, got {x!r:.60}")


def float_vector(x, name: str) -> np.ndarray:
    """The one check for every stored vector: a list, tuple or numpy array
    of check_real's types, non-empty, 1-D and finite, as a fresh array."""
    if isinstance(x, np.ndarray):
        reals = x.dtype.kind in "iuf"
    else:
        types = set(map(type, x)) if isinstance(x, (list, tuple)) else {type(x)}
        reals = all(issubclass(t, REAL_TYPES) and not issubclass(t, bool) for t in types)
    if not reals:
        raise ValidationError(f"{name} must be reals in a list, tuple or array, never bools "
                              f"or strings; got {x!r:.60}")
    # always a fresh array: carriers freeze their storage, which must never
    # reach back into caller-owned buffers
    try:
        arr = np.array(x, dtype=float, copy=True)
    except OverflowError:
        raise ValidationError(f"{name} holds an integer beyond the float range") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite everywhere")
    return arr


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability vector (p_1..p_n), validated but never repaired.

    Zero entries are legal and retained so index alignment with values and
    widths survives downstream.
    """

    probs: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        probs = float_vector(self.probs, "probs")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        tol = check_real(self.tolerance, "tolerance")
        if not 0 < tol < 1:
            raise ValidationError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if probability_rows_ok(probs, np.array([0, probs.size]), tol)[0]:
            return
        if np.any(probs < 0):
            raise NegativeProbability(f"negative probability entry {float(probs.min())}")
        try:
            total = row_fsum(probs)
        except OverflowError:
            raise NotNormalized(
                f"probabilities sum beyond the float range (tolerance {tol:.1e})"
            ) from None
        raise NotNormalized(
            f"probabilities sum to {total}, off by {total - 1.0:+.3e} (tolerance {tol:.1e})"
        )

    @property
    def n(self) -> int:
        return int(self.probs.size)

    def to_json_obj(self) -> dict[str, list[float]]:
        return {"probs": [float(p) for p in self.probs]}


@dataclass(frozen=True)
class BinnedVariable:
    """Discrete variable with observation intervals: values x_i, masses p_i,
    interval widths h_i."""

    values: np.ndarray
    dist: DiscreteDistribution
    widths: np.ndarray

    def __post_init__(self) -> None:
        values = float_vector(self.values, "values")
        widths = float_vector(self.widths, "widths")
        n = self.dist.n
        if values.size != n or widths.size != n:
            raise ValidationError(
                f"length mismatch: {values.size} values, {n} probs, {widths.size} widths"
            )
        if np.any(widths <= 0):
            raise ValidationError("all widths must be > 0")
        if np.any(values[1:] <= values[:-1]):
            raise ValidationError("values must be strictly increasing")
        values.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "widths", widths)

    @property
    def probs(self) -> np.ndarray:
        return self.dist.probs

    def to_json_obj(self) -> dict[str, list[float]]:
        return {
            "values": [float(x) for x in self.values],
            "probs": [float(p) for p in self.dist.probs],
            "widths": [float(h) for h in self.widths],
        }


class DensityFamily(str, Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"


# the parameters of each family, in the order its constructor takes them
FAMILY_PARAMETERS = {"uniform": ("a", "b"), "gaussian": ("mu", "sigma"), "exponential": ("rate",)}


@dataclass(frozen=True)
class DensitySpec:
    """Continuous density from a named parametric family with an explicit
    (possibly truncated) support interval.

    Infinite tails are cut at the TRUNCATION_EPS quantile range, so the
    retained mass is always >= 1 - 1e-9 as required of a valid spec.
    """

    family: DensityFamily
    params: dict[str, float]
    support: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        try:
            family = DensityFamily(self.family)
        except ValueError:
            raise ValidationError(
                f"unknown density family {self.family!r}; expected one of "
                f"{[f.value for f in DensityFamily]}"
            ) from None
        object.__setattr__(self, "family", family)
        check_keys(self.params, FAMILY_PARAMETERS[family.value], f"{family.value} parameters")
        params = {k: check_real(v, f"parameter {k}") for k, v in self.params.items()}
        object.__setattr__(self, "params", params)
        # the implied support is checked even when a declared one replaces it:
        # a mean so large that the truncated support collapses is refused there
        supports = [("implied", self._natural_support(family, params))]
        if self.support is not None:
            declared = check_sequence(self.support, "support", 2)
            supports.append(("declared", tuple(check_real(x, "support") for x in declared)))
        for what, (lo, hi) in supports:
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValidationError(
                    f"{what} support of {family.value} {params} must be a finite "
                    f"interval lo < hi, got ({lo}, {hi})"
                )
        object.__setattr__(self, "support", supports[-1][1])
        captured = float(self.bin_masses(np.array(self.support))[0])
        if captured < 1.0 - 1e-9:
            raise UnboundedSupport(
                f"declared support holds mass {captured}, below 1 - 1e-9"
            )

    @staticmethod
    def _natural_support(family: DensityFamily, params: dict[str, float]) -> tuple[float, float]:
        if family is DensityFamily.UNIFORM:
            return params["a"], params["b"]
        if family is DensityFamily.GAUSSIAN:
            mu, sigma = params["mu"], check_positive(params["sigma"], "sigma")
            half = GAUSSIAN_HALF_WIDTH * sigma
            return mu - half, mu + half
        return 0.0, -math.log(TRUNCATION_EPS / 2.0) / check_positive(params["rate"], "rate")

    # -- pointwise evaluation --------------------------------------------

    def pdf(self, x: float) -> float:
        """Density at x; zero outside the family's natural support."""
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            return 1.0 / (b - a) if a <= x <= b else 0.0
        if self.family is DensityFamily.GAUSSIAN:
            mu, sigma = self.params["mu"], self.params["sigma"]
            z = (x - mu) / sigma
            return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
        rate = self.params["rate"]
        return rate * math.exp(-rate * x) if x >= 0.0 else 0.0

    def cdf(self, x: float) -> float:
        """Mass of (-inf, x]."""
        return float(self.bin_masses(np.array([-math.inf, x]))[0])

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Closed-form mass of every bin between consecutive increasing
        edges: the one mass formula, behind cdf, the captured-mass check and
        entropy_integral.  Each tail is differenced on its own small side
        (erfc of |t| beyond a gaussian's central band |t| < ERF_NEAR, the
        survival function for the exponential), so tail bins keep full
        relative precision instead of cancelling against 1, and bins within
        the band difference erf, where no value near 1 cancels either."""
        edges = np.asarray(edges, dtype=float)
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            return np.diff(np.clip(edges, a, b)) / (b - a)
        if self.family is DensityFamily.GAUSSIAN:
            mu, sigma = self.params["mu"], self.params["sigma"]
            t = edges - mu
            with np.errstate(over="ignore"):  # a tiny sigma: t is +-inf, erfc's limit
                t /= sigma * SQRT2
            # 2 P(X < x) - 1 = erf(t) = d + s, differenced apart
            d, s = erf_split(t)
            m = np.subtract(d[1:], d[:-1], out=t[:-1])
            m += s[1:] - s[:-1]  # 0 but where a bin leaves the band or a tail
            m *= 0.5
            return m
        rate = self.params["rate"]
        x = np.maximum(edges, 0.0)
        with np.errstate(over="ignore"):  # a huge rate x: -inf, the limit exp reads
            return np.exp(-rate * x[:-1]) * -np.expm1(-rate * np.diff(x))

    def entropy_integral(self) -> tuple[float, float]:
        """Closed form of -integral f ln f over the support, together with
        the mass M the support captures (1 up to the truncated tails)."""
        lo, hi = self.support
        m = float(self.bin_masses(np.array([lo, hi]))[0])
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            return m * math.log(b - a), m
        if self.family is DensityFamily.GAUSSIAN:
            # -ln f = ln sigma + ln sqrt(2 pi) + z^2/2, and the integral of
            # z^2 phi(z) over [za, zb] is M - [z phi(z)] from za to zb
            mu, sigma = self.params["mu"], self.params["sigma"]
            za, zb = (lo - mu) / sigma, (hi - mu) / sigma
            zphi = [z * math.exp(-0.5 * z * z - HALF_LN_2PI) for z in (za, zb)]
            return m * (math.log(sigma) + HALF_LN_2PI) + 0.5 * (m - (zphi[1] - zphi[0])), m
        # -ln f = -ln r + u with u = r x, and the integral of u e^-u over
        # [ua, ub] is (ua + 1) e^-ua - (ub + 1) e^-ub
        rate = self.params["rate"]
        ua, ub = rate * max(lo, 0.0), rate * hi
        return -m * math.log(rate) + (ua + 1.0) * math.exp(-ua) - (ub + 1.0) * math.exp(-ub), m

    def discontinuities(self) -> tuple[float, ...]:
        """Points where the density jumps (natural support edges with
        positive density); the quantizer anchors its grid at the first
        one."""
        if self.family is DensityFamily.UNIFORM:
            return (self.params["a"], self.params["b"])
        if self.family is DensityFamily.EXPONENTIAL:
            return (0.0,)
        return ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, a: float, b: float) -> "DensitySpec":
        return cls(DensityFamily.UNIFORM, {"a": a, "b": b})

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "DensitySpec":
        return cls(DensityFamily.GAUSSIAN, {"mu": mu, "sigma": sigma})

    @classmethod
    def exponential(cls, rate: float) -> "DensitySpec":
        return cls(DensityFamily.EXPONENTIAL, {"rate": rate})


# erf_split's pieces take an array, which they overwrite (every block-sized
# temporary costs page faults), or a float, and give the same bits either way
def _horner(coeffs, s):
    p = s * coeffs[0]
    for c in coeffs[1:-1]:
        p += c
        p *= s
    p += coeffs[-1]
    return p


def _times_exp_neg_square(r, x):
    """r exp(-x^2) for x >= 0: x^2 = a^2 + b with a the top 26 bits of x
    (Veltkamp's split), so a^2 is exact, and b = (x - a)(x + a) is at most
    2^-25 x^2, so exp(-b) = 1 - c with c = b (1 - b (1/2 - b/6))."""
    a = x * -134217729.0  # -(2^27 + 1)
    a -= a + x  # -a
    b = x + a
    x -= a
    b *= x
    c = b * (1.0 / 6.0)
    c -= 0.5
    c *= b
    c += 1.0
    c *= b
    c *= r
    r -= c
    a *= a
    a *= -1.0
    r *= np.exp(a, out=a) if isinstance(a, np.ndarray) else np.exp(a)
    return r


def _erf_near(x):
    p = _horner(ERF_NEAR_P, x * x)
    p *= x
    p += x
    return p


def _erfc_mid(x):
    z = x - 3.0
    z /= x + 3.0
    return _times_exp_neg_square(_horner(ERFC_MID_R, z), x)


def _erfc_far(x):
    w = 1.0 / x
    r = _horner(ERFC_FAR_Q, w * w)
    r *= w
    return _times_exp_neg_square(r, x)


def erf_split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, s) with erf(t) = d + s: the int8 s is sign(t) from |t| = ERF_NEAR
    out and 0 within, so d is erf near 0 and, beyond, -sign(t) erfc(|t|),
    the tail on its own small side.  Each piece is evaluated only at its own
    points; a few points go one by one as floats, cheaper than numpy calls,
    with the same bits.  NaN stays NaN."""
    pieces = (_erf_near, _erfc_mid, _erfc_far)
    if t.size <= 4:
        d, s = [], []
        for w in t.tolist():
            x = min(abs(w), ERFC_ZERO)
            i = (x >= ERF_NEAR) + (x >= ERFC_FAR) + (x != x)  # NaN is not near
            d.append(math.copysign(pieces[i](x), -w if i else w))
            s.append((w >= ERF_NEAR) - (w <= -ERF_NEAR))
        return np.array(d), np.array(s, dtype=np.int8)
    s = np.subtract((t >= ERF_NEAR).view(np.int8), (t <= -ERF_NEAR).view(np.int8))
    x = np.abs(t)
    np.minimum(x, ERFC_ZERO, out=x)
    near, mid = x < ERF_NEAR, x < ERFC_FAR
    for piece, at in zip(pieces, (near, near ^ mid, ~mid)):
        if at.any():
            x[at] = piece(x[at])  # x becomes erf near 0 and erfc beyond
    np.copysign(x, t, out=x)
    np.negative(x, out=x, where=~near)
    return x, s


class EntropyUnit(str, Enum):
    NATS = "nats"
    BITS = "bits"
    CUSTOM = "custom"


@dataclass(frozen=True)
class EntropyValue:
    """An entropy together with the unit constant k that produced it.  The
    one check of k is here, and the unit is read off k: nats for k = 1,
    bits for k = 1/ln 2, custom otherwise.  A unit may be passed too, but
    only the one k gives."""

    value: float
    k: float
    unit: EntropyUnit | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_positive(self.k, "k"))
        object.__setattr__(self, "value", check_real(self.value, "entropy value"))
        if self.k == 1.0:
            unit = EntropyUnit.NATS
        elif abs(self.k - BITS_K) <= 1e-12:
            unit = EntropyUnit.BITS
        else:
            unit = EntropyUnit.CUSTOM
        if self.unit is not None and self.unit != unit:
            raise ValidationError(f"k = {self.k} gives {unit.value}, not {self.unit}")
        object.__setattr__(self, "unit", unit)

    @classmethod
    def of(cls, nats: float, k: float) -> "EntropyValue":
        """k * S from S in nats: every kernel sums in nats and k, the unit that
        section 2 leaves free, is applied here once.  Refuses k * S past the float range."""
        k = check_positive(k, "k")
        return cls(k * nats, k)

    def to_json_obj(self) -> dict[str, Any]:
        return {"value": self.value, "unit": self.unit.value}


def unit_to_k(unit: str) -> float:
    if unit == EntropyUnit.NATS:
        return 1.0
    if unit == EntropyUnit.BITS:
        return BITS_K
    raise ValidationError(f"unit {unit!r:.40} has no preset k: pass an explicit k")


# -- operations ---------------------------------------------------------------


def validate_distribution(
    probs, tolerance: float = DEFAULT_TOLERANCE
) -> DiscreteDistribution:
    """Check a probability vector and wrap it; never renormalizes.

    Raises NegativeProbability or NotNormalized on bad input.  Rescaling is
    the caller's explicit decision (see `renormalize`).
    """
    return DiscreteDistribution(probs, tolerance=tolerance)


def renormalize(probs, tolerance: float = DEFAULT_TOLERANCE) -> DiscreteDistribution:
    """Explicitly rescale nonnegative weights by their sum."""
    arr = float_vector(probs, "probs")
    if np.any(arr < 0):
        raise NegativeProbability(f"negative probability entry {float(arr.min())}")
    try:
        total = row_fsum(arr)
    except OverflowError:
        arr = _scaled_down(arr)[0]
        total = row_fsum(arr)
    if total <= 0:
        raise NotNormalized("cannot renormalize: total mass is zero")
    return DiscreteDistribution(arr / total, tolerance=tolerance)


def product_distribution(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> DiscreteDistribution:
    """Joint distribution of two independent experiments.

    Entries are p_j * q_a in row-major order (j outer, a inner); there
    are at most MAX_ROW of them.  Its tolerance is the factors' scaled by
    n + m, to absorb accumulated rounding, and capped at 0.5.
    """
    check_count(p.n * q.n, "p.n * q.n", 1, MAX_ROW)
    joint = np.outer(p.probs, q.probs).ravel()
    tol = min(max(p.tolerance, q.tolerance) * (p.n + q.n), 0.5)
    return DiscreteDistribution(joint, tolerance=tol)


# -- ragged row blocks ---------------------------------------------------------
#
# A block is one flat array holding rows end to end, with row i at
# flat[offsets[i]:offsets[i + 1]].  No row is empty: np.add.reduceat would
# read an empty row as the element at its offset.  Values that reach a
# report are exact row sums, math.fsum's bits, from segment_fsums;
# pass/fail decisions come from fsum_decides.  Both follow one rule: a few
# numpy passes over the whole block give each row an interval that holds
# its exact sum, the answer is taken at both ends, and only a row whose
# ends disagree is summed again by fsum.  An exact sum's ends are its
# error-free part plus its residual's np.sum, plus and minus that sum's
# band; a decision's ends are one cheaper np.sum plus and minus its band.

# The certified sum leaves to fsum a row whose extraction constant
# 2^(ceil log2(n + 2)) * 2^e (max|x| < 2^e) would pass 2^EXTRACT_MAX_EXP, so
# that nothing it forms can overflow, and a row whose sum is below
# 2^EXTRACT_MIN_EXP in size, so that its error band is far above the
# underflow threshold.
EXTRACT_MAX_EXP = 1020
EXTRACT_MIN_EXP = -960


def offsets_of(sizes) -> np.ndarray:
    """The offsets of a block of rows of the given sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def row_blocks(sizes):
    """(a, b) for each block of consecutive rows a to b - 1 of the given
    sizes: the blocks hold at most BLOCK_ELEMENTS elements, unless one row
    alone holds more."""
    ends = offsets_of(sizes)
    a = 0
    while a < len(sizes):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + BLOCK_ELEMENTS, "right")) - 1)
        yield a, b
        a = b


def _sum_error_bound(n: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Bound on |np.sum(row) - sum(row)| for rows of n elements with
    sum|x_i| = size, in whatever order np.sum adds: g * size with
    g = 2nu / (1 - 2nu) and u = 2^-53 (Higham, Accuracy and Stability,
    section 4; g is twice the constant needed, which covers the rounding
    of the bound itself)."""
    nu = n * UNIT_ROUNDOFF
    return 2.0 * nu / (1.0 - 2.0 * nu) * size


def _fsum(row: np.ndarray) -> float:
    """math.fsum of one row: the exact sum of the rows that numpy cannot
    certify or decide."""
    return math.fsum(row.tolist())


def _rows(flat: np.ndarray, offsets: np.ndarray):
    """The rows of a block, one view each."""
    return (flat[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()))


def segment_fsums(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """math.fsum of every row, bit for bit: the exact sums that reports
    carry.

    One error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation", SIAM J. Sci. Comput. 31, 2008): with
    sigma = 2^(ceil log2(n + 2)) * 2^e per row and max|x| < 2^e, each
    q = (sigma + x) - sigma is x cut to a multiple of ulp(sigma) / 2, and
    r = x - q is exact.  Every partial sum of the q of a row is such a
    multiple no larger than n 2^e <= sigma, so s = np.add.reduceat(q) is
    exact in whatever order it adds, and the row sum is S = s + sum(r).
    With sigma = 2^top, each |r| is at most 2^(top - 53), so rest = np.sum(r)
    is within B of sum(r), and band = _sum_error_bound(n, n 2^(top - 53)),
    about 2 n^2 u 2^(top - 53) with u = 2^-53, costs no pass.  The row is
    certified where s + (rest + band) and s + (rest - band) round to one
    double.  Before that last rounding the two ends enclose S: rest +- band
    rounds by at most u (|rest| + band), about n u 2^(top - 53), and band - B
    exceeds that, as B <= (n - 1) u n 2^(top - 53) / (1 - (n - 1) u) for
    n >= 2 (Higham), and B = 0 for n = 1, where np.sum of one element is
    exact.  Round-to-nearest is monotone, so S rounds to that one double
    too, ties to even included: fsum's value.

    Every other row goes to math.fsum: a row whose ends differ (as they do
    where S lies on a rounding midpoint), that holds a non-finite entry, has
    an extraction constant beyond 2^EXTRACT_MAX_EXP, or a sum of size below
    2^EXTRACT_MIN_EXP, zero included (which keeps fsum's sign of zero).  So
    every value, and every error fsum raises, is fsum's.  A block of at most
    FSUM_ELEMENTS elements goes to fsum row by row."""
    if flat.size <= FSUM_ELEMENTS:
        return np.array([_fsum(row) for row in _rows(flat, offsets)])
    n = offsets[1:] - offsets[:-1]
    starts = offsets[:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        # ceil(log2(n + 2)) + e
        top = np.frexp(n + 1.0)[1] + np.frexp(np.maximum.reduceat(np.abs(flat), starts))[1]
        sigma = np.repeat(np.ldexp(1.0, top), n)
        q = np.add(sigma, flat)
        q -= sigma
        # a row may be long: r takes the storage of sigma
        r = np.subtract(flat, q, out=sigma)
        s = np.add.reduceat(q, starts)
        rest = np.add.reduceat(r, starts)
        band = _sum_error_bound(n, np.ldexp(n, top - 53))
        c = s + (rest + band)
        certified = c == s + (rest - band)
        certified &= (top <= EXTRACT_MAX_EXP) & (np.abs(c) >= 2.0**EXTRACT_MIN_EXP)
    for i in np.flatnonzero(~certified):
        c[i] = _fsum(flat[offsets[i] : offsets[i + 1]])
    return c


def row_fsum(x: np.ndarray) -> float:
    """segment_fsums of a block of the one row x: math.fsum(x), bit for bit."""
    return float(segment_fsums(x, np.array([0, x.size]))[0])


def _scaled_down(row: np.ndarray) -> tuple[np.ndarray, int]:
    """(row * 2^-s, s) with 2^s > n: a row sum that passes the largest
    double comes back in range, and every entry large enough to matter is
    scaled exactly."""
    s = row.size.bit_length()
    return np.ldexp(row, -s), s


def _scaled_fsum(row: np.ndarray) -> float:
    """fsum(row), or where its partial sums leave the float range, the fsum
    of _scaled_down(row) scaled back: fsum_decides' exact sum."""
    try:
        return _fsum(row)
    except OverflowError:
        scaled, s = _scaled_down(row)
        return _fsum(scaled) * 2.0**s


def fsum_decides(flat: np.ndarray, offsets: np.ndarray, *predicates) -> np.ndarray:
    """Whether every predicate holds at math.fsum(row), for every row.  A
    predicate maps an array of row sums to bools and must be monotone in
    each sum.

    One np.sum pass gives each row sum to within _sum_error_bound of
    sum|x|, which in a block with no negative entry is that pass itself: only
    a block with a negative or a nan entry takes |x| in a pass of its own.
    Each predicate is taken at both ends of that interval, and only a row
    where the ends disagree, because its sum lies within the band of a
    threshold, is summed again by fsum.  So the answer is always fsum's.  A
    row whose partial sums leave the float range, where fsum raises, is
    summed at 2^-s with 2^s > n and scaled back, as renormalize scales: to
    +-inf where the sum itself overflows, which every finite threshold
    decides as it would the exact sum.

    On a block of 16,384 elements, in rows of 16 to 4,096, this pass costs
    about a third of an exact segment_fsums (an eighth in rows of 4, where
    exact ties send one row in eight to fsum), and the band holds few rows,
    so decisions do not take exact sums.  A block of at most
    FSUM_ELEMENTS elements is summed by fsum row by row."""
    if flat.size <= FSUM_ELEMENTS:
        exact = np.array([_scaled_fsum(row) for row in _rows(flat, offsets)])
        return np.logical_and.reduce([p(exact) for p in predicates])
    starts = offsets[:-1]
    with np.errstate(invalid="ignore", over="ignore"):  # such rows fall back
        sums = np.add.reduceat(flat, starts)
        size = sums if flat.min() >= 0 else np.add.reduceat(np.abs(flat), starts)
        band = _sum_error_bound(offsets[1:] - starts, size)
        lo, hi = sums - band, sums + band
    decided = np.ones(sums.size, dtype=bool)
    unsure = ~np.isfinite(hi - lo)
    for predicate in predicates:
        at_lo = predicate(lo)
        decided &= at_lo
        unsure |= at_lo != predicate(hi)
    unsure = np.flatnonzero(unsure)
    if unsure.size:
        exact = lo.copy()
        for i in unsure:
            exact[i] = _scaled_fsum(flat[offsets[i]:offsets[i + 1]])
        decided[unsure] = np.logical_and.reduce([p(exact) for p in predicates])[unsure]
    return decided


def normalized_rows(flat: np.ndarray, offsets: np.ndarray, tolerance) -> np.ndarray:
    """|fsum(row) - 1| <= tolerance for every row, as fsum decides it;
    `tolerance` is a scalar or one per row."""
    # |t - 1| <= tol is two tests, each monotone in t
    return fsum_decides(
        flat, offsets, lambda t: t - 1.0 <= tolerance, lambda t: 1.0 - t <= tolerance
    )


def probability_rows_ok(flat: np.ndarray, offsets: np.ndarray, tolerance) -> np.ndarray:
    """The one decision of a probability vector, for every row of a block:
    finite, nonnegative and |fsum(row) - 1| <= tolerance (a scalar or one
    per row).  The entries are tested one by one only in a block whose min
    or max fails, as a nan makes both fail."""
    if flat.min() >= 0 and flat.max() < math.inf:
        return normalized_rows(flat, offsets, tolerance)
    good = np.isfinite(flat)
    good &= flat >= 0
    ok = np.logical_and.reduceat(good, offsets[:-1])
    return ok & normalized_rows(flat if ok.all() else np.where(good, flat, 0.0), offsets, tolerance)


# -- JSON input parsing (shared wire formats) ---------------------------------


def _load_json(text_or_obj):
    if isinstance(text_or_obj, (str, bytes)):
        try:
            return json.loads(text_or_obj)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid JSON: {e}") from e
    return text_or_obj


def probs_from_json(text_or_obj):
    """The raw probability vector of {"probs": [...]} or a bare JSON array,
    unvalidated, so the caller decides between checking and rescaling."""
    obj = _load_json(text_or_obj)
    if isinstance(obj, dict):
        check_keys(obj, ("probs",), "distribution")
        return obj["probs"]
    return obj


def discrete_from_json(
    text_or_obj, tolerance: float = DEFAULT_TOLERANCE
) -> DiscreteDistribution:
    """Accepts {"probs": [...]} or a bare JSON array."""
    return validate_distribution(probs_from_json(text_or_obj), tolerance=tolerance)


def binned_from_json(text_or_obj, tolerance: float = DEFAULT_TOLERANCE) -> BinnedVariable:
    """Accepts {"values": [...], "probs": [...], "widths": [...]}."""
    obj = _load_json(text_or_obj)
    check_keys(obj, ("values", "probs", "widths"), "binned variable")
    dist = validate_distribution(obj["probs"], tolerance=tolerance)
    return BinnedVariable(values=obj["values"], dist=dist, widths=obj["widths"])


def density_from_json(text_or_obj) -> DensitySpec:
    """Accepts {"family": "gaussian", "mu": 0, "sigma": 1} and the analogous
    uniform(a, b) / exponential(rate) objects."""
    obj = _load_json(text_or_obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError('density JSON must be an object with a "family" key')
    params = dict(obj)
    return DensitySpec(params.pop("family"), params)
