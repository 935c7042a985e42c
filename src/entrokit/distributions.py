"""Validated probability carriers shared by every other module.

All types are frozen dataclasses validated on construction and immutable
afterwards; operations are pure functions, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist
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

# Most elements one batch block of ragged rows holds (a single larger row
# makes a block of its own): enough for the per-block numpy calls to
# amortize, few enough that a block's arrays and term lists stay small.
BLOCK_ELEMENTS = 4096

# Most elements one row may hold: the bins of one grid, the joint
# distribution of one suite pair (32 MiB per float array).  Checked before
# anything of that size is allocated.
MAX_ROW = 2**22

UNIT_ROUNDOFF = 2.0**-53

LN2 = math.log(2.0)
BITS_K = 1.0 / LN2
SQRT2 = math.sqrt(2.0)
HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def check_positive(
    x: float, name: str, error: type[ValidationError] = ValidationError
) -> float:
    """The one check for every width, scale and unit constant: positive, finite."""
    if not (x > 0 and math.isfinite(x)):
        raise error(f"{name} must be a positive finite real, got {x}")
    return x


def check_count(x, name: str, least: int, most: float | None = None) -> int:
    """The one check for every count: an integer no smaller than `least`
    and, when `most` is given, no larger than it."""
    if not (isinstance(x, (int, np.integer)) and x >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {x!r}")
    if most is not None and x > most:
        raise ValidationError(f"{name} must be an integer <= {most}, got {x!r}")
    return int(x)


def float_vector(x, name: str) -> np.ndarray:
    """The one check for every stored vector: non-empty, 1-D and finite."""
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
        if not (0 < self.tolerance < 1):
            raise ValidationError(f"tolerance must be in (0, 1), got {self.tolerance}")
        check_probability_rows(probs, np.array([0, probs.size]), self.tolerance)

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
        if np.any(np.diff(values) <= 0):
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


@dataclass(frozen=True)
class DensitySpec:
    """Continuous density from a named parametric family with an explicit
    (possibly truncated) support interval.

    Infinite tails are cut at the TRUNCATION_EPS quantile range, so the
    retained mass is always >= 1 - 1e-9 as required of a valid spec.
    """

    family: DensityFamily
    params: dict[str, float]
    support: tuple[float, float] = field(default=(math.nan, math.nan))

    def __post_init__(self) -> None:
        try:
            family = DensityFamily(self.family)
        except ValueError:
            raise ValidationError(
                f"unknown density family {self.family!r}; expected one of "
                f"{[f.value for f in DensityFamily]}"
            ) from None
        object.__setattr__(self, "family", family)
        try:
            params = {k: float(v) for k, v in self.params.items()}
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"density parameters must be reals, got {self.params}") from None
        object.__setattr__(self, "params", params)
        # the implied support is checked even when a declared one replaces
        # it: a non-finite mu, a or b, or a mean so large that the truncated
        # support collapses to a point, shows up there
        supports = [("implied", self._natural_support(family, params))]
        if not math.isnan(self.support[0]):
            supports.append(("declared", (float(self.support[0]), float(self.support[1]))))
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
        eps = TRUNCATION_EPS
        if family is DensityFamily.UNIFORM:
            _require_keys(params, ("a", "b"))
            return params["a"], params["b"]
        if family is DensityFamily.GAUSSIAN:
            _require_keys(params, ("mu", "sigma"))
            mu, sigma = params["mu"], check_positive(params["sigma"], "sigma")
            half = -NormalDist().inv_cdf(eps / 2.0) * sigma
            return mu - half, mu + half
        _require_keys(params, ("rate",))
        return 0.0, -math.log(eps / 2.0) / check_positive(params["rate"], "rate")

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
        (upper-tail erfc right of a gaussian mean, lower-tail erfc left of
        it, the survival function for the exponential), so tail bins keep
        full relative precision instead of cancelling against 1."""
        edges = np.asarray(edges, dtype=float)
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            return np.diff(np.clip(edges, a, b)) / (b - a)
        if self.family is DensityFamily.GAUSSIAN:
            mu, sigma = self.params["mu"], self.params["sigma"]
            with np.errstate(over="ignore"):  # a tiny sigma: t is +-inf, erfc's limit
                t = (edges - mu) / (sigma * SQRT2)
            # 2 P(X beyond x), on x's own side of the mean: one erfc per
            # edge, and the complement 2 - e only on the bulk side
            e = np.fromiter(map(math.erfc, np.abs(t).tolist()), float, t.size)
            right = t >= 0
            upper = np.where(right, e, 2.0 - e)  # 2 P(X > x)
            lower = np.where(right, 2.0 - e, e)  # 2 P(X < x)
            return 0.5 * np.where(right[:-1], upper[:-1] - upper[1:], lower[1:] - lower[:-1])
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


def _require_keys(params: dict[str, float], keys: tuple[str, ...]) -> None:
    if set(params) != set(keys):
        raise ValidationError(f"expected parameters {keys}, got {tuple(params)}")


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
        check_positive(self.k, "k")
        if not math.isfinite(self.value):
            raise ValidationError(f"entropy value must be finite, got {self.value}")
        if self.k == 1.0:
            unit = EntropyUnit.NATS
        elif abs(self.k - BITS_K) <= 1e-12:
            unit = EntropyUnit.BITS
        else:
            unit = EntropyUnit.CUSTOM
        if self.unit is not None and EntropyUnit(self.unit) is not unit:
            raise ValidationError(f"k = {self.k} gives {unit.value}, not {self.unit}")
        object.__setattr__(self, "unit", unit)

    def to_json_obj(self) -> dict[str, Any]:
        return {"value": self.value, "unit": self.unit.value}


def unit_to_k(unit: str) -> float:
    u = EntropyUnit(unit)
    if u is EntropyUnit.NATS:
        return 1.0
    if u is EntropyUnit.BITS:
        return BITS_K
    raise ValidationError("custom unit needs an explicit k")


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
        # the sum passes the largest double; 2^-s with 2^s > n brings it back
        # in range, and scales exactly every entry large enough to matter
        arr = np.ldexp(arr, -arr.size.bit_length())
        total = row_fsum(arr)
    if total <= 0:
        raise NotNormalized("cannot renormalize: total mass is zero")
    return DiscreteDistribution(arr / total, tolerance=tolerance)


def product_tolerance(tolerance, sizes):
    """Tolerance of a joint distribution: the factors' tolerance scaled by
    the factor sizes n + m, to absorb accumulated rounding, and capped at
    0.5.  Takes scalars or arrays."""
    return np.minimum(tolerance * sizes, 0.5)


def product_distribution(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> DiscreteDistribution:
    """Joint distribution of two independent experiments.

    Entries are p_j * q_a in row-major order (j outer, a inner); there
    are at most MAX_ROW of them.
    """
    check_count(p.n * q.n, "p.n * q.n", 1, MAX_ROW)
    joint = np.outer(p.probs, q.probs).ravel()
    tol = product_tolerance(max(p.tolerance, q.tolerance), p.n + q.n)
    return DiscreteDistribution(joint, tolerance=float(tol))


# -- ragged row blocks ---------------------------------------------------------
#
# A block is one flat array holding rows end to end, with row i at
# flat[offsets[i]:offsets[i + 1]].  No row is empty: np.add.reduceat would
# read an empty row as the element at its offset.  Values that reach a
# report are exact row sums, math.fsum's bits, from segment_fsums: a few
# numpy passes over the whole block, with fsum itself only for the rows
# those passes cannot certify.  Pass/fail decisions take one cheaper np.sum
# pass and fall back to fsum only for rows too close to the threshold to
# tell.

# The certified sum leaves to fsum a row whose extraction constant
# 2^(ceil log2(n + 2)) * 2^e (max|x| < 2^e) would pass 2^EXTRACT_MAX_EXP, so
# that nothing it forms can overflow, and a row whose sum is below
# 2^EXTRACT_MIN_EXP in size, so that its error bound and the gaps between
# doubles next to the sum are normal numbers.
EXTRACT_MAX_EXP = 1020
EXTRACT_MIN_EXP = -960


def offsets_of(sizes) -> np.ndarray:
    """The offsets of a block of rows of the given sizes."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def ragged(rows) -> tuple[np.ndarray, np.ndarray]:
    """The flat array and the offsets of a block of rows."""
    return np.concatenate(rows), offsets_of([r.size for r in rows])


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


def segment_fsums(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """math.fsum of every row, bit for bit: the exact sums that reports
    carry.

    One error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation", SIAM J. Sci. Comput. 31, 2008): with
    sigma = 2^(ceil log2(n + 2)) * 2^e per row and max|x| < 2^e, each
    q = (sigma + x) - sigma is x cut to a multiple of ulp(sigma) / 2, and
    r = x - q is exact.  Every partial sum of the q of a row is such a
    multiple no larger than n 2^e <= sigma, so s = np.add.reduceat(q) is
    exact in whatever order it adds, and the row sum is s + sum(r).  The
    candidate is c = s + np.sum(r); with err, the exact rounding error of
    that addition (TwoSum), the row sum lies within err +- b of c, where b
    bounds the rounding of np.sum(r) (_sum_error_bound).  The candidate is
    kept when that interval lies strictly inside the half-gaps to c's
    neighbours, so that c is the one correctly rounded sum, or when every
    r is 0, so that c = s is; in both cases c is fsum's value.

    Every other row goes to math.fsum: a row that is not certified (as no
    row whose exact sum lies on a rounding midpoint can be), holds a
    non-finite entry, has an extraction constant beyond 2^EXTRACT_MAX_EXP,
    or a sum of size below 2^EXTRACT_MIN_EXP, zero included (which keeps
    fsum's sign of zero).  So every value, and every error fsum raises, is
    fsum's."""
    n = offsets[1:] - offsets[:-1]
    starts = offsets[:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        # ceil(log2(n + 2)) + e
        top = np.frexp(n + 1.0)[1] + np.frexp(np.maximum.reduceat(np.abs(flat), starts))[1]
        sigma = np.repeat(np.ldexp(1.0, top), n)
        q = (sigma + flat) - sigma
        del sigma  # a row may be long: hold no more arrays of its size than needed
        r = flat - q
        s = np.add.reduceat(q, starts)
        rest = np.add.reduceat(r, starts)
        size = np.add.reduceat(np.abs(r), starts)
        c = s + rest
        # TwoSum: err = s + rest - c exactly
        v = c - s
        err = (s - (c - v)) + (rest - v)
        band = _sum_error_bound(n, size)
        # a generous margin for the rounding of band and of err + band
        half_up = 0.5 * (np.nextafter(c, math.inf) - c) * (1.0 - 2.0**-40)
        half_down = 0.5 * (c - np.nextafter(c, -math.inf)) * (1.0 - 2.0**-40)
        certified = (size == 0.0) | ((err + band < half_up) & (band - err < half_down))
        certified &= (top <= EXTRACT_MAX_EXP) & (np.abs(c) >= 2.0**EXTRACT_MIN_EXP)
    for i in np.flatnonzero(~certified):
        c[i] = _fsum(flat[offsets[i] : offsets[i + 1]])
    return c


def row_fsum(x: np.ndarray) -> float:
    """segment_fsums of a block of the one row x: math.fsum(x), bit for bit."""
    return float(segment_fsums(x, np.array([0, x.size]))[0])


def fsum_decides(flat: np.ndarray, offsets: np.ndarray, *predicates) -> np.ndarray:
    """Whether every predicate holds at math.fsum(row), for every row.  A
    predicate maps an array of row sums to bools and must be monotone in
    each sum.

    One np.sum pass gives each row sum to within _sum_error_bound.  Each
    predicate is taken at both ends of that interval, and only a row where
    the ends disagree, because its sum lies within the band of a threshold,
    is summed again by fsum.  So the answer is always fsum's.  A row whose
    partial sums leave the float range, where fsum raises, is summed at
    2^-s with 2^s > n and scaled back, as renormalize scales: to +-inf
    where the sum itself overflows, which every finite threshold decides
    as it would the exact sum.

    On a block of 4,096 elements this pass costs a third to a half of an
    exact segment_fsums, and the band holds few rows, so decisions do not
    take exact sums."""
    starts = offsets[:-1]
    with np.errstate(invalid="ignore", over="ignore"):  # such rows fall back
        sums = np.add.reduceat(flat, starts)
        band = _sum_error_bound(offsets[1:] - starts, np.add.reduceat(np.abs(flat), starts))
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
            row = flat[offsets[i]:offsets[i + 1]]
            try:
                exact[i] = _fsum(row)
            except OverflowError:
                s = row.size.bit_length()
                exact[i] = _fsum(np.ldexp(row, -s)) * 2.0**s
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
    per row)."""
    good = np.isfinite(flat) & (flat >= 0)
    return np.logical_and.reduceat(good, offsets[:-1]) & normalized_rows(
        np.where(good, flat, 0.0), offsets, tolerance
    )


def check_probability_rows(flat: np.ndarray, offsets: np.ndarray, tolerance) -> None:
    """probability_rows_ok on every row of a block at once.  The first row
    that fails raises the error that DiscreteDistribution documents for it."""
    ok = probability_rows_ok(flat, offsets, tolerance)
    if ok.all():
        return
    i = int(np.argmin(ok))
    row = float_vector(flat[offsets[i]:offsets[i + 1]], "probs")  # raises if not finite
    if np.any(row < 0):
        raise NegativeProbability(f"negative probability entry {float(row.min())}")
    tol = float(np.broadcast_to(tolerance, ok.shape)[i])
    try:
        total = row_fsum(row)
    except OverflowError:
        raise NotNormalized(
            f"probabilities sum beyond the float range (tolerance {tol:.1e})"
        ) from None
    raise NotNormalized(
        f"probabilities sum to {total}, off by {total - 1.0:+.3e} (tolerance {tol:.1e})"
    )


# -- JSON input parsing (shared wire formats) ---------------------------------


def _load_json(text_or_obj):
    if isinstance(text_or_obj, (str, bytes)):
        try:
            return json.loads(text_or_obj)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid JSON: {e}") from e
    return text_or_obj


def _numbers(values, name: str):
    """`values` as it is, when it is an array of reals: JSON numbers, or
    numpy reals from a library caller, but never a bool or a string that
    looks like a number."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"{name} must be reals, got an array of {values.dtype}")
        return values
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a JSON array of reals")
    odd = {t for t in set(map(type, values)) - {int, float}
           if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if odd:
        x = next(x for x in values if type(x) in odd)
        raise ValidationError(f"{name} must be reals written as JSON numbers, got {x!r:.40}")
    return values


def probs_from_json(text_or_obj) -> list:
    """The raw probability list of {"probs": [...]} or a bare JSON array,
    unvalidated, so the caller decides between checking and rescaling."""
    obj = _load_json(text_or_obj)
    if isinstance(obj, dict):
        if "probs" not in obj:
            raise ValidationError('distribution object must carry a "probs" key')
        obj = obj["probs"]
    if not isinstance(obj, list):
        raise ValidationError("distribution JSON must be an array or {probs: [...]}")
    return _numbers(obj, "probs")


def discrete_from_json(
    text_or_obj, tolerance: float = DEFAULT_TOLERANCE
) -> DiscreteDistribution:
    """Accepts {"probs": [...]} or a bare JSON array."""
    return validate_distribution(probs_from_json(text_or_obj), tolerance=tolerance)


def binned_from_json(text_or_obj, tolerance: float = DEFAULT_TOLERANCE) -> BinnedVariable:
    """Accepts {"values": [...], "probs": [...], "widths": [...]}."""
    obj = _load_json(text_or_obj)
    if not isinstance(obj, dict):
        raise ValidationError("binned variable JSON must be an object")
    missing = {"values", "probs", "widths"} - set(obj)
    if missing:
        raise ValidationError(f"binned variable JSON missing keys {sorted(missing)}")
    values, probs, widths = (_numbers(obj[key], key) for key in ("values", "probs", "widths"))
    dist = validate_distribution(probs, tolerance=tolerance)
    return BinnedVariable(values=values, dist=dist, widths=widths)


def density_from_json(text_or_obj) -> DensitySpec:
    """Accepts {"family": "gaussian", "mu": 0, "sigma": 1} and the analogous
    uniform(a, b) / exponential(rate) objects."""
    obj = _load_json(text_or_obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError('density JSON must be an object with a "family" key')
    obj = dict(obj)
    family = obj.pop("family")
    _numbers(list(obj.values()), "density parameters")
    return DensitySpec(family, obj)
