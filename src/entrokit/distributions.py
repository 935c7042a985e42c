"""Validated probability carriers shared by every other module.

All types are frozen dataclasses validated on construction and immutable
afterwards; operations are pure functions, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import json
import math
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


def check_count(x, name: str, least: int) -> int:
    """The one check for every count: an integer no smaller than `least`."""
    if not (isinstance(x, (int, np.integer)) and x >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {x!r}")
    return int(x)


def float_vector(x, name: str) -> np.ndarray:
    """The one check for every stored vector: non-empty, 1-D and finite."""
    # always a fresh array: carriers freeze their storage, which must never
    # reach back into caller-owned buffers
    arr = np.array(x, dtype=float, copy=True)
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
        if np.any(probs < 0):
            worst = float(probs.min())
            raise NegativeProbability(f"negative probability entry {worst}")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > self.tolerance:
            raise NotNormalized(
                f"probabilities sum to {total}, off by {total - 1.0:+.3e} "
                f"(tolerance {self.tolerance:.1e})"
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
        family = DensityFamily(self.family)
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
        captured = self.mass(*self.support)
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
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            if x <= a:
                return 0.0
            if x >= b:
                return 1.0
            return (x - a) / (b - a)
        if self.family is DensityFamily.GAUSSIAN:
            mu, sigma = self.params["mu"], self.params["sigma"]
            return 0.5 * math.erfc(-(x - mu) / (sigma * SQRT2))
        rate = self.params["rate"]
        return -math.expm1(-rate * x) if x > 0.0 else 0.0

    def mass(self, a: float, b: float) -> float:
        """Closed-form probability mass of [a, b]."""
        return self.cdf(b) - self.cdf(a)

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Closed-form mass of every bin between consecutive increasing
        edges.  Each tail is differenced on its own small side (upper-tail
        erfc right of a gaussian mean, lower-tail erfc left of it, the
        survival function for the exponential), so tail bins keep full
        relative precision instead of cancelling against 1."""
        edges = np.asarray(edges, dtype=float)
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            return np.diff(np.clip(edges, a, b)) / (b - a)
        if self.family is DensityFamily.GAUSSIAN:
            mu, sigma = self.params["mu"], self.params["sigma"]
            t = ((edges - mu) / (sigma * SQRT2)).tolist()
            upper = np.array([math.erfc(v) for v in t])  # 2 P(X > x)
            lower = np.array([math.erfc(-v) for v in t])  # 2 P(X < x)
            right = edges[:-1] >= mu
            return 0.5 * np.where(right, upper[:-1] - upper[1:], lower[1:] - lower[:-1])
        rate = self.params["rate"]
        x = np.maximum(edges, 0.0)
        return np.exp(-rate * x[:-1]) * -np.expm1(-rate * np.diff(x))

    def entropy_integral(self) -> tuple[float, float]:
        """Closed form of -integral f ln f over the support, together with
        the mass M the support captures (1 up to the truncated tails)."""
        lo, hi = self.support
        if self.family is DensityFamily.UNIFORM:
            a, b = self.params["a"], self.params["b"]
            m = (min(hi, b) - max(lo, a)) / (b - a)
            return m * math.log(b - a), m
        m = float(self.bin_masses(np.array([lo, hi]))[0])
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

    def to_json_obj(self) -> dict[str, Any]:
        return {"family": self.family.value, **self.params}


def _require_keys(params: dict[str, float], keys: tuple[str, ...]) -> None:
    if set(params) != set(keys):
        raise ValidationError(f"expected parameters {keys}, got {tuple(params)}")


class EntropyUnit(str, Enum):
    NATS = "nats"
    BITS = "bits"
    CUSTOM = "custom"


@dataclass(frozen=True)
class EntropyValue:
    """An entropy together with the unit constant k that produced it
    (k = 1 for nats, k = 1/ln 2 for bits)."""

    value: float
    k: float
    unit: EntropyUnit

    def __post_init__(self) -> None:
        check_positive(self.k, "k")
        if not math.isfinite(self.value):
            raise ValidationError(f"entropy value must be finite, got {self.value}")
        unit = EntropyUnit(self.unit)
        object.__setattr__(self, "unit", unit)
        if unit is EntropyUnit.NATS and abs(self.k - 1.0) > 1e-12:
            raise ValidationError(f"nats requires k = 1, got {self.k}")
        if unit is EntropyUnit.BITS and abs(self.k - BITS_K) > 1e-12:
            raise ValidationError(f"bits requires k = 1/ln 2, got {self.k}")

    @classmethod
    def from_k(cls, value: float, k: float) -> "EntropyValue":
        if k == 1.0:
            unit = EntropyUnit.NATS
        elif abs(k - BITS_K) <= 1e-12:
            unit = EntropyUnit.BITS
        else:
            unit = EntropyUnit.CUSTOM
        return cls(value=value, k=k, unit=unit)

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
    return DiscreteDistribution(np.asarray(probs, dtype=float), tolerance=tolerance)


def renormalize(probs, tolerance: float = DEFAULT_TOLERANCE) -> DiscreteDistribution:
    """Explicitly rescale nonnegative weights by their sum."""
    arr = float_vector(probs, "probs")
    if np.any(arr < 0):
        raise NegativeProbability(f"negative probability entry {float(arr.min())}")
    total = math.fsum(arr.tolist())
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

    Entries are p_j * q_a in row-major order (j outer, a inner).
    """
    joint = np.outer(p.probs, q.probs).ravel()
    tol = product_tolerance(max(p.tolerance, q.tolerance), p.n + q.n)
    return DiscreteDistribution(joint, tolerance=float(tol))


# -- ragged row blocks ---------------------------------------------------------
#
# A block is one flat array holding rows end to end, with row i at
# flat[offsets[i]:offsets[i + 1]].  Values that reach a report are exact
# per-row fsums; pass/fail decisions take one np.sum pass and fall back to
# fsum only for rows too close to the threshold to tell.


def ragged(rows) -> tuple[np.ndarray, np.ndarray]:
    """The flat array and the offsets of a block of non-empty rows."""
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([r.size for r in rows], out=offsets[1:])
    return np.concatenate(rows), offsets


def segment_fsums(flat: np.ndarray, offsets: np.ndarray) -> list[float]:
    """math.fsum of every row: the exact sums that reports carry."""
    xs, bounds = flat.tolist(), offsets.tolist()
    return [math.fsum(xs[a:b]) for a, b in zip(bounds, bounds[1:])]


def fsum_decides(flat: np.ndarray, offsets: np.ndarray, *predicates) -> np.ndarray:
    """Whether every predicate holds at math.fsum(row), for every non-empty
    row.  A predicate maps an array of row sums to bools and must be
    monotone in each sum.

    One np.sum pass gives each row sum s with |s - sum| <= g * sum|x_i|,
    g = 2nu / (1 - 2nu) for n elements and u = 2^-53, in whatever order
    np.sum adds (Higham, Accuracy and Stability, section 4; g is twice the
    constant needed, which covers the rounding of the bound itself).  Each
    predicate is taken at both ends of that interval, and only a row where
    the ends disagree, because its sum lies within the band of a threshold,
    is summed again by fsum.  So the answer is always fsum's."""
    starts = offsets[:-1]
    nu = np.diff(offsets) * UNIT_ROUNDOFF
    sums = np.add.reduceat(flat, starts)
    band = 2.0 * nu / (1.0 - 2.0 * nu) * np.add.reduceat(np.abs(flat), starts)
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
        exact[unsure] = [math.fsum(flat[offsets[i]:offsets[i + 1]].tolist()) for i in unsure]
        decided[unsure] = np.logical_and.reduce([p(exact) for p in predicates])[unsure]
    return decided


def normalized_rows(flat: np.ndarray, offsets: np.ndarray, tolerance) -> np.ndarray:
    """|fsum(row) - 1| <= tolerance for every row, as fsum decides it;
    `tolerance` is a scalar or one per row."""
    # |t - 1| <= tol is two tests, each monotone in t
    return fsum_decides(
        flat, offsets, lambda t: t - 1.0 <= tolerance, lambda t: 1.0 - t <= tolerance
    )


def check_probability_rows(flat: np.ndarray, offsets: np.ndarray, tolerance) -> None:
    """The DiscreteDistribution checks on every row of a block at once:
    finite, nonnegative and normalized, decided as the carrier decides.  The
    first row that fails is built as a carrier, which raises its own error."""
    good = np.isfinite(flat) & (flat >= 0)
    ok = np.logical_and.reduceat(good, offsets[:-1]) & normalized_rows(
        np.where(good, flat, 0.0), offsets, tolerance
    )
    if not ok.all():
        i = int(np.argmin(ok))
        tol = float(np.broadcast_to(tolerance, ok.shape)[i])
        DiscreteDistribution(flat[offsets[i]:offsets[i + 1]], tolerance=tol)


# -- JSON input parsing (shared wire formats) ---------------------------------


def _load_json(text_or_obj):
    if isinstance(text_or_obj, (str, bytes)):
        try:
            return json.loads(text_or_obj)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid JSON: {e}") from e
    return text_or_obj


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
    return obj


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
    dist = validate_distribution(obj["probs"], tolerance=tolerance)
    return BinnedVariable(
        values=np.asarray(obj["values"], dtype=float),
        dist=dist,
        widths=np.asarray(obj["widths"], dtype=float),
    )


def density_from_json(text_or_obj) -> DensitySpec:
    """Accepts {"family": "gaussian", "mu": 0, "sigma": 1} and the analogous
    uniform(a, b) / exponential(rate) objects."""
    obj = _load_json(text_or_obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValidationError('density JSON must be an object with a "family" key')
    obj = dict(obj)
    family = obj.pop("family")
    try:
        fam = DensityFamily(family)
    except ValueError:
        raise ValidationError(
            f"unknown density family {family!r}; expected one of "
            f"{[f.value for f in DensityFamily]}"
        ) from None
    return DensitySpec(fam, obj)
