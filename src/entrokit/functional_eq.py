"""Numerical verification of the kernel-derivative machinery behind the
entropy characterization: the multiplicative difference equation, the Cauchy
functional equation, and recovery of the log-affine derivative
g(p) = A ln p + B by least squares.

The checks are falsification-style on finite grids, not symbolic.  Note the
two equations genuinely differ on constants: an additive offset B cancels in
the difference form but shifts the product form g(pq) = g(p) + g(q) by
exactly -B, so only B = 0 satisfies both.  Both defects are exposed
separately rather than guessing one reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import check_real, check_sequence, float_vector
from .entropy import PhiFunction, evaluate
from .errors import DegenerateDesign, NotAdmissible, ValidationError

#: 32 logarithmically spaced probabilities spanning three decades.
DEFAULT_GRID: tuple[float, ...] = tuple(np.geomspace(1e-3, 1.0, 32).tolist())


def _checked_grid(grid: Sequence[float], name: str) -> np.ndarray:
    arr = float_vector(grid, name)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValidationError(f"{name} must lie in (0, 1]")
    return arr


def difference_equation_defect(
    g: Callable[[float], float],
    grid_p: Sequence[float] = DEFAULT_GRID,
    grid_q: Sequence[float] = DEFAULT_GRID,
) -> float:
    """Worst violation of g(q*p_j) - g(q*p_k) = g(p_j) - g(p_k).

    Equals max over q of the spread of d_j = g(q*p_j) - g(p_j), which is the
    same maximum as over all (q, j, k) triples but costs O(|Q| |P|).
    Solutions are exactly the log-affine functions; the constant term cancels.
    """
    ps = _checked_grid(grid_p, "grid_p")
    qs = _checked_grid(grid_q, "grid_q")
    g_p = np.array([evaluate(g, p, "function") for p in ps])
    defect = 0.0
    for q in qs:
        d = np.array([evaluate(g, q * p, "function") for p in ps]) - g_p
        defect = max(defect, float(d.max() - d.min()))
    return defect


def cauchy_defect(
    g: Callable[[float], float], grid: Sequence[float] = DEFAULT_GRID
) -> float:
    """Worst violation of g(p*q) = g(p) + g(q) over all grid pairs.

    The pure logarithm A ln p is the canonical solution; adding a constant c
    breaks it by exactly |c|."""
    ps = _checked_grid(grid, "grid")
    vals = np.array([evaluate(g, p, "function") for p in ps])
    defect = 0.0
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            defect = max(defect, abs(evaluate(g, p * q, "function") - vals[i] - vals[j]))
    return defect


@dataclass(frozen=True)
class PhiPrimeSamples:
    """Samples (p, g) of a kernel derivative on (0, 1]; at least three
    distinct abscissae so a two-parameter fit is overdetermined."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = (check_sequence(pt, "a sample (p, g)", 2)
                 for pt in check_sequence(self.points, "points"))
        pts = tuple((check_real(p, "abscissa"), check_real(v, f"g({p})")) for p, v in pairs)
        object.__setattr__(self, "points", pts)
        for p, _ in pts:
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"abscissa {p} outside (0, 1]")
        if len({p for p, _ in pts}) < 3:
            raise ValidationError("need at least 3 distinct abscissae")

    @classmethod
    def from_function(
        cls, g: Callable[[float], float], grid: Sequence[float] = DEFAULT_GRID
    ) -> "PhiPrimeSamples":
        ps = _checked_grid(grid, "grid")
        return cls(tuple((p, evaluate(g, p, "function")) for p in ps))


@dataclass(frozen=True)
class LogAffineFit:
    """Least-squares coefficients of g = A ln p + B with the worst-case
    residual over the sample points."""

    A: float
    B: float
    residual: float

    def __post_init__(self) -> None:
        for name in ("A", "B", "residual"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if self.residual < 0.0:
            raise ValidationError(f"residual must be nonnegative, got {self.residual}")

    @property
    def admissible(self) -> bool:
        """A concave entropy kernel needs a strictly negative slope; the
        unit constant is then k = -A."""
        return self.A < 0.0

    def to_json_obj(self) -> dict:
        return {
            "A": self.A,
            "B": self.B,
            "residual": self.residual,
            "admissible": self.admissible,
        }


def fit_log_affine(samples: PhiPrimeSamples) -> LogAffineFit:
    """Fit g = A ln p + B by least squares; residual is max |g - fit|.

    Least squares (rather than interpolation through two points) makes noisy
    input degrade into a visible residual instead of wrong coefficients.
    """
    p = np.array([pt[0] for pt in samples.points])
    g = np.array([pt[1] for pt in samples.points])
    logs = np.log(p)
    if np.ptp(logs) == 0.0:
        raise DegenerateDesign("all abscissae equal; slope is unidentifiable")
    design = np.column_stack([logs, np.ones_like(logs)])
    (a, b), *_ = np.linalg.lstsq(design, g, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        residual = float(np.max(np.abs(g - (a * logs + b))))
    if not math.isfinite(residual):
        raise ValidationError(f"the fit leaves the float range: A = {a}, B = {b}, "
                              f"residual {residual}")
    return LogAffineFit(A=a, B=b, residual=residual)


def reconstruct_phi(fit: LogAffineFit, boundary_log_width: float) -> PhiFunction:
    """Integrate an admissible fitted derivative into an entropy kernel
    pinned by its value at p = 1.

    phi(p) = A p ln p + (B - A) p + (A - B) + boundary_log_width * p

    so that phi(1) = boundary_log_width exactly.  The boundary term rides on
    p (a per-interval constant absorbed into the linear coefficient), which
    is what makes a sum of per-interval kernels reproduce total entropy up
    to the constants every entropy normalization discards.  A fit whose
    A - B overflows is refused: PhiFunction takes only a finite phi(0).
    """
    if not fit.admissible:
        raise NotAdmissible(f"slope A = {fit.A} is not strictly negative")
    a, b, blw = fit.A, fit.B, check_real(boundary_log_width, "boundary_log_width")

    def phi(p: float) -> float:
        return a * p * math.log(p) + (b - a) * p + (a - b) + blw * p

    return PhiFunction(phi, name=f"logaffine(A={a:g}, B={b:g})", zero_value=a - b)
