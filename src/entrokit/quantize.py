"""Quantization of continuous densities into binned variables, differential
entropy in closed form, and the h -> 0 convergence harness.

Grid rule: bins all have width h and tile the truncated support.  A density
with a hard support edge (a jump, like the flat or one-sided families)
anchors the grid at that edge so the jump is a bin boundary; smooth-tailed
densities center the grid so the support midpoint falls on a bin midpoint.
Both choices leave the h -> 0 limit untouched; the second keeps symmetric
densities symmetric about a bin center instead of an edge.

Bin masses are closed-form tail differences, each taken on its small side
(see DensitySpec.bin_masses).  A grid holds at most MAX_ROW bins, checked
before any of it is computed.  Reported sums, the total entropy above all,
are exact and correctly rounded (distributions.segment_fsums, math.fsum's
bits), so they do not depend on evaluation order, and the normalization
checks (the bin masses alone, and the masses plus the deficit) are the one
row check of distributions.normalized_rows, which decides as fsum would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    MAX_ROW,
    BinnedVariable,
    DensitySpec,
    DiscreteDistribution,
    EntropyValue,
    check_positive,
    check_real,
    check_sequence,
    normalized_rows,
    row_fsum,
)
from .entropy import total_entropy
from .errors import NonPositiveWidth, UnboundedSupport, ValidationError

#: normalization slack allowed for quantized distributions
QUANTIZED_TOL = 1e-8


@dataclass(frozen=True)
class QuantizationResult:
    """A density reduced to bin masses at uniform width h, with the residual
    mass that fell outside the binned range."""

    binned: BinnedVariable
    h: float
    mass_deficit: float

    def __post_init__(self) -> None:
        check_positive(self.h, "h", NonPositiveWidth)
        widths = self.binned.widths
        if np.any(widths != self.h):
            raise ValidationError("all bin widths must equal h")
        deficit = self.mass_deficit
        if not isinstance(deficit, float):  # the row check names a non-finite float by its sum
            deficit = check_real(deficit, "mass_deficit")
        row = np.append(self.binned.probs, deficit)
        if not normalized_rows(row, np.array([0, row.size]), QUANTIZED_TOL)[0]:
            total = row_fsum(row)
            raise ValidationError(
                f"bin masses plus deficit sum to {total}, off by {total - 1.0:+.3e}"
            )
        object.__setattr__(self, "mass_deficit", float(deficit))

    def to_json_obj(self) -> dict:
        return {
            "h": self.h,
            "mass_deficit": self.mass_deficit,
            "binned": self.binned.to_json_obj(),
        }


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    total_entropy: float
    differential_entropy: float
    abs_error: float

    def __post_init__(self) -> None:
        if self.abs_error != abs(self.total_entropy - self.differential_entropy):
            raise ValidationError("abs_error must equal |total - differential|")


def _grid(f: DensitySpec, h: float) -> tuple[float, float, int]:
    """The width-h grid covering the truncated support, per the anchoring
    rule above: its left edge x0 + s h as (x0, s), and its bin count.  A
    grid of more than MAX_ROW bins is refused before any of it is computed."""
    lo, hi = f.support
    if (hi - lo) / h > MAX_ROW:
        raise ValidationError(f"h = {h} cuts the support into more than {MAX_ROW} bins")
    jumps = f.discontinuities()
    if jumps:
        # anchor at the first jump; it coincides with the truncated left
        # edge for the families that have one
        x0 = jumps[0]
        n = int(math.ceil((hi - x0) / h - 1e-9))
        return x0, 0.0, max(n, 1)
    c = 0.5 * (lo + hi)
    j_min = math.floor((lo - c) / h + 0.5)
    j_max = math.floor((hi - c) / h + 0.5)
    return c, j_min - 0.5, j_max - j_min + 1


def _grid_points(x0: float, s: float, h: float, t: np.ndarray) -> np.ndarray:
    """The points (x0 + s h) + h t of a grid, for increasing t >= 0.  Where
    s h or h t overflows on the way to a point that is finite, the same sums
    are formed at a quarter of the scale, which is exact, and scaled back; a
    point beyond the float range is +-inf, as bin_masses reads it."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = (x0 + s * h) + h * t
        if math.isfinite(x0 + s * h) and math.isfinite(h * t[-1]):
            return x
        quarter = 4.0 * ((0.25 * x0 + s * (0.25 * h)) + (0.25 * h) * t)
    return np.where(np.isfinite(x), x, quarter)


def quantize_density(f: DensitySpec, h: float) -> QuantizationResult:
    """Cut the truncated support into width-h bins and take the density's
    mass in each; representative points are the bin midpoints.

    The deficit is measured separately from the bin masses: it is the mass
    of the two unbounded tails beyond the grid's outer edges, each taken on
    its own small side by bin_masses, so the conservation invariant
    (masses + deficit = 1) checks the bin masses rather than restating them.
    """
    h = check_positive(h, "h", NonPositiveWidth)
    lo, hi = f.support
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UnboundedSupport(f"support {f.support} is not finite")
    x0, s, n = _grid(f, h)
    edges = _grid_points(x0, s, h, np.arange(n + 1))
    mids = _grid_points(x0, s, h, np.arange(n) + 0.5)
    probs = np.maximum(f.bin_masses(edges), 0.0)
    tails = f.bin_masses(np.array([-math.inf, edges[0], edges[-1], math.inf]))
    deficit = max(0.0, float(tails[0] + tails[2]))
    binned = BinnedVariable(
        values=mids,
        dist=DiscreteDistribution(probs, tolerance=QUANTIZED_TOL),
        widths=np.full(n, h),
    )
    return QuantizationResult(binned=binned, h=h, mass_deficit=deficit)


def differential_entropy(f: DensitySpec, k: float = 1.0) -> EntropyValue:
    """-k * integral of f ln f over the support, in closed form.

    The integrand is 0 wherever f = 0, extending the discrete 0*ln(0)
    convention.  Can be negative (densities above 1 contribute negative
    uncertainty); nothing here enforces a sign.
    """
    return EntropyValue.of(f.entropy_integral()[0], k)


def total_entropy_from_density(f: DensitySpec, h: float, k: float = 1.0) -> EntropyValue:
    """Quantize at width h, then apply the total-entropy formula with the
    uniform widths: -k * sum(p_i ln(p_i / h))."""
    return total_entropy(quantize_density(f, h).binned, k)


def convergence_sweep(
    f: DensitySpec, h_values: Sequence[float], k: float = 1.0
) -> list[ConvergenceRow]:
    """One row per width: total entropy at h against the differential
    entropy, in the given order.  The limit h -> 0 closes the gap; the rate
    is not asserted here, only measured."""
    hs = [check_positive(h, "h", NonPositiveWidth) for h in check_sequence(h_values, "h_values")]
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValidationError("h values must be strictly decreasing")
    if hs:
        _grid(f, hs[-1])  # the finest grid must fit before any bin is computed
    hc = differential_entropy(f, k).value
    rows = []
    for h in hs:
        ht = total_entropy_from_density(f, h, k).value
        rows.append(
            ConvergenceRow(
                h=h, total_entropy=ht, differential_entropy=hc, abs_error=abs(ht - hc)
            )
        )
    return rows


def convergence_csv(rows: Sequence[ConvergenceRow]) -> str:
    """The sweep as CSV text: a header, then one full-precision row per
    width, LF line endings."""
    lines = ["h,total_entropy,differential_entropy,abs_error"]
    lines += [
        f"{r.h!r},{r.total_entropy!r},{r.differential_entropy!r},{r.abs_error!r}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"
