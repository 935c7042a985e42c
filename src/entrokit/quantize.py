"""Quantization of continuous densities into binned variables, differential
entropy in closed form, and the h -> 0 convergence harness.

Grid rule: bins all have width h and tile the truncated support.  A density
with a hard support edge (a jump, like the flat or one-sided families)
anchors the grid at that edge so the jump is a bin boundary; smooth-tailed
densities center the grid so the support midpoint falls on a bin midpoint.
Both choices leave the h -> 0 limit untouched; the second keeps symmetric
densities symmetric about a bin center instead of an edge.

Bin masses are closed-form tail differences, each taken on its small side
(see DensitySpec.bin_masses); a gaussian's come from one numpy pass over
every edge of a block (distributions.erf_split).  A grid holds at most
MAX_ROW bins, checked before any of it is computed.

The grids of a sweep are the rows of a block (distributions' ragged
blocks), as the axiom suites' draws are: consecutive widths are grouped
into blocks of at most BLOCK_ELEMENTS bins, and each block takes one
bin_masses call, one row check and one exact sum for all its rows.  Every
mass and every entropy term is elementwise, so no row's value depends on
the rows beside it.  quantize_density is the block of one row, wrapped in
its carriers.  Reported sums, the total entropy above all, are exact and
correctly rounded (distributions.segment_fsums, math.fsum's bits), and the
normalization checks (the bin masses alone, and the masses plus the
deficit) are the one row check of distributions.normalized_rows, which
decides as fsum would.
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
    offsets_of,
    probability_rows_ok,
    row_blocks,
    row_fsum,
)
from .entropy import entropy_rows
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UnboundedSupport(f"support {f.support} is not finite")
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


def _grid_points(x0, s, h, offsets: np.ndarray, t0: float) -> np.ndarray:
    """The points (x0 + s h) + h t of a block of grids, one row per grid
    (x0, s, h) with t = t0, t0 + 1, ... along the row: t is one float arange
    less the repeated row offsets, which is exact, and the points are formed
    in place as repeat(h) t + repeat(x0 + s h).  A point that is not finite
    is formed again at a quarter of the scale, which is exact, and scaled
    back: that keeps a point finite where s h or h t overflows on the way to
    it, and a point beyond the float range is +-inf, as bin_masses reads it
    (where s h and h t are finite, a sum that overflows overflows at the
    quarter scale too)."""
    n = np.diff(offsets)
    t = np.arange(float(offsets[-1]))
    t -= np.repeat(offsets[:-1] - t0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.repeat(h, n)
        x *= t
        x += np.repeat(x0 + s * h, n)
        if np.isfinite(x).all():
            return x
        quarter = 4.0 * (np.repeat(0.25 * x0 + s * (0.25 * h), n) + np.repeat(0.25 * h, n) * t)
    return np.where(np.isfinite(x), x, quarter)


def _quantized_rows(f: DensitySpec, hs: np.ndarray, grids) -> tuple[np.ndarray, ...]:
    """The grids of the widths hs, as _grid gives them, as one block of
    rows: the bin midpoints and masses, the deficit of every row, and the
    block's offsets.

    Every row's edges go to one bin_masses call, between an infinite edge on
    each side, so that a row's first and last masses are the two unbounded
    tails beyond its grid, each taken on its own small side.  Their sum is
    the deficit, so the conservation invariant (masses + deficit = 1) checks
    the bin masses rather than restating them.  The masses between one
    row's last edge and the next row's first are dropped."""
    x0, s, n = (np.array(c) for c in zip(*grids))
    ends = offsets_of(n + 3)
    with np.errstate(over="ignore", invalid="ignore"):  # in the masses between rows
        edges = _grid_points(x0, s, hs, ends, -1.0)
        edges[ends[:-1]] = -math.inf
        edges[ends[1:] - 1] = math.inf
        m = f.bin_masses(edges)
    deficit = m[ends[:-1]] + m[ends[1:] - 2]
    bins = np.ones(m.size, dtype=bool)
    bins[ends[:-1]] = bins[ends[1:] - 2] = False  # the tails
    bins[ends[1:-1] - 1] = False  # the masses between rows
    offsets = offsets_of(n)
    mids = _grid_points(x0, s, hs, offsets, 0.5)
    # max(0, deficit) as Python's max reads it: 0 for a nan
    return mids, np.maximum(m[bins], 0.0), np.where(deficit > 0.0, deficit, 0.0), offsets


def quantize_density(f: DensitySpec, h: float) -> QuantizationResult:
    """Cut the truncated support into width-h bins and take the density's
    mass in each; representative points are the bin midpoints.  The deficit
    is the mass of the two tails beyond the grid's outer edges."""
    h = check_positive(h, "h", NonPositiveWidth)
    mids, probs, deficit, _ = _quantized_rows(f, np.array([h]), [_grid(f, h)])
    binned = BinnedVariable(
        values=mids,
        dist=DiscreteDistribution(probs, tolerance=QUANTIZED_TOL),
        widths=np.full(mids.size, h),
    )
    return QuantizationResult(binned=binned, h=h, mass_deficit=float(deficit[0]))


def _block_entropies(f: DensitySpec, hs: np.ndarray, grids, k: float) -> list[EntropyValue]:
    """The total entropies of one block of _quantized_rows, checked as
    quantize_density's carriers check each row: finite rising values, a
    probability vector, and masses plus deficit that sum to 1.  Where a row
    fails, its entropy is not formed: after the rows before it, the row is
    quantized alone by quantize_density, whose carriers raise its error."""
    mids, probs, deficit, offsets = _quantized_rows(f, hs, grids)
    n = np.diff(offsets)
    rising = np.isfinite(mids)
    rising[1:] &= mids[1:] > mids[:-1]
    # a row's first value follows no other
    rising[offsets[1:-1]] = np.isfinite(mids[offsets[1:-1]])
    ok = np.logical_and.reduceat(rising, offsets[:-1])
    ok &= probability_rows_ok(probs, offsets, QUANTIZED_TOL)
    with_deficit = np.insert(probs, offsets[1:], deficit)
    ok &= normalized_rows(with_deficit, offsets_of(n + 1), QUANTIZED_TOL)
    valid = ok.size if ok.all() else int(np.argmin(ok))
    values = []
    if valid:
        log_h = np.repeat(np.log(hs[:valid]), n[:valid])
        nats = entropy_rows(probs[: offsets[valid]], offsets[: valid + 1], log_h)
        values = [EntropyValue.of(s, k) for s in nats]
    if valid < ok.size:
        quantize_density(f, float(hs[valid]))
    return values


def _total_entropies(f: DensitySpec, hs: Sequence[float], k: float) -> list[EntropyValue]:
    """The total entropy of f quantized at every width of hs, in blocks of
    rows of at most BLOCK_ELEMENTS bins (a larger grid is a block of its
    own).  k is checked before any bin is computed."""
    k = EntropyValue.of(0.0, k).k
    hs = np.array(hs, dtype=float)
    grids = [_grid(f, h) for h in hs.tolist()]
    values = []
    for a, b in row_blocks([bins for _, _, bins in grids]):
        values += _block_entropies(f, hs[a:b], grids[a:b], k)
    return values


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
    return _total_entropies(f, [check_positive(h, "h", NonPositiveWidth)], k)[0]


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
        _grid(f, hs[-1])  # the finest grid must fit before k is checked, or any bin computed
    hc = differential_entropy(f, k).value
    rows = []
    for h, total in zip(hs, _total_entropies(f, hs, k), strict=True):
        ht = total.value
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
