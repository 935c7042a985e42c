"""Classical microcanonical entropy for the ideal monatomic gas.

The phase-space volume below energy E for N free particles of mass m in a
box of volume V is the 3N-ball formula

    ln Phi(E) = N ln V + (3N/2) ln(2 pi m E) - ln Gamma(3N/2 + 1)

and the energy-shell volume Omega(E, dE) = Phi(E + dE) - Phi(E) is formed
as a log-domain difference, so particle counts far beyond 10^3 stay exact:
the (3N/2)-power factors overflow any fixed-precision float long before the
logs do.  Entropy follows as S = k ln(Omega / C^N) with the phase-cell
constant C^N = h^3N for distinguishable particles and N! h^3N for
indistinguishable ones.

Natural units (m = h = k = 1) are the default; nothing below ever leaves
the log domain except where explicitly mitigated.

The discretized shell entropy -k sum(w_i f_i ln(C f_i)) is the total
entropy of the cell masses w_i f_i at widths w_i / C (paper, section 4), so
it is summed by the one entropy kernel of the entropy module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import (
    BLOCK_ELEMENTS,
    LN2,
    SQRT2,
    DensitySpec,
    EntropyValue,
    check_count,
    check_positive,
    check_real,
    float_vector,
    fsum_decides,
    probability_rows_ok,
    row_fsum,
)
from .entropy import entropy_rows, entropy_terms, simplex_rows
from .errors import InvalidDensity, NonPositiveWidth, ValidationError

FOUR_PI_3 = 4.0 * math.pi / 3.0

MAXENT_SLACK = 1e-12
# how far sum(w_i f_i) of a shell density may stray from 1
SHELL_TOLERANCE = 1e-9
# most particles.  N enters as a float (N ln V, lnGamma(3N/2 + 1), 3N ln h),
# and a log of a positive finite float is below 745 in size, so with
# N <= 1e300 every such term stays below 1e304, clear of the float limit
MAX_PARTICLES = 1e300


def modified_differential_entropy(f: DensitySpec, h: float, k: float = 1.0) -> EntropyValue:
    """-k * integral of f ln(h f): the quantity the quantized Shannon
    entropy actually approaches as the bin width h shrinks.

    In closed form, H - M ln h, where H is the plain differential entropy
    and M the mass of the truncated support."""
    check_positive(h, "h", NonPositiveWidth)
    value, mass = f.entropy_integral()
    return EntropyValue.of(value - mass * math.log(h), k)


@dataclass(frozen=True)
class ShellSpec:
    """Microcanonical parameters: energy E, shell thickness dE, box volume V,
    particle count N, particle mass m, phase-cell constant planck_h."""

    E: float
    dE: float
    V: float
    N: int
    m: float = 1.0
    planck_h: float = 1.0
    indistinguishable: bool = True

    def __post_init__(self) -> None:
        for name in ("E", "dE", "V", "m", "planck_h"):
            check_positive(getattr(self, name), name)
        object.__setattr__(self, "N", check_count(self.N, "N", 1, MAX_PARTICLES))
        if self.dE / self.E > 0.1:
            warnings.warn(
                f"shell thickness dE/E = {self.dE / self.E:.3g} is not small; "
                "shell-volume results lose their thin-shell meaning",
                RuntimeWarning,
                stacklevel=3,  # past the __init__ that dataclass generates, to its caller
            )


def log_phase_ball_volume(spec: ShellSpec) -> float:
    """ln Phi(E): log phase-space volume below the shell's energy."""
    n = spec.N
    # 2 pi m E over- or underflows (m = E = 1e200, or 1e-200) where its log
    # does not, so it is formed as a mantissa product times 2^e, as
    # sackur_tetrode_entropy forms its bracket
    (fm, em), (fe, ee) = math.frexp(spec.m), math.frexp(spec.E)
    ln_2pi_m_e = math.log(2.0 * math.pi * fm * fe) + (em + ee) * LN2
    return n * math.log(spec.V) + 1.5 * n * ln_2pi_m_e - math.lgamma(1.5 * n + 1.0)


def log_phase_shell_volume(spec: ShellSpec) -> float:
    """ln Omega = ln[Phi(E + dE) - Phi(E)], entirely in the log domain.

    Computed as ln Phi(E) + ln(expm1(delta)) with
    delta = (3N/2) ln(1 + dE/E); when delta underflows the difference, the
    derivative form ln[Phi'(E) dE] takes over.
    """
    ln_phi = log_phase_ball_volume(spec)
    delta = 1.5 * spec.N * math.log1p(spec.dE / spec.E)
    if delta < 1e-12:
        return ln_phi + math.log(1.5 * spec.N / spec.E) + math.log(spec.dE)
    if delta > 700.0:  # expm1 would overflow; the shell is the whole ball
        return ln_phi + delta + math.log1p(-math.exp(-delta))
    return ln_phi + math.log(math.expm1(delta))


def boltzmann_entropy(spec: ShellSpec, k: float = 1.0) -> EntropyValue:
    """S = k ln(Omega / C^N), with ln N! via lnGamma(N + 1)."""
    s = log_phase_shell_volume(spec) - 3.0 * spec.N * math.log(spec.planck_h)
    if spec.indistinguishable:
        s -= math.lgamma(spec.N + 1.0)
    return EntropyValue.of(s, k)


def sackur_tetrode_entropy(spec: ShellSpec, k: float = 1.0) -> EntropyValue:
    """Sackur-Tetrode closed form for the indistinguishable ideal gas,

        S/(N k) = ln[(V/N) (4 pi m E / (3 N h^2))^(3/2)] + 5/2,

    i.e. the Stirling-approximated large-N limit of boltzmann_entropy.
    Serves as the independent cross-check the CLI reports alongside the
    shell-volume path."""
    n = spec.N
    # the bracket overflows (E = 1e300, h = 1e-10) or underflows (V = 1e-300,
    # h = 1e10) where its log is unremarkable, so it is formed as a mantissa
    # product times 2^e and S/(N k) is ln(mantissa) + e ln 2 + 5/2; unlike one
    # log per input, the product keeps full accuracy where those logs cancel
    (fv, ev), (fn, en), (fe, ee), (fm, em), (fh, eh) = (
        math.frexp(x) for x in (spec.V, n, spec.E, spec.m, spec.planck_h)
    )
    ex = ee + em - en - 2 * eh  # 4 pi m E / (3 N h^2) = r 2^ex
    r = FOUR_PI_3 * fm * fe / (fn * fh * fh)
    half, odd = divmod(ex, 2)  # (2^ex)^(3/2) = 2^(ex + half) sqrt(2)^odd
    mantissa = fv / fn * r**1.5 * (SQRT2 if odd else 1.0)
    ln_bracket = math.log(mantissa) + (ev - en + ex + half) * LN2
    return EntropyValue.of(n * (ln_bracket + 2.5), k)


# -- maximum-entropy check on the discretized shell ----------------------------


@dataclass(frozen=True)
class DiscretizedShellDensity:
    """Phase-space density represented by cell volumes w_i and per-cell
    density values f_i, normalized so sum(w_i f_i) = 1.  The 6N coordinates
    never appear; cells are the only geometry retained."""

    cell_volumes: np.ndarray
    densities: np.ndarray

    def __post_init__(self) -> None:
        w = _cell_volumes(self.cell_volumes)
        f = float_vector(self.densities, "densities")
        if w.size != f.size:
            raise ValidationError(f"{w.size} cell volumes but {f.size} densities")
        masses = _cell_masses(w, f)
        if not probability_rows_ok(masses, np.array([0, w.size]), SHELL_TOLERANCE)[0]:
            if np.any(masses < 0):
                raise InvalidDensity("densities must be nonnegative")
            try:
                total = row_fsum(masses)
            except OverflowError:
                raise InvalidDensity("sum(w_i f_i) lies beyond the float range") from None
            raise InvalidDensity(f"sum(w_i f_i) = {total}, off by {total - 1.0:+.3e}")
        w.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "cell_volumes", w)
        object.__setattr__(self, "densities", f)

    @classmethod
    def uniform(cls, cell_volumes) -> "DiscretizedShellDensity":
        """The constant density 1 / sum(w_i) on cells w: the maximizer."""
        w = _cell_volumes(cell_volumes)
        try:
            total = row_fsum(w)
        except OverflowError:
            raise ValidationError("cell volumes sum beyond the float range") from None
        density = 1.0 / total
        if not math.isfinite(density):
            raise ValidationError(f"cell volumes sum to {total}, too small for a finite density")
        return cls(w, np.full(w.size, density))


def _cell_volumes(x) -> np.ndarray:
    """The one check of shell cells: a non-empty, finite, positive vector."""
    w = float_vector(x, "cell_volumes")
    if np.any(w <= 0):
        raise ValidationError("cell volumes must be positive")
    return w


def _cell_masses(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The cell masses w_i f_i of every row of densities f on cells w > 0,
    the one place they are formed: a negative f is kept as it is, lest w*f
    round it to -0.0."""
    return np.where(f < 0, f, w * f)


def _log_widths(w: np.ndarray, C: float) -> np.ndarray:
    """ln(w_i / C) from mantissas and exponents: finite where w_i / C overflows,
    and accurate where ln w_i - ln C cancels (w_i near C, both far from 1)."""
    (mw, ew), (mc, ec) = np.frexp(w), math.frexp(C)
    return np.log(mw / mc) + (ew - ec) * LN2


def shell_entropy(d: DiscretizedShellDensity, C: float, k: float = 1.0) -> EntropyValue:
    """Discretized S = -k sum(w_i f_i ln(C f_i)); empty cells contribute 0.
    It is the total entropy of the cell masses w_i f_i at widths w_i / C."""
    check_positive(C, "C")
    w = d.cell_volumes
    s = entropy_rows(_cell_masses(w, d.densities), np.array([0, w.size]), _log_widths(w, C))
    return EntropyValue.of(s[0], k)


@dataclass(frozen=True)
class MaxentReport:
    entropy: float
    is_maximal: bool


def maxent_shell_check(
    d: DiscretizedShellDensity,
    C: float,
    k: float = 1.0,
    trials: int = 1000,
    seed: int = 0,
) -> MaxentReport:
    """Entropy of d, plus a perturbative check that the uniform density on
    the same cells is the entropy maximizer.

    The optimum is known in closed form (constant density), so the burden
    here is falsification: `trials` random normalization- and
    nonnegativity-preserving perturbations of the uniform density, none of
    which may exceed its entropy by more than 1e-12 nats, whatever the unit
    k of the reported entropy.  Each trial is a row of cell masses
    (1 - t) u + t q: u the uniform masses, q a simplex_rows row from one
    child stream of the seed, t in (0, 1] from the other.  Each trial is a
    probability row by construction (the proof is simplex_rows'), so none
    is checked.  Blocks of about BLOCK_ELEMENTS cells are drawn and decided
    at once; each stream is read in order, so the report does not depend on
    the block size, and every decision is exactly fsum's.
    """
    check_count(trials, "trials", 1)
    check_count(seed, "seed", 0)
    check_positive(C, "C")
    w = d.cell_volumes
    m = w.size
    log_h = _log_widths(w, C)  # shell_entropy(d, C, k), with log widths the trials reuse
    nats = entropy_rows(_cell_masses(w, d.densities), np.array([0, m]), log_h)[0]
    entropy = EntropyValue.of(nats, k).value
    u = _cell_masses(w, DiscretizedShellDensity.uniform(w).densities)
    threshold = entropy_rows(u, np.array([0, m]), log_h)[0] + MAXENT_SLACK  # in nats
    draws, weights = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    per_block = max(1, BLOCK_ELEMENTS // m)
    for first in range(0, trials, per_block):
        rows = min(per_block, trials - first)
        offsets = np.arange(rows + 1) * m
        t = 1.0 - weights.random((rows, 1))  # in (0, 1]: never the uniform point itself
        masses = simplex_rows(draws, offsets).reshape(rows, m)
        masses *= t
        masses += (1.0 - t) * u
        terms = entropy_terms(masses, log_h).ravel()
        if fsum_decides(terms, offsets, lambda s: s > threshold).any():
            return MaxentReport(entropy=entropy, is_maximal=False)
    return MaxentReport(entropy=entropy, is_maximal=True)


# -- two classical-entropy readings compared -----------------------------------


@dataclass(frozen=True)
class EntropyFormComparison:
    """Both classical-entropy expressions at the uniform shell density.

    s_cell_in_log places the phase-cell constant inside the logarithm,
    S = k ln(Omega / h^3N), matching Boltzmann entropy.  s_prefactor divides
    the density by the cell volume outside the logarithm instead, giving
    S = k ln(Omega) / h^3N, which is not Boltzmann's form and differs by
    more than any additive constant.  When h^3N is not representable the
    prefactor value is carried as a log-magnitude with sign, and JSON
    gives an overflowed prefactor and gap as null.
    """

    s_cell_in_log: float
    s_prefactor: float
    gap: float
    prefactor_log_magnitude: float
    prefactor_sign: int
    overflowed: bool

    def to_json_obj(self) -> dict:
        obj = {
            "S_cell_in_log": self.s_cell_in_log,
            "S_prefactor": _finite_or_none(self.s_prefactor),
            "gap": _finite_or_none(self.gap),
        }
        if self.overflowed:
            obj["S_prefactor_log_magnitude"] = self.prefactor_log_magnitude
            obj["S_prefactor_sign"] = self.prefactor_sign
        return obj


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def compare_entropy_forms(
    ln_omega: float, planck_h: float, N: int, k: float = 1.0
) -> EntropyFormComparison:
    """Evaluate both expressions from a known log shell volume."""
    check_positive(planck_h, "planck_h")
    check_count(N, "N", 1, MAX_PARTICLES)
    ln_omega = check_real(ln_omega, "ln_omega")
    log_cell = 3.0 * N * math.log(planck_h)
    in_log = EntropyValue.of(ln_omega - log_cell, k)
    s_in_log, k = in_log.value, in_log.k

    sign = int(math.copysign(1.0, ln_omega)) if ln_omega != 0.0 else 0
    scaled = k * abs(ln_omega)
    if ln_omega == 0.0:
        log_mag = -math.inf
    elif 0.0 < scaled < math.inf:
        log_mag = math.log(scaled) - log_cell
    else:
        # k |ln_omega| under- or overflows where its log does not
        log_mag = math.log(k) + math.log(abs(ln_omega)) - log_cell
    if log_mag > 700.0:
        s_prefactor = sign * math.inf
        overflowed = True
    elif log_mag < -700.0 and ln_omega != 0.0:
        s_prefactor = sign * 0.0
        overflowed = True
    elif abs(log_cell) > 708.0:
        # h^3N is out of the normal float range, but the reading is not
        s_prefactor = sign * math.exp(log_mag)
        overflowed = False
    else:
        s_prefactor = k * ln_omega / planck_h ** (3 * N)
        overflowed = False
    return EntropyFormComparison(
        s_cell_in_log=s_in_log,
        s_prefactor=s_prefactor,
        gap=s_in_log - s_prefactor,
        prefactor_log_magnitude=log_mag,
        prefactor_sign=sign,
        overflowed=overflowed,
    )


def classical_entropy_comparison(spec: ShellSpec, k: float = 1.0) -> EntropyFormComparison:
    """Both entropy readings for the ideal-gas shell, assuming the uniform
    equilibrium density 1/Omega on the shell."""
    return compare_entropy_forms(log_phase_shell_volume(spec), spec.planck_h, spec.N, k)
