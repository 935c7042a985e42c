"""Shannon entropy, the concave-kernel entropy family, total entropy with
observational bin widths, and the randomized axiom-verification suite.

Conventions: natural logarithm throughout, with the unit carried by the
multiplicative constant k (k = 1 nats, k = 1/ln 2 bits).  The 0*ln(0) terms
contribute exactly zero.  Plain Shannon entropy is nonnegative; total
entropy is not (widths below the masses push it negative), which is why
nonnegativity is asserted only for the discrete case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .distributions import (
    BLOCK_ELEMENTS,
    DEFAULT_TOLERANCE,
    MAX_ROW,
    BinnedVariable,
    DiscreteDistribution,
    EntropyValue,
    check_count,
    check_positive,
    check_probability_rows,
    product_distribution,
    product_tolerance,
    ragged,
    segment_fsums,
)
from .errors import PhiUndefined, ValidationError

MAJORIZATION_TOL = 1e-12
# slack of the Pinsker test, 1/2 |p - u|_1^2 <= ln n - H
PINSKER_SLACK = 1e-12


def entropy_rows(flat: np.ndarray, offsets: np.ndarray, k: float = 1.0) -> list[float]:
    """-k * fsum(p_i ln p_i) of every row of a block, zero entries
    contributing exactly 0: the one Shannon sum."""
    pos = flat > 0
    x = flat[pos]
    kept = np.concatenate(([0], np.cumsum(pos)))[offsets]
    values = [k * s for s in segment_fsums(-x * np.log(x), kept)]
    for v in values:
        if not math.isfinite(v):
            EntropyValue(v, k)  # raises: k is bad or the value has overflowed
    return values


def shannon_entropy(p: DiscreteDistribution, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i), with zero entries contributing exactly 0."""
    return EntropyValue(entropy_rows(p.probs, np.array([0, p.n]), k)[0], k)


@dataclass(frozen=True)
class PhiFunction:
    """Pointwise entropy kernel phi: [0, 1] -> R, summed over probabilities.

    The value at 0 must be supplied explicitly; only the Shannon kernel
    carries the 0*ln(0) = 0 convention built in.
    """

    evaluator: Callable[[float], float]
    name: str
    zero_value: float = math.nan

    def __call__(self, p: float) -> float:
        if p == 0.0:
            if math.isnan(self.zero_value):
                raise PhiUndefined(f"{self.name}: no value declared at p = 0")
            return self.zero_value
        return float(self.evaluator(p))

    def concavity_margin(self, seed: int = 0, n_samples: int = 256) -> float:
        """Worst value of phi(mix) - [lam*phi(p) + (1-lam)*phi(q)] over random
        p, q, lam in (0, 1); >= -1e-12 for a concave kernel."""
        rng = np.random.default_rng(seed)
        worst = math.inf
        for _ in range(n_samples):
            p, q, lam = rng.uniform(1e-12, 1.0, size=3)
            gap = self(lam * p + (1 - lam) * q) - (lam * self(p) + (1 - lam) * self(q))
            worst = min(worst, gap)
        return worst


def shannon_phi() -> PhiFunction:
    return PhiFunction(lambda p: -p * math.log(p), name="shannon", zero_value=0.0)


def phi_entropy(p: DiscreteDistribution, phi: PhiFunction) -> float:
    """sum(phi(p_i)); raises PhiUndefined if the kernel is not finite at
    some entry."""
    terms = []
    for pi in p.probs:
        v = phi(float(pi))
        if not math.isfinite(v):
            raise PhiUndefined(f"{phi.name} is not finite at p = {pi}")
        terms.append(v)
    return math.fsum(terms)


def total_entropy(v: BinnedVariable, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln(p_i / h_i)): Shannon entropy plus the expected
    post-observational uncertainty k ln h_i per interval."""
    p = v.probs
    h = v.widths
    mask = p > 0
    terms = (-p[mask] * (np.log(p[mask]) - np.log(h[mask]))).tolist()
    return EntropyValue(k * math.fsum(terms), k)


def additivity_defect(
    p: DiscreteDistribution, q: DiscreteDistribution, k: float = 1.0
) -> float:
    """|H(p x q) - H(p) - H(q)|; zero (to rounding) for Shannon entropy."""
    joint = shannon_entropy(product_distribution(p, q), k).value
    return abs(joint - shannon_entropy(p, k).value - shannon_entropy(q, k).value)


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of a Schur-concavity check between two same-length
    distributions.

    `majorizes` is the p-majorizes-q flag; `entropy_ordered` records whether
    the entropy ordering implied by whichever majorization holds is
    satisfied (vacuously true for incomparable pairs)."""

    majorizes: bool
    entropy_ordered: bool
    incomparable: bool


def _majorizes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether a majorizes b, row by row along the last axis; rows of a 2-D
    block are zero-padded, which leaves their sorted prefix sums exact."""
    pa = np.cumsum(np.sort(a, axis=-1)[..., ::-1], axis=-1)
    pb = np.cumsum(np.sort(b, axis=-1)[..., ::-1], axis=-1)
    return np.all(pa >= pb - MAJORIZATION_TOL, axis=-1)


def _entropy_ordered(p_maj_q: bool, q_maj_p: bool, hp: float, hq: float) -> bool:
    """The more concentrated distribution has the smaller entropy, for
    whichever majorization holds (vacuously true for incomparable pairs)."""
    return (not p_maj_q or hp <= hq + MAJORIZATION_TOL) and (
        not q_maj_p or hq <= hp + MAJORIZATION_TOL
    )


def schur_concavity_check(
    p: DiscreteDistribution, q: DiscreteDistribution, k: float = 1.0
) -> MajorizationReport:
    """Determine majorization between p and q and verify the Schur-concave
    ordering: the more concentrated distribution has the smaller entropy."""
    if p.n != q.n:
        raise ValidationError(f"majorization needs equal lengths, got {p.n} and {q.n}")
    p_maj_q = bool(_majorizes(p.probs, q.probs))
    q_maj_p = bool(_majorizes(q.probs, p.probs))
    hp = shannon_entropy(p, k).value
    hq = shannon_entropy(q, k).value
    return MajorizationReport(
        majorizes=p_maj_q,
        entropy_ordered=_entropy_ordered(p_maj_q, q_maj_p, hp, hq),
        incomparable=not (p_maj_q or q_maj_p),
    )


# -- randomized axiom-verification suite ---------------------------------------
#
# Everything below is seed-driven so parallel or repeated runs reproduce
# bit-identically.  The draws run one by one, in a fixed order; the checks
# run on blocks of about BLOCK_ELEMENTS drawn elements.


def _simplex_row(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.exponential(size=n)
    return w / math.fsum(w.tolist())


def random_distribution(rng: np.random.Generator, n: int) -> DiscreteDistribution:
    """Uniform draw from the n-simplex (normalized exponentials)."""
    return DiscreteDistribution(_simplex_row(rng, n))


def _robin_hood_rows(
    rng: np.random.Generator, n: int, transfers: int
) -> tuple[np.ndarray, np.ndarray]:
    start = _simplex_row(rng, n)
    flat = start.copy()
    for _ in range(transfers):
        i, j = rng.choice(n, size=2, replace=False)
        if flat[i] < flat[j]:
            i, j = j, i
        gap = flat[i] - flat[j]
        if gap <= 0:
            continue
        eps = rng.uniform(0.0, 0.5) * gap
        flat[i] -= eps
        flat[j] += eps
    return start, flat


def robin_hood_pair(
    rng: np.random.Generator, n: int, transfers: int = 4
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Majorization pair (p, q) with p majorizing q by construction.

    Each transfer moves mass from a larger coordinate to a smaller one by at
    most half their gap, which flattens the vector without crossing it, so
    the start point majorizes every later one.
    """
    if n < 2:
        raise ValidationError("majorization pairs need n >= 2")
    start, flat = _robin_hood_rows(rng, n, transfers)
    return DiscreteDistribution(start), DiscreteDistribution(flat)


def _mixture_draws(rng, pairs, max_n):
    """Two same-length simplex points and their mixture at weight lam."""
    for _ in range(pairs):
        n = int(rng.integers(1, max_n + 1))
        a = _simplex_row(rng, n)
        b = _simplex_row(rng, n)
        lam = rng.uniform(0.0, 1.0)
        yield (a, b, lam * a + (1.0 - lam) * b), lam


def _product_draws(rng, pairs, max_n):
    """Two independent simplex points and their joint distribution."""
    for _ in range(pairs):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, max_n + 1))
        p = _simplex_row(rng, n)
        q = _simplex_row(rng, m)
        yield (p, q, np.outer(p, q).ravel()), None


def _majorization_draws(rng, pairs, max_n):
    """Robin Hood pairs, the start point majorizing the flattened one."""
    for _ in range(pairs):
        n = int(rng.integers(2, max_n + 1))
        yield _robin_hood_rows(rng, n, int(rng.integers(1, 6))), None


def _blocks(draws):
    """Consecutive draws, each (rows, extra), as blocks: the flat array and
    offsets of their rows, and the extras.  A block holds at most
    BLOCK_ELEMENTS elements, unless one draw alone holds more."""
    rows, extras, size = [], [], 0
    for draw_rows, extra in draws:
        n = sum(r.size for r in draw_rows)
        if rows and size + n > BLOCK_ELEMENTS:
            yield (*ragged(rows), extras)
            rows, extras, size = [], [], 0
        rows += draw_rows
        extras.append(extra)
        size += n
    if rows:
        yield (*ragged(rows), extras)


def _padded(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The rows of a block as a zero-padded 2-D array."""
    n = np.diff(offsets)
    out = np.zeros((n.size, n.max()))
    out[np.repeat(np.arange(n.size), n), np.arange(flat.size) - np.repeat(offsets[:-1], n)] = flat
    return out


def _pinsker_holds(flat, offsets, h: list[float], k: float) -> np.ndarray:
    """1/2 |p - u|_1^2 <= (ln n - H/k) + slack for every row: Pinsker's
    inequality against the uniform point u, so H = ln n only at p = u."""
    n = np.diff(offsets)
    l1 = np.add.reduceat(np.abs(flat - np.repeat(1.0 / n, n)), offsets[:-1])
    return 0.5 * l1**2 <= (np.log(n) - np.array(h) / k) + PINSKER_SLACK


@dataclass(frozen=True)
class AxiomSuiteReport:
    """Aggregate defects from one randomized verification run.

    Tolerances live with the caller; the report only carries the measured
    extremes plus the derived pass flag used by the CLI.
    """

    seed: int
    n_distributions: int
    max_n: int
    min_entropy: float
    max_uniform_bound_excess: float
    uniform_equality_gap: float
    equality_only_at_uniform: bool
    additivity_pairs: int
    additivity_max_defect: float
    concavity_min_slack: float
    majorization_pairs: int
    majorization_violations: int
    passed: bool

    def to_json_obj(self) -> dict:
        return asdict(self)


def run_axiom_suite(
    seed: int,
    n_distributions: int = 10_000,
    max_n: int = 64,
    additivity_pairs: int = 1_000,
    majorization_pairs: int = 1_000,
    k: float = 1.0,
) -> AxiomSuiteReport:
    """Randomized check of nonnegativity, the uniform upper bound, additivity
    over products, concavity on the simplex, and Schur concavity.

    The corpus is drawn in same-length pairs so each pair feeds both the
    concavity mixture test and the per-distribution checks, so
    n_distributions must be even.  No row may hold more than MAX_ROW
    elements; a joint distribution holds up to max_n**2.
    """
    check_positive(k, "k")
    check_count(n_distributions, "n_distributions", 2)
    if n_distributions % 2:
        raise ValidationError(f"n_distributions must be even, got {n_distributions}")
    check_count(additivity_pairs, "additivity_pairs", 0)
    check_count(majorization_pairs, "majorization_pairs", 0)
    largest = math.isqrt(MAX_ROW) if additivity_pairs > 0 else MAX_ROW
    check_count(max_n, "max_n", 2 if majorization_pairs > 0 else 1, largest)
    rng = np.random.default_rng(seed)

    min_entropy = math.inf
    max_bound_excess = -math.inf
    concavity_min_slack = math.inf
    equality_only_at_uniform = True

    # rows per pair: a, b and their mixture
    for flat, offsets, lams in _blocks(_mixture_draws(rng, n_distributions // 2, max_n)):
        check_probability_rows(flat, offsets, DEFAULT_TOLERANCE)
        h = entropy_rows(flat, offsets, k)
        sizes = np.diff(offsets)[0::3].tolist()
        for i, lam in enumerate(lams):
            ha, hb, hmix = h[3 * i : 3 * i + 3]
            bound = k * math.log(sizes[i])
            min_entropy = min(min_entropy, ha, hb)
            max_bound_excess = max(max_bound_excess, ha - bound, hb - bound)
            slack = hmix - (lam * ha + (1.0 - lam) * hb)
            concavity_min_slack = min(concavity_min_slack, slack)
        drawn = _pinsker_holds(flat, offsets, h, k).reshape(-1, 3)[:, :2]
        equality_only_at_uniform = equality_only_at_uniform and bool(drawn.all())

    # equality at the uniform point, for a spread of sizes
    uniform_gap = max(
        abs(shannon_entropy(DiscreteDistribution(np.full(n, 1.0 / n)), k).value - k * math.log(n))
        for n in (1, 2, 3, 7, 16, 64)
    )

    # rows per pair: p, q and their joint distribution
    additivity_max = 0.0
    for flat, offsets, _ in _blocks(_product_draws(rng, additivity_pairs, max_n)):
        tol = np.full(offsets.size - 1, DEFAULT_TOLERANCE)
        n = np.diff(offsets)
        tol[2::3] = product_tolerance(DEFAULT_TOLERANCE, n[0::3] + n[1::3])
        check_probability_rows(flat, offsets, tol)
        h = entropy_rows(flat, offsets, k)
        for hp, hq, joint in zip(h[0::3], h[1::3], h[2::3]):
            additivity_max = max(additivity_max, abs(joint - hp - hq))

    # rows per pair: the start point p and the flattened q
    majorization_violations = 0
    for flat, offsets, _ in _blocks(_majorization_draws(rng, majorization_pairs, max_n)):
        check_probability_rows(flat, offsets, DEFAULT_TOLERANCE)
        h = entropy_rows(flat, offsets, k)
        rows = _padded(flat, offsets)
        p_maj_q = _majorizes(rows[0::2], rows[1::2]).tolist()
        q_maj_p = _majorizes(rows[1::2], rows[0::2]).tolist()
        for pq, qp, hp, hq in zip(p_maj_q, q_maj_p, h[0::2], h[1::2]):
            if not (pq and _entropy_ordered(pq, qp, hp, hq)):
                majorization_violations += 1

    passed = (
        min_entropy >= 0.0
        and max_bound_excess <= 1e-12
        and uniform_gap <= 1e-12
        and equality_only_at_uniform
        and additivity_max <= 1e-10
        and concavity_min_slack >= -1e-10
        and majorization_violations == 0
    )
    return AxiomSuiteReport(
        seed=seed,
        n_distributions=n_distributions,
        max_n=max_n,
        min_entropy=min_entropy,
        max_uniform_bound_excess=max_bound_excess,
        uniform_equality_gap=uniform_gap,
        equality_only_at_uniform=equality_only_at_uniform,
        additivity_pairs=additivity_pairs,
        additivity_max_defect=additivity_max,
        concavity_min_slack=concavity_min_slack,
        majorization_pairs=majorization_pairs,
        majorization_violations=majorization_violations,
        passed=passed,
    )
