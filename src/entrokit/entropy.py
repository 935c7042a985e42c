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
    offsets_of,
    product_distribution,
    product_tolerance,
    segment_fsums,
)
from .errors import EvaluationFailure, PhiUndefined, ValidationError

MAJORIZATION_TOL = 1e-12
# slack of the Pinsker test, 1/2 |p - u|_1^2 <= ln n - H
PINSKER_SLACK = 1e-12


def entropy_terms(flat: np.ndarray, log_h=0.0) -> np.ndarray:
    """-p (ln p - ln h) for every entry p, shaped like flat and 0 where p = 0, with ln h
    a scalar (0 for Shannon) or an array that broadcasts against flat: total
    entropy's terms (section 3).  A block's terms keep the block's offsets."""
    return -flat * (np.log(flat, out=np.zeros_like(flat), where=flat > 0) - log_h)


def entropy_rows(flat: np.ndarray, offsets: np.ndarray, k: float = 1.0, log_h=0.0) -> list[float]:
    """k * fsum(entropy_terms) of every row of a block: the one entropy sum."""
    values = [k * s for s in segment_fsums(entropy_terms(flat, log_h), offsets).tolist()]
    for v in values:
        if not math.isfinite(v):
            EntropyValue(v, k)  # raises: k is bad or the value has overflowed
    return values


def shannon_entropy(p: DiscreteDistribution, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i), with zero entries contributing exactly 0."""
    return EntropyValue(entropy_rows(p.probs, np.array([0, p.n]), k)[0], k)


def evaluate(g: Callable[[float], float], p: float, name: str) -> float:
    """g(p) as a float: the one evaluation of a user-supplied function.
    Raises EvaluationFailure when the call fails or the value is not finite."""
    try:
        v = float(g(p))
    except (ArithmeticError, ValueError) as e:
        raise EvaluationFailure(f"{name} failed at p = {p}: {e}") from e
    if not math.isfinite(v):
        raise EvaluationFailure(f"{name} not finite at p = {p}")
    return v


@dataclass(frozen=True)
class PhiFunction:
    """Pointwise entropy kernel phi: [0, 1] -> R, summed over probabilities.

    The value at 0 must be supplied explicitly, finite, or left as nan for
    undeclared; only the Shannon kernel carries the 0*ln(0) = 0 convention
    built in.  Every other value goes through evaluate.
    """

    evaluator: Callable[[float], float]
    name: str
    zero_value: float = math.nan

    def __post_init__(self) -> None:
        if math.isinf(self.zero_value):
            raise ValidationError(f"{self.name}: the value at p = 0 must be finite, got "
                                  f"{self.zero_value}")

    def __call__(self, p: float) -> float:
        if p == 0.0:
            if math.isnan(self.zero_value):
                raise PhiUndefined(f"{self.name}: no value declared at p = 0")
            return self.zero_value
        return evaluate(self.evaluator, p, self.name)

    def concavity_margin(self, seed: int = 0, n_samples: int = 256) -> float:
        """Worst value of phi(mix) - [lam*phi(p) + (1-lam)*phi(q)] over random
        p, q, lam in (0, 1); >= -1e-12 for a concave kernel.  Raises
        EvaluationFailure where a gap is not finite."""
        check_count(seed, "seed", 0)
        check_count(n_samples, "n_samples", 1)
        rng = np.random.default_rng(seed)
        worst = math.inf
        for _ in range(n_samples):
            # Python floats: a gap beyond the float range is inf, not a numpy warning
            p, q, lam = rng.uniform(1e-12, 1.0, size=3).tolist()
            gap = self(lam * p + (1 - lam) * q) - (lam * self(p) + (1 - lam) * self(q))
            if not math.isfinite(gap):
                raise EvaluationFailure(f"{self.name}: concavity gap not finite at "
                                        f"p = {p}, q = {q}, lam = {lam}")
            worst = min(worst, gap)
        return worst


def shannon_phi() -> PhiFunction:
    return PhiFunction(lambda p: -p * math.log(p), name="shannon", zero_value=0.0)


def phi_entropy(p: DiscreteDistribution, phi: PhiFunction) -> float:
    """sum(phi(p_i)), exactly rounded; raises EvaluationFailure where the
    kernel or the sum is not finite."""
    try:
        return math.fsum(phi(pi) for pi in p.probs.tolist())
    except OverflowError:
        raise EvaluationFailure(f"sum of {phi.name} lies beyond the float range") from None


def total_entropy(v: BinnedVariable, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln(p_i / h_i)): Shannon entropy plus the expected
    post-observational uncertainty k ln h_i per interval."""
    return EntropyValue(entropy_rows(v.probs, np.array([0, v.dist.n]), k, np.log(v.widths))[0], k)


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


def _entropy_ordered(p_maj_q, q_maj_p, hp, hq) -> np.ndarray:
    """The more concentrated distribution has the smaller entropy, for
    whichever majorization holds (vacuously true for incomparable pairs):
    element by element, over numpy bools and entropies."""
    return (~p_maj_q | (hp <= hq + MAJORIZATION_TOL)) & (
        ~q_maj_p | (hq <= hp + MAJORIZATION_TOL)
    )


def schur_concavity_check(
    p: DiscreteDistribution, q: DiscreteDistribution, k: float = 1.0
) -> MajorizationReport:
    """Determine majorization between p and q and verify the Schur-concave
    ordering: the more concentrated distribution has the smaller entropy."""
    if p.n != q.n:
        raise ValidationError(f"majorization needs equal lengths, got {p.n} and {q.n}")
    p_maj_q = _majorizes(p.probs, q.probs)
    q_maj_p = _majorizes(q.probs, p.probs)
    hp = shannon_entropy(p, k).value
    hq = shannon_entropy(q, k).value
    return MajorizationReport(
        majorizes=bool(p_maj_q),
        entropy_ordered=bool(_entropy_ordered(p_maj_q, q_maj_p, hp, hq)),
        incomparable=not (p_maj_q or q_maj_p),
    )


# -- randomized axiom-verification suite ---------------------------------------
#
# Everything below is seed-driven so parallel or repeated runs reproduce
# bit-identically.  The draws and the checks both run on blocks of about
# BLOCK_ELEMENTS drawn elements: a few rng calls draw a whole block of
# pairs, which the checks then read as arrays.


def _columns(offsets: np.ndarray) -> np.ndarray:
    """The position of every element of a block within its row."""
    return np.arange(offsets[0], offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))


def _simplex_rows(rng: np.random.Generator, offsets: np.ndarray) -> np.ndarray:
    """Uniform draws from the simplices of the rows of a block: normalized
    exponentials, drawn by one rng call, each row divided by its exact sum
    (fsum's bits, from segment_fsums)."""
    w = rng.exponential(size=offsets[-1])
    return w / np.repeat(segment_fsums(w, offsets), np.diff(offsets))


def random_distribution(rng: np.random.Generator, n: int) -> DiscreteDistribution:
    """Uniform draw from the n-simplex (normalized exponentials)."""
    check_count(n, "n", 1, MAX_ROW)
    return DiscreteDistribution(_simplex_rows(rng, np.array([0, n])))


def _robin_hood(rng, flat: np.ndarray, offsets: np.ndarray, transfers: np.ndarray) -> np.ndarray:
    """The rows of a block after transfers[r] Robin Hood transfers on row r:
    one step per transfer, each taken on every row with transfers left."""
    q = flat.copy()
    n = np.diff(offsets)
    for step in range(int(transfers.max())):
        rows = np.flatnonzero(transfers > step)
        i = rng.integers(0, n[rows])
        # j is i shifted cyclically by 1 to n - 1: any other coordinate
        i, j = offsets[rows] + i, offsets[rows] + (i + rng.integers(1, n[rows])) % n[rows]
        big = np.where(q[i] >= q[j], i, j)
        small = i + j - big
        eps = rng.uniform(0.0, 0.5, rows.size) * (q[big] - q[small])
        q[big] -= eps
        q[small] += eps
    return q


def robin_hood_pair(
    rng: np.random.Generator, n: int, transfers: int = 4
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Majorization pair (p, q) with p majorizing q by construction.

    Each transfer moves mass from a larger coordinate to a smaller one by at
    most half their gap, which flattens the vector without crossing it, so
    the start point majorizes every later one.
    """
    check_count(n, "n", 2, MAX_ROW)
    check_count(transfers, "transfers", 0)
    offsets = np.array([0, n])
    start = _simplex_rows(rng, offsets)
    flat = _robin_hood(rng, start, offsets, np.array([transfers]))
    return DiscreteDistribution(start), DiscreteDistribution(flat)


def _pair_blocks(rng: np.random.Generator, pairs: int, low, high, elements):
    """The sizes of `pairs` pairs, one row per entry of low and high, drawn
    from [low, high) at most BLOCK_ELEMENTS pairs at a time, so that no
    array grows with `pairs`.  They come in blocks of consecutive pairs that
    hold at most BLOCK_ELEMENTS elements, as elements(sizes) counts them,
    unless one pair alone holds more."""
    for first in range(0, pairs, BLOCK_ELEMENTS):
        sizes = rng.integers(low, high, (min(BLOCK_ELEMENTS, pairs - first), len(low))).T
        ends = offsets_of(elements(sizes))
        a = 0
        while a < sizes.shape[1]:
            b = max(a + 1, int(np.searchsorted(ends, ends[a] + BLOCK_ELEMENTS, "right")) - 1)
            yield sizes[:, a:b]
            a = b


def _padded(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The rows of a block as a zero-padded 2-D array."""
    n = np.diff(offsets)
    out = np.zeros((n.size, n.max()))
    out[np.repeat(np.arange(n.size), n), _columns(offsets)] = flat
    return out


def _pinsker_holds(flat, offsets, h, k: float) -> np.ndarray:
    """1/2 |p - u|_1^2 <= (ln n - H/k) + slack for every row: Pinsker's
    inequality against the uniform point u, so H = ln n only at p = u."""
    n = np.diff(offsets)
    l1 = np.add.reduceat(np.abs(flat - np.repeat(1.0 / n, n)), offsets[:-1])
    return 0.5 * l1**2 <= (np.log(n) - np.asarray(h) / k) + PINSKER_SLACK


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
    check_count(seed, "seed", 0)
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

    # rows: every a, every b, then every mixture lam * a + (1 - lam) * b
    for (n,) in _pair_blocks(rng, n_distributions // 2, [1], [max_n + 1], lambda s: 3 * s[0]):
        offsets = offsets_of(np.tile(n, 3))
        ab = _simplex_rows(rng, offsets[: 2 * n.size + 1])
        lam = rng.uniform(0.0, 1.0, n.size)
        w = np.repeat(lam, n)
        a, b = np.split(ab, 2)
        flat = np.concatenate((ab, w * a + (1.0 - w) * b))
        check_probability_rows(flat, offsets, DEFAULT_TOLERANCE)
        h = np.array(entropy_rows(flat, offsets, k)).reshape(3, -1)
        ha, hb, hmix = h
        min_entropy = min(min_entropy, float(h[:2].min()))
        max_bound_excess = max(max_bound_excess, float((h[:2] - k * np.log(n)).max()))
        slack = hmix - (lam * ha + (1.0 - lam) * hb)
        concavity_min_slack = min(concavity_min_slack, float(slack.min()))
        holds = _pinsker_holds(flat, offsets, h.ravel(), k)[: 2 * n.size]
        equality_only_at_uniform = equality_only_at_uniform and bool(holds.all())

    # equality at the uniform point, for a spread of sizes
    uniform_gap = max(
        abs(shannon_entropy(DiscreteDistribution(np.full(n, 1.0 / n)), k).value - k * math.log(n))
        for n in (1, 2, 3, 7, 16, 64)
    )

    # rows: every p, every q, then every joint distribution p x q
    additivity_max = 0.0
    for n, m in _pair_blocks(rng, additivity_pairs, [1, 1], [max_n + 1] * 2,
                             lambda s: s[0] + s[1] + s[0] * s[1]):
        offsets = offsets_of(np.concatenate((n, m, n * m)))
        pq = _simplex_rows(rng, offsets[: 2 * n.size + 1])
        pair = np.repeat(np.arange(n.size), n * m)
        at = _columns(offsets[2 * n.size :])  # entry (j, a) of joint row r is p_j q_a
        joint = pq[offsets[pair] + at // m[pair]] * pq[offsets[n.size + pair] + at % m[pair]]
        flat = np.concatenate((pq, joint))
        tol = np.full(3 * n.size, DEFAULT_TOLERANCE)
        tol[2 * n.size :] = product_tolerance(DEFAULT_TOLERANCE, n + m)
        check_probability_rows(flat, offsets, tol)
        hp, hq, hjoint = np.array(entropy_rows(flat, offsets, k)).reshape(3, -1)
        additivity_max = max(additivity_max, float(np.abs(hjoint - hp - hq).max()))

    # rows: every start point p, then every flattened q; 1 to 5 transfers
    majorization_violations = 0
    for n, transfers in _pair_blocks(rng, majorization_pairs, [2, 1], [max_n + 1, 6],
                                     lambda s: 2 * s[0]):
        offsets = offsets_of(np.tile(n, 2))
        start = _simplex_rows(rng, offsets[: n.size + 1])
        flat = np.concatenate((start, _robin_hood(rng, start, offsets[: n.size + 1], transfers)))
        check_probability_rows(flat, offsets, DEFAULT_TOLERANCE)
        hp, hq = np.array(entropy_rows(flat, offsets, k)).reshape(2, -1)
        p, q = np.split(_padded(flat, offsets), 2)
        p_maj_q = _majorizes(p, q)
        ordered = _entropy_ordered(p_maj_q, _majorizes(q, p), hp, hq)
        majorization_violations += int(np.count_nonzero(~(p_maj_q & ordered)))

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
