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
    MAX_ROW,
    BinnedVariable,
    DiscreteDistribution,
    EntropyValue,
    check_count,
    check_real,
    offsets_of,
    product_distribution,
    row_blocks,
    segment_fsums,
)
from .errors import EvaluationFailure, PhiUndefined, ValidationError

MAJORIZATION_TOL = 1e-12
# slack of the Pinsker test, 1/2 |p - u|_1^2 <= ln n - H
PINSKER_SLACK = 1e-12


def entropy_terms(flat: np.ndarray, log_h=0.0) -> np.ndarray:
    """-p (ln p - ln h) for every entry p, shaped like flat and 0 where p = 0, with ln h
    a scalar (0 for Shannon) or an array that broadcasts to flat's shape: total
    entropy's terms (section 3).  A block's terms keep the block's offsets.
    Formed in the log's output array: -(p x) is (-p) x exactly.  Only a
    block that may hold a zero (or a nan) masks its log."""
    if flat.min() > 0:
        terms = np.log(flat)
    else:
        terms = np.log(flat, out=np.zeros_like(flat), where=flat > 0)
    terms -= log_h
    terms *= flat
    return np.negative(terms, out=terms)


def entropy_rows(flat: np.ndarray, offsets: np.ndarray, log_h=0.0) -> list[float]:
    """fsum(entropy_terms) of every row of a block, in nats: the one entropy sum."""
    # Python floats, not float64: where k * S overflows, a float gives inf for
    # EntropyValue to refuse, and a float64 raises numpy's overflow warning first
    return segment_fsums(entropy_terms(flat, log_h), offsets).tolist()


def shannon_entropy(p: DiscreteDistribution, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i), with zero entries contributing exactly 0."""
    return EntropyValue.of(entropy_rows(p.probs, np.array([0, p.n]))[0], k)


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
        zero = self.zero_value
        if not (isinstance(zero, float) and math.isnan(zero)):  # nan: undeclared
            object.__setattr__(self, "zero_value", check_real(zero, f"{self.name}: phi(0)"))

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
    return EntropyValue.of(entropy_rows(v.probs, np.array([0, v.dist.n]), np.log(v.widths))[0], k)


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


def simplex_rows(rng: np.random.Generator, offsets: np.ndarray) -> np.ndarray:
    """The package's one simplex draw, uniform on each row's simplex: exponentials
    from one rng call, each row over its plain sum (np.add.reduceat: no report
    carries it); a row summing to 0 (drawn once in about 2^53) is refused, as 0/0.

    The suites' rows are probability rows by construction, so none is checked.
    With u = 2^-53, every entry is finite and >= 0, and the exact sum of a row of
    n entries is within (n + 8)u + n 2^-1073 of 1; with the u of a check's fsum,
    about 4.7e-10 at MAX_ROW = 2^22, half a tolerance of 1e-9.  Model: fl(x op y) =
    (x op y)(1 + d) + e, |d| <= u, |e| <= 2^-1075 only if a product or quotient
    underflows; terms of order n^2 u^2 stay below u.
    - Simplex rows fl(w_i / S) <= 1, as S = sum(w)(1 + d0) >= each w_i, where
      |d0| <= (n - 1)u / (1 - (n - 1)u) for n nonnegative terms added in any
      order (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).  They
      sum to (1 + a w-weighted mean of the d_i) / (1 + d0): within (n + 1)u.
      numpy adds pairwise, far tighter, as the suites' 1e-12 thresholds need.
    - Mixtures fl(fl(lam a_i) + fl((1 - lam) b_i)) (run_axiom_suite): 1 - lam is
      exact (lam is on the 2^-53 grid of [0, 1)), and each entry errs by 2u + u^2
      relative at most: within (n + 4)u.  Joint rows fl(p_j q_a), n = n_p n_q:
      within (n_p + n_q + 3)u <= (n + 4)u.  Up to 5 Robin Hood transfers: eps =
      fl(U fl(q_big - q_small)), U in [0, 1/2), is at most half the gap, so both
      entries stay >= 0, and each transfer rounds two nonnegative sums, moving
      the row's sum by at most u times it: within (n + 6)u.
    - Max-entropy trials fl(fl(t q_i) + fl((1 - t) c_i)) (maxent_shell_check): t
      and 1 - t are exact (1 - t is on the 2^-53 grid), and the uniform masses
      c_i = fl(w_i fl(1/T)), T = fsum(w), sum to within 6u of 1, as fl(1/T) errs
      by 4u at most (T 2^-1075 < 2^-51 where 1/T is subnormal): within (m + 8)u.
      No MAX_ROW bounds the m cells: past about 2^23 the bound passes 1e-9."""
    w = rng.standard_exponential(offsets[-1])
    sums = np.add.reduceat(w, offsets[:-1])
    if not np.all(sums > 0):
        raise ValidationError("a simplex row drew only zeros: draw it from another seed")
    w /= np.repeat(sums, np.diff(offsets))
    return w


def random_distribution(rng: np.random.Generator, n: int) -> DiscreteDistribution:
    """Uniform draw from the n-simplex (normalized exponentials)."""
    check_count(n, "n", 1, MAX_ROW)
    return DiscreteDistribution(simplex_rows(rng, np.array([0, n])))


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
    start = simplex_rows(rng, offsets)
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
        for a, b in row_blocks(elements(sizes)):
            yield sizes[:, a:b]


def _padded(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The rows of a block as a zero-padded 2-D array."""
    n = np.diff(offsets)
    out = np.zeros((n.size, n.max()))
    out[np.arange(n.max()) < n[:, None]] = flat
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
    check_count(seed, "seed", 0)
    check_count(n_distributions, "n_distributions", 2)
    if n_distributions % 2:
        raise ValidationError(f"n_distributions must be even, got {n_distributions}")
    check_count(additivity_pairs, "additivity_pairs", 0)
    check_count(majorization_pairs, "majorization_pairs", 0)
    largest = math.isqrt(MAX_ROW) if additivity_pairs > 0 else MAX_ROW
    check_count(max_n, "max_n", 2 if majorization_pairs > 0 else 1, largest)
    # a row of n entries holds at most ln n nats, and one nat more covers
    # rounding: every k * H below is finite when this bound is
    n_max = max(64, max_n**2 if additivity_pairs > 0 else max_n)  # 64: the uniform rows
    k = EntropyValue.of(math.log(n_max) + 1.0, k).k
    rng = np.random.default_rng(seed)

    min_entropy = math.inf
    max_bound_excess = -math.inf
    concavity_min_slack = math.inf
    equality_only_at_uniform = True

    # rows: every a, every b, then every mixture lam * a + (1 - lam) * b
    for (n,) in _pair_blocks(rng, n_distributions // 2, [1], [max_n + 1], lambda s: 3 * s[0]):
        offsets = offsets_of(np.tile(n, 3))
        ab = simplex_rows(rng, offsets[: 2 * n.size + 1])
        lam = rng.uniform(0.0, 1.0, n.size)
        w = np.repeat(lam, n)
        a, b = np.split(ab, 2)
        flat = np.concatenate((ab, a))  # the copy of a becomes the mixture in place
        flat[ab.size :] *= w
        np.subtract(1.0, w, out=w)
        w *= b
        flat[ab.size :] += w
        h = (k * np.array(entropy_rows(flat, offsets))).reshape(3, -1)
        ha, hb, hmix = h
        min_entropy = min(min_entropy, float(h[:2].min()))
        max_bound_excess = max(max_bound_excess, float((h[:2] - k * np.log(n)).max()))
        slack = hmix - (lam * ha + (1.0 - lam) * hb)
        concavity_min_slack = min(concavity_min_slack, float(slack.min()))
        holds = _pinsker_holds(ab, offsets[: 2 * n.size + 1], h[:2].ravel(), k)
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
        pq = simplex_rows(rng, offsets[: 2 * n.size + 1])
        # joint row r is p_j q_a for each p_j of pair r in turn, and each q_a:
        # every p_j repeated, times q's row read through a running index a
        # that steps by 1 and jumps back from the last q_a to the first
        width = np.repeat(m, n)
        start = np.repeat(offsets[n.size : 2 * n.size], n)
        a = np.ones(width.sum(), dtype=np.intp)
        a[offsets_of(width)[:-1]] = start - np.concatenate(([0], start[:-1] + width[:-1] - 1))
        np.cumsum(a, out=a)
        flat = np.concatenate((pq, np.repeat(pq[: start.size], width)))
        flat[pq.size :] *= pq[a]
        hp, hq, hjoint = (k * np.array(entropy_rows(flat, offsets))).reshape(3, -1)
        additivity_max = max(additivity_max, float(np.abs(hjoint - hp - hq).max()))

    # rows: every start point p, then every flattened q; 1 to 5 transfers
    majorization_violations = 0
    for n, transfers in _pair_blocks(rng, majorization_pairs, [2, 1], [max_n + 1, 6],
                                     lambda s: 2 * s[0]):
        offsets = offsets_of(np.tile(n, 2))
        start = simplex_rows(rng, offsets[: n.size + 1])
        flat = np.concatenate((start, _robin_hood(rng, start, offsets[: n.size + 1], transfers)))
        hp, hq = np.array(entropy_rows(flat, offsets)).reshape(2, -1)  # in nats, as the tolerance
        p, q = np.split(_padded(flat, offsets), 2)
        p_maj_q = _majorizes(p, q)
        ordered = _entropy_ordered(p_maj_q, _majorizes(q, p), hp, hq)
        majorization_violations += int(np.count_nonzero(~(p_maj_q & ordered)))

    # decided in nats, reported in units of k: k scales each defect and its
    # rounding alike, so the thresholds bound the defects over k
    passed = (
        min_entropy >= 0.0
        and max_bound_excess / k <= 1e-12
        and uniform_gap / k <= 1e-12
        and equality_only_at_uniform
        and additivity_max / k <= 1e-10
        and concavity_min_slack / k >= -1e-10
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
