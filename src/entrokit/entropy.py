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
    BinnedVariable,
    DiscreteDistribution,
    EntropyValue,
    check_positive,
    product_distribution,
)
from .errors import PhiUndefined, ValidationError

MAJORIZATION_TOL = 1e-12


def _neg_plogp_terms(probs: np.ndarray) -> list[float]:
    pos = probs[probs > 0]
    return (-pos * np.log(pos)).tolist()


def shannon_entropy(p: DiscreteDistribution, k: float = 1.0) -> EntropyValue:
    """-k * sum(p_i ln p_i), with zero entries contributing exactly 0."""
    check_positive(k, "k")
    value = k * math.fsum(_neg_plogp_terms(p.probs))
    return EntropyValue.from_k(value, k)


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
    check_positive(k, "k")
    p = v.probs
    h = v.widths
    mask = p > 0
    terms = (-p[mask] * (np.log(p[mask]) - np.log(h[mask]))).tolist()
    return EntropyValue.from_k(k * math.fsum(terms), k)


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


def _majorizes(a: np.ndarray, b: np.ndarray) -> bool:
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(pa >= pb - MAJORIZATION_TOL))


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
    ordered = True
    if p_maj_q:
        ordered = ordered and hp <= hq + MAJORIZATION_TOL
    if q_maj_p:
        ordered = ordered and hq <= hp + MAJORIZATION_TOL
    return MajorizationReport(
        majorizes=p_maj_q,
        entropy_ordered=ordered,
        incomparable=not (p_maj_q or q_maj_p),
    )


# -- randomized axiom-verification suite ---------------------------------------
#
# Everything below is seed-driven so parallel or repeated runs reproduce
# bit-identically.


def random_distribution(rng: np.random.Generator, n: int) -> DiscreteDistribution:
    """Uniform draw from the n-simplex (normalized exponentials)."""
    w = rng.exponential(size=n)
    return DiscreteDistribution(w / math.fsum(w.tolist()))


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
    start = random_distribution(rng, n).probs.copy()
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
    return DiscreteDistribution(start), DiscreteDistribution(flat)


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
    concavity mixture test and the per-distribution checks.
    """
    check_positive(k, "k")
    rng = np.random.default_rng(seed)

    min_entropy = math.inf
    max_bound_excess = -math.inf
    concavity_min_slack = math.inf
    equality_only_at_uniform = True

    n_pairs = n_distributions // 2
    for _ in range(n_pairs):
        n = int(rng.integers(1, max_n + 1))
        a = random_distribution(rng, n)
        b = random_distribution(rng, n)
        ha = shannon_entropy(a, k).value
        hb = shannon_entropy(b, k).value
        bound = k * math.log(n)
        min_entropy = min(min_entropy, ha, hb)
        max_bound_excess = max(max_bound_excess, ha - bound, hb - bound)
        for d, h in ((a, ha), (b, hb)):
            if bound - h <= 1e-12 and np.max(np.abs(d.probs - 1.0 / n)) > 1e-9:
                equality_only_at_uniform = False
        lam = rng.uniform(0.0, 1.0)
        mix = DiscreteDistribution(lam * a.probs + (1.0 - lam) * b.probs)
        slack = shannon_entropy(mix, k).value - (lam * ha + (1.0 - lam) * hb)
        concavity_min_slack = min(concavity_min_slack, slack)

    # equality at the uniform point, for a spread of sizes
    uniform_gap = max(
        abs(shannon_entropy(DiscreteDistribution(np.full(n, 1.0 / n)), k).value - k * math.log(n))
        for n in (1, 2, 3, 7, 16, 64)
    )

    additivity_max = 0.0
    for _ in range(additivity_pairs):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.integers(1, max_n + 1))
        defect = additivity_defect(random_distribution(rng, n), random_distribution(rng, m), k)
        additivity_max = max(additivity_max, defect)

    majorization_violations = 0
    for _ in range(majorization_pairs):
        n = int(rng.integers(2, max_n + 1))
        p, q = robin_hood_pair(rng, n, transfers=int(rng.integers(1, 6)))
        report = schur_concavity_check(p, q, k)
        if not (report.majorizes and report.entropy_ordered):
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
        n_distributions=2 * n_pairs,
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
