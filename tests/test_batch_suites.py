"""The block-batched axiom and max-entropy suites: their draws against
per-row references, and their memory against a fixed ceiling.

Their outputs are pinned by the `suites` and `maxent` sections of the bits
corpus (`tests/test_bits_golden.py`); the two per-case tests here read
those sections from the one computation of the corpus per test run.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from entrokit import (
    DiscreteDistribution,
    DiscretizedShellDensity,
    ValidationError,
    cli,
    entropy,
    maxent_shell_check,
    random_distribution,
    run_axiom_suite,
    schur_concavity_check,
    shell_entropy,
    statmech,
)
from entrokit.distributions import BLOCK_ELEMENTS, normalized_rows, offsets_of, segment_fsums

from conftest import peak_bytes, row_sums

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "bits_golden.json").read_text())

# Blocks hold about 16,384 elements, so a default suite and a 4,096-cell
# max-entropy check peak near 1.4 and 0.8 MiB; a batch over a whole phase at
# once peaks above 30 MiB.
PEAK_CEILING = 2 * 2**20


@given(st.lists(st.integers(1, 64), min_size=1, max_size=20), st.integers(0, 2**32 - 1))
@example([BLOCK_ELEMENTS + 1], 0)
@example([3, BLOCK_ELEMENTS + 7, 1], 5)
def test_simplex_rows_are_exponentials_over_their_reduceat_sum(sizes, seed):
    """Each row is its exponentials over their np.add.reduceat sum, taken of
    a copy of the row alone: a row's sum does not depend on where the row
    lies in its block."""
    offsets = offsets_of(sizes)
    drawn = entropy.simplex_rows(np.random.default_rng(seed), offsets)
    w = np.random.default_rng(seed).exponential(size=offsets[-1])
    for (a, b), total in zip(zip(offsets[:-1], offsets[1:]), row_sums(w, offsets)):
        assert drawn[a:b].tobytes() == (w[a:b] / total).tobytes()


@given(st.integers(1, 5000), st.integers(0, 2**32 - 1))
def test_random_distribution_is_the_per_row_formula(n, seed):
    w = np.random.default_rng(seed).exponential(size=n)
    expected = w / np.add.reduceat(w, [0])
    drawn = random_distribution(np.random.default_rng(seed), n).probs
    assert drawn.tobytes() == expected.tobytes()


@given(st.lists(st.tuples(st.integers(2, 40), st.integers(1, 5)), min_size=1, max_size=30),
       st.integers(0, 2**32 - 1))
@example([(2, 5)], 0)
@example([(2, 5), (2, 1), (40, 5), (3, 3)], 1)
def test_robin_hood_blocks_keep_every_pair_ordered(pairs, seed):
    n, transfers = np.array(pairs).T
    offsets = offsets_of(n)
    rng = np.random.default_rng(seed)
    start = entropy.simplex_rows(rng, offsets)
    flat = entropy._robin_hood(rng, start, offsets, transfers)
    for a, b in zip(offsets[:-1], offsets[1:]):
        report = schur_concavity_check(DiscreteDistribution(start[a:b]),
                                       DiscreteDistribution(flat[a:b]))
        assert report.majorizes and report.entropy_ordered


@pytest.mark.parametrize(
    "sizes",
    [{}, {"n_distributions": 60, "max_n": 150, "additivity_pairs": 6,
          "majorization_pairs": 10}],
    ids=["defaults", "max-n-150"],
)
def test_blocks_hold_at_most_block_elements_unless_one_pair(sizes, monkeypatch):
    blocks = []

    def record(flat, offsets, log_h=0.0):
        if offsets.size > 2:  # not a uniform row's sum, through shannon_entropy
            blocks.append((flat.size, offsets.size - 1))
        return entropy_rows(flat, offsets, log_h)

    entropy_rows = entropy.entropy_rows
    monkeypatch.setattr(entropy, "entropy_rows", record)
    report = run_axiom_suite(11, **sizes)
    assert report.passed
    # a pair is three rows (a, b, mixture; p, q, joint) or two (p, q)
    for elements, rows in blocks:
        assert elements <= BLOCK_ELEMENTS or rows <= 3
    assert sum(rows for _, rows in blocks) == (
        3 * (report.n_distributions // 2 + report.additivity_pairs)
        + 2 * report.majorization_pairs
    )
    if not sizes:  # many pairs per block, not one pair of the largest size each
        assert sum(elements for elements, _ in blocks) > len(blocks) * BLOCK_ELEMENTS / 2


@pytest.mark.parametrize(
    "i", range(len(GOLDEN["suites"])), ids=[f"{c['name']}-{c['seed']}" for c in GOLDEN["suites"]]
)
def test_suite_report_bytes(i, bits_corpus, pinned_corpus):
    assert bits_corpus["suites"][i] == pinned_corpus["suites"][i]


def _cells(m):
    return DiscretizedShellDensity.uniform(np.random.default_rng(m).uniform(0.5, 2.0, m))


@pytest.mark.parametrize(
    "i", range(len(GOLDEN["maxent"])), ids=[f"m{c['m']}-C{c['C']}" for c in GOLDEN["maxent"]]
)
def test_maxent_results(i, bits_corpus, pinned_corpus):
    assert bits_corpus["maxent"][i] == pinned_corpus["maxent"][i]


def _trials(d, trials, seed):
    """The cell masses of maxent_shell_check's trials, drawn one at a time
    from the check's two child streams of the seed, in the order it reads
    them."""
    w = d.cell_volumes
    u = w * DiscretizedShellDensity.uniform(w).densities
    draws, weights = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    for _ in range(trials):
        raw = draws.exponential(size=w.size)
        q = raw / np.add.reduceat(raw, [0])
        t = 1.0 - weights.random()
        yield (1.0 - t) * u + t * q


def _trial_entropies(d, C, trials, seed):
    """The shell entropy of each trial, from the carrier of its density
    masses / w on d's cells w."""
    w = d.cell_volumes
    return [shell_entropy(DiscretizedShellDensity(w, masses / w), C).value
            for masses in _trials(d, trials, seed)]


def _reference_maxent(d, C, trials, seed, entropies):
    """The per-trial loop the batched check replaced: check each trial's
    masses as a carrier on unit cells, whose masses are the trial's bit for
    bit, then compare its entropy with the uniform one plus the slack."""
    threshold = shell_entropy(DiscretizedShellDensity.uniform(d.cell_volumes), C).value
    threshold += statmech.MAXENT_SLACK
    for masses, s in zip(_trials(d, trials, seed), entropies):
        DiscretizedShellDensity(np.ones(masses.size), masses)
        if s > threshold:
            return False
    return True


def _new_lows(values):
    """(i, cut) for every trial i > 0 whose value is below all earlier ones,
    with a cut strictly between it and the lowest earlier value."""
    lows = []
    for i in range(1, len(values)):
        low = min(values[:i])
        if values[i] < low:
            lows.append((i, 0.5 * (values[i] + low)))
    return lows


# all 80 trials in one block; 3 trials a block; 1 trial a block, at both ends
# of the one-trial range
@pytest.mark.parametrize(
    "m", [64, BLOCK_ELEMENTS // 4 + 1, BLOCK_ELEMENTS // 2 + 1, BLOCK_ELEMENTS]
)
def test_maxent_decisions_match_the_per_trial_loop(m, monkeypatch):
    """Make chosen trials exceed the threshold (a negative slack), at
    positions inside a block, and check that the batched check returns as
    the per-trial loop does."""
    d, C, trials, seed = _cells(m), 1.0, 80, 3
    w = d.cell_volumes
    s_uniform = shell_entropy(DiscretizedShellDensity.uniform(w), C).value
    entropies = _trial_entropies(d, C, trials, seed)
    deficit = [s_uniform - s for s in entropies]
    # each cut picks one trial: a slack of -cut makes it the first to exceed
    # the threshold
    first_exceeding = _new_lows(deficit)
    assert first_exceeding
    outcomes = set()
    for slack in [statmech.MAXENT_SLACK] + [-cut for _, cut in first_exceeding]:
        monkeypatch.setattr(statmech, "MAXENT_SLACK", slack)
        expected = _reference_maxent(d, C, trials, seed, entropies)
        assert maxent_shell_check(d, C, trials=trials, seed=seed).is_maximal is expected
        outcomes.add("maximal" if expected else "exceeds")
    assert outcomes == {"exceeds", "maximal"}


@pytest.mark.parametrize("m", [64, BLOCK_ELEMENTS // 4 + 1])
def test_maxent_first_block_holds_the_per_trial_masses(m, monkeypatch):
    """The first block's cell masses are _trials' out-of-place masses, bit
    for bit: 80 trials in one block, and 3 trials a block.  A change of
    stream, of draw order or of the mixing arithmetic fails here, where the
    planted slacks and tolerances of the decision test may still agree."""
    d, C, trials, seed = _cells(m), 1.0, 80, 3
    blocks = []
    terms = statmech.entropy_terms

    def record(masses, log_h):
        blocks.append(masses.copy())
        return terms(masses, log_h)

    monkeypatch.setattr(statmech, "entropy_terms", record)
    assert maxent_shell_check(d, C, trials=trials, seed=seed).is_maximal
    rows = min(trials, BLOCK_ELEMENTS // m)
    expected = np.array(list(_trials(d, rows, seed)))
    assert blocks[0].shape == (rows, m)
    assert blocks[0].tobytes() == expected.tobytes()


def test_maxent_report_does_not_depend_on_the_block_size(monkeypatch):
    """Each of the check's two streams is read in order whatever the block
    size, so blocks of one trial, of a few and of all of them give the same
    report, and a planted negative slack stops the check at the same trial."""
    d, C, trials, seed = _cells(64), 1.0, 80, 3
    w = d.cell_volumes
    s_uniform = shell_entropy(DiscretizedShellDensity.uniform(w), C).value
    deficit = [s_uniform - s for s in _trial_entropies(d, C, trials, seed)]
    first_exceeding = _new_lows(deficit)
    assert first_exceeding
    slack = statmech.MAXENT_SLACK
    expected = maxent_shell_check(d, C, trials=trials, seed=seed)
    assert expected.is_maximal
    for block in (1, w.size, 4 * w.size):
        monkeypatch.setattr(statmech, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(statmech, "MAXENT_SLACK", slack)
        assert maxent_shell_check(d, C, trials=trials, seed=seed) == expected
        for i, cut in first_exceeding:
            monkeypatch.setattr(statmech, "MAXENT_SLACK", -cut)
            assert maxent_shell_check(d, C, trials=i, seed=seed).is_maximal
            assert not maxent_shell_check(d, C, trials=i + 1, seed=seed).is_maximal


def test_suite_rows_are_probability_rows_by_construction(monkeypatch):
    """Every row the suites build, taken where its entropy is summed, passes
    the carriers' check, and its fsum lies within 10u + n 2^-1073 of 1, with
    u = 2^-53.  That is what these seeded rows meet, far inside the
    (n + 8)u + n 2^-1073 that simplex_rows proves for any row, as numpy
    sums each row pairwise; a looser normalization fails here first."""
    checked = []

    def check(flat, offsets):
        n = np.diff(offsets)
        assert np.isfinite(flat).all() and flat.min() >= 0
        assert normalized_rows(flat, offsets, 1e-9).all()
        assert np.all(np.abs(segment_fsums(flat, offsets) - 1.0) <= 10 * 2.0**-53 + n * 2.0**-1073)
        checked.append(n.size)

    rows, terms = entropy.entropy_rows, statmech.entropy_terms

    def suite_rows(flat, offsets, log_h=0.0):
        if offsets.size > 2:  # not a uniform row's sum, through shannon_entropy
            check(flat, offsets)
        return rows(flat, offsets, log_h)

    def trial_rows(masses, log_h):
        check(masses.ravel(), np.arange(masses.shape[0] + 1) * masses.shape[1])
        return terms(masses, log_h)

    monkeypatch.setattr(entropy, "entropy_rows", suite_rows)
    monkeypatch.setattr(statmech, "entropy_terms", trial_rows)
    reports = [run_axiom_suite(seed) for seed in range(5)]
    reports.append(run_axiom_suite(5, n_distributions=20, max_n=2048, additivity_pairs=2,
                                   majorization_pairs=20))
    expected = sum(3 * (r.n_distributions // 2 + r.additivity_pairs) + 2 * r.majorization_pairs
                   for r in reports)
    spread = DiscretizedShellDensity.uniform(np.exp(np.linspace(-600.0, 600.0, 64)))
    trials = 500
    for d in (_cells(1), _cells(64), _cells(4096), spread):
        for C in (1.0, 1e-300):
            assert maxent_shell_check(d, C, trials=trials, seed=7).is_maximal
            expected += trials
    assert sum(checked) == expected


def test_a_simplex_row_of_zero_draws_is_refused():
    """standard_exponential draws 0.0 where PCG64's raw output is 0, so a
    one-element simplex row can sum to 0; simplex_rows refuses it rather than
    divide 0 by 0."""
    bits = np.random.PCG64(1)
    state = bits.state
    # PCG64 steps its 128-bit state s to s M + inc, then outputs the xor of
    # the new state's halves, rotated: so the state before 0 draws a raw 0
    multiplier = (2549297995355413924 << 64) + 4865540595714422341
    state["state"]["state"] = -state["state"]["inc"] * pow(multiplier, -1, 2**128) % 2**128
    bits.state = state
    assert np.random.Generator(bits).standard_exponential() == 0.0
    bits.state = state
    with pytest.raises(ValidationError, match="only zeros"):
        random_distribution(np.random.Generator(bits), 1)


def test_axiom_suite_memory_is_bounded():
    assert peak_bytes(lambda: run_axiom_suite(1)) < PEAK_CEILING


def test_maxent_memory_is_bounded():
    d = _cells(4096)
    assert peak_bytes(lambda: maxent_shell_check(d, C=1.0, trials=200, seed=2)) < PEAK_CEILING


# Boltzmann's constant in J/K: a unit k far below 1
K_BOLTZMANN = 1.380649e-23
SMALL_SUITE = {"n_distributions": 20, "additivity_pairs": 20, "majorization_pairs": 20}


def test_axiom_suite_passes_in_any_unit():
    """The suite decides in nats.  At k = 1e6 the rounding of k * H leaves an
    additivity defect near 1e-9 in units of k, above the 1e-10 threshold,
    yet 1e-15 nats."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["axioms", "--seed", "1", "--n-dists", "20", "--additivity-pairs", "20",
                         "--majorization-pairs", "20", "--k", "1e6"])
    report = json.loads(out.getvalue())
    assert code == 0 and report["passed"]
    assert report["additivity_max_defect"] > 1e-10


def test_a_planted_defect_fails_in_any_unit(monkeypatch):
    """1e-9 nats added to every entropy fails the suite at Boltzmann's k,
    where it is 1.4e-32 in units of k."""
    assert run_axiom_suite(1, k=K_BOLTZMANN, **SMALL_SUITE).passed
    rows = entropy.entropy_rows
    monkeypatch.setattr(entropy, "entropy_rows",
                        lambda flat, offsets, log_h=0.0: [s + 1e-9 for s in rows(flat, offsets, log_h)])
    report = run_axiom_suite(1, k=K_BOLTZMANN, **SMALL_SUITE)
    assert not report.passed
    assert report.additivity_max_defect / K_BOLTZMANN == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("k", [1.0, 1e6, K_BOLTZMANN])
def test_maxent_slack_is_in_nats(k, monkeypatch):
    """A planted negative slack stops the check at the same trial in any
    unit k."""
    d, C, trials, seed = _cells(64), 1.0, 80, 3
    w = d.cell_volumes
    s_uniform = shell_entropy(DiscretizedShellDensity.uniform(w), C).value
    deficit = [s_uniform - s for s in _trial_entropies(d, C, trials, seed)]
    first_exceeding = _new_lows(deficit)
    assert first_exceeding
    assert maxent_shell_check(d, C, k, trials=trials, seed=seed).is_maximal
    for i, cut in first_exceeding:
        monkeypatch.setattr(statmech, "MAXENT_SLACK", -cut)
        assert maxent_shell_check(d, C, k, trials=i, seed=seed).is_maximal
        assert not maxent_shell_check(d, C, k, trials=i + 1, seed=seed).is_maximal
