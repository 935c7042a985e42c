"""The block kernels form their results in arrays they own.  Given read-only
inputs, they write none of them, and every output keeps the bits of the
out-of-place expressions they replaced, written out here.

The exact sums keep math.fsum's bits, which is what the out-of-place
extraction returned; the other kernels are compared with the expressions
themselves.
"""

import math

import numpy as np
import pytest

from entrokit import entropy, run_axiom_suite
from entrokit.distributions import (
    FSUM_ELEMENTS,
    fsum_decides,
    normalized_rows,
    offsets_of,
    probability_rows_ok,
    segment_fsums,
)
from entrokit.entropy import entropy_terms, simplex_rows

from conftest import ragged


def frozen(x):
    """A read-only copy of x: a kernel that writes into it raises."""
    x = np.array(x)
    x.setflags(write=False)
    return x


def row_fsums(x, offsets):
    """math.fsum of every row of a block, as a list."""
    return [math.fsum(x[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:])]


def probability_block(sizes, seed):
    """Normalized rows of the given sizes, a third of their entries 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        w = rng.exponential(size=n)
        w[rng.random(n) < 1 / 3] = 0.0
        w[0] = max(w[0], 1.0)
        rows.append(w / math.fsum(w.tolist()))
    return ragged(rows)


# one row; a block of short rows within FSUM_ELEMENTS; a block past it
SIZES = [[7], [1, 5, 30, 2, 64], [300, 1, 2000, 17, 900]]  # every last row holds 2 or more


@pytest.mark.parametrize("sizes", SIZES, ids=["row", "small", "large"])
def test_sums_and_decisions_leave_their_inputs_and_keep_fsums_bits(sizes):
    flat, offsets = probability_block(sizes, len(sizes))
    # terms of both signs, and rows whose sum is near 0
    terms = np.concatenate([flat[: flat.size // 2], -flat[flat.size // 2 :]])
    for x in (flat, terms):
        x, offs = frozen(x), frozen(offsets)
        before = x.tobytes()
        exact = np.array(row_fsums(x, offs))
        assert segment_fsums(x, offs).tobytes() == exact.tobytes()
        assert fsum_decides(x, offs, lambda t: t > 0.5).tolist() == (exact > 0.5).tolist()
        assert normalized_rows(x, offs, 1e-9).tolist() == (abs(exact - 1.0) <= 1e-9).tolist()
        assert x.tobytes() == before


@pytest.mark.parametrize("sizes", SIZES, ids=["row", "small", "large"])
@pytest.mark.parametrize("bad", [None, -1e-3, math.nan, math.inf])
def test_probability_rows_leave_their_inputs(sizes, bad):
    """Blocks of good rows skip the copy that zeroes bad entries; a block
    with a negative or non-finite entry takes it.  Either way the rows
    decide as the out-of-place expression does."""
    flat, offsets = probability_block(sizes, 1)
    if bad is not None:  # in the last row, which still sums to about 1
        i = offsets[-2]
        flat[i + 1] += flat[i] - bad if math.isfinite(bad) else 0.0
        flat[i] = bad
    flat, offsets = frozen(flat), frozen(offsets)
    good = np.isfinite(flat) & (flat >= 0)
    expected = np.logical_and.reduceat(good, offsets[:-1]) & normalized_rows(
        np.where(good, flat, 0.0), offsets, 1e-9
    )
    assert probability_rows_ok(flat, offsets, 1e-9).tolist() == expected.tolist()
    assert expected[:-1].all() and expected[-1] == (bad is None)


def out_of_place_terms(flat, log_h=0.0):
    return -flat * (np.log(flat, out=np.zeros_like(flat), where=flat > 0) - log_h)


@pytest.mark.parametrize("log_h", ["zero", "row", "narrow"])
def test_entropy_terms_of_a_row(log_h):
    """One row with zero entries, at ln h = 0 (Shannon), at one ln h per
    entry, and at widths h below every nonzero p, where every term of a
    nonzero p is negative."""
    flat, _ = probability_block([257], 3)
    flat = frozen(flat)
    log_h = {"zero": 0.0, "row": frozen(np.random.default_rng(4).normal(0.0, 3.0, flat.size)),
             "narrow": -50.0}[log_h]
    before = flat.tobytes()
    terms = entropy_terms(flat, log_h)
    assert terms.tobytes() == out_of_place_terms(flat, log_h).tobytes()
    assert flat.tobytes() == before
    if isinstance(log_h, float) and log_h < 0:
        assert np.all(terms[flat > 0] < 0) and np.all(terms[flat == 0] == 0)


def test_entropy_terms_of_a_2d_block_with_a_broadcast_log_h():
    """Rows of cell masses on m cells, and one ln h per cell, as the
    max-entropy check forms them."""
    flat, _ = probability_block([40] * 6, 5)
    masses = frozen(flat.reshape(6, 40))
    log_h = frozen(np.log(np.random.default_rng(6).uniform(0.01, 3.0, 40)))
    assert (entropy_terms(masses, log_h).tobytes()
            == out_of_place_terms(masses, log_h).tobytes())


@pytest.mark.parametrize("sizes", [[3], [1, 2, 64], [FSUM_ELEMENTS, 1, 4000]])
def test_simplex_rows_keep_the_out_of_place_draw(sizes):
    offsets = frozen(offsets_of(sizes))
    w = np.random.default_rng(8).exponential(size=offsets[-1])
    expected = w / np.repeat(row_fsums(w, offsets), np.diff(offsets))
    drawn = simplex_rows(np.random.default_rng(8), offsets)
    assert drawn.tobytes() == expected.tobytes()


def suite_blocks(monkeypatch, seed, **sizes):
    """The blocks of rows whose entropies run_axiom_suite sums, as copies, in
    the order it sums them; a block holds two rows or more, so the one-row
    sums of the uniform rows, through shannon_entropy, are left out."""
    blocks = []
    rows = entropy.entropy_rows

    def record(flat, offsets, log_h=0.0):
        if offsets.size > 2:
            blocks.append((flat.copy(), offsets.copy()))
        return rows(flat, offsets, log_h)

    monkeypatch.setattr(entropy, "entropy_rows", record)
    assert run_axiom_suite(seed, **sizes).passed
    return blocks


def test_suite_mixtures_keep_the_out_of_place_expression(monkeypatch):
    """The concavity rows lam * a + (1 - lam) * b, replayed from the suite's
    generator with the expression the in-place mixture replaced."""
    seed, pairs, max_n = 5, 3000, 64
    blocks = suite_blocks(monkeypatch, seed, n_distributions=2 * pairs, max_n=max_n,
                          additivity_pairs=0, majorization_pairs=0)
    rng = np.random.default_rng(seed)
    replayed = entropy._pair_blocks(rng, pairs, [1], [max_n + 1], lambda s: 3 * s[0])
    for (n,), (flat, offsets) in zip(replayed, blocks, strict=True):
        drawn = offsets[: 2 * n.size + 1]
        raw = rng.exponential(size=drawn[-1])
        ab = raw / np.repeat(row_fsums(raw, drawn), np.diff(drawn))
        w = np.repeat(rng.uniform(0.0, 1.0, n.size), n)
        a, b = np.split(ab, 2)
        assert flat.tobytes() == np.concatenate((ab, w * a + (1.0 - w) * b)).tobytes()


def test_suite_joints_are_the_outer_products_of_their_pairs(monkeypatch):
    """Entry (j, a) of each joint row is p_j * q_a, as np.outer forms it."""
    blocks = suite_blocks(monkeypatch, 7, n_distributions=2, additivity_pairs=400,
                          majorization_pairs=0)[1:]
    assert blocks
    for flat, offsets in blocks:
        rows = [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        pairs = len(rows) // 3
        for p, q, joint in zip(rows[:pairs], rows[pairs : 2 * pairs], rows[2 * pairs :]):
            assert joint.tobytes() == np.outer(p, q).ravel().tobytes()
