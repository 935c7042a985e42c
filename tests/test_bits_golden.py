"""The bits corpus: every output that tests/data/bits_golden.json pins is
the same, byte for byte, as the current code prints or returns.

The corpus is written by `scripts/bits_golden.py`.  A change that moves
bits on purpose regenerates it and lists every moved entry; these tests
name each entry that moved.  Each process is held to the bits pinned for
its own numpy loops of exp, log, expm1 and log1p; one test also runs the
corpus in a child process on the AVX2 loops, so a host with the AVX-512
loops checks both paths.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "data" / "bits_golden.json"


def _named_entries(corpus):
    """(section, name, value) for every entry of the corpus, in its order."""
    for a in corpus["argv"]:
        yield "argv", " ".join(a["argv"]), a
    for key, text in corpus["stdout"].items():
        yield "stdout", key, text
    for family, digest in corpus["sweeps"].items():
        yield "sweeps", family, digest
    for k, kinds in corpus["entropies"].items():
        for kind, digest in kinds.items():
            yield "entropies", f"{kind} at {k}", digest
    for c in corpus["suites"]:
        yield "suites", f"{c['name']} seed {c['seed']}", c
    for c in corpus["maxent"]:
        yield "maxent", f"m={c['m']} C={c['C']}", c


def _assert_none_moved(expected, found):
    moved = {}
    for (section, name, old), (_, _, new) in zip(_named_entries(expected),
                                                 _named_entries(found), strict=True):
        if old != new:
            moved.setdefault(section, []).append(name)
    assert not moved, "; ".join(f"{len(names)} {section} entries moved: {names[:10]}"
                                for section, names in moved.items())


def test_outputs_match_the_bits_corpus(bits_corpus, pinned_corpus):
    _assert_none_moved(pinned_corpus, bits_corpus)


def test_the_script_writes_the_committed_file(bits_golden, bits_corpus, pinned_corpus):
    # compared as one boolean each: a diff of two 450 kB texts is slow and unread
    golden = json.loads(GOLDEN_PATH.read_text())
    assert bits_golden.text(golden).encode() == GOLDEN_PATH.read_bytes(), (
        "tests/data/bits_golden.json is not as scripts/bits_golden.py writes it")
    assert bits_golden.text(bits_corpus) == bits_golden.text(pinned_corpus), (
        "scripts/bits_golden.py would write other bytes for this process's numpy loops")


def test_outputs_match_the_bits_corpus_on_the_avx2_loops(bits_golden):
    """The corpus computed where numpy may not take its AVX-512 loops: the
    bits pinned for the loops the child process reports, and no others."""
    child = bits_golden.corpus_in_child(bits_golden.DISABLED[0])
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = bits_golden.pinned(golden, child["targets"])
    assert expected is not None, f"no bits are pinned for numpy's loops {child['targets']}"
    _assert_none_moved(expected, child["corpus"])
    assert bits_golden.text(child["corpus"]) == bits_golden.text(expected)
