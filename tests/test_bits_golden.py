"""The bits corpus: every output that tests/data/bits_golden.json pins is
the same, byte for byte, as the current code prints or returns.

The corpus is written by `scripts/bits_golden.py`.  A change that moves
bits on purpose regenerates it and lists every moved entry; this test names
each entry that moved.
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


def test_outputs_match_the_bits_corpus(bits_corpus):
    golden = json.loads(GOLDEN_PATH.read_text())
    moved = {}
    for (section, name, old), (_, _, new) in zip(_named_entries(golden),
                                                 _named_entries(bits_corpus), strict=True):
        if old != new:
            moved.setdefault(section, []).append(name)
    assert not moved, "; ".join(f"{len(names)} {section} entries moved: {names[:10]}"
                                for section, names in moved.items())


def test_the_script_writes_the_committed_file(bits_corpus):
    # compared as one boolean: a diff of two 450 kB texts is slow and unread
    same = (json.dumps(bits_corpus, indent=1) + "\n").encode() == GOLDEN_PATH.read_bytes()
    assert same, "scripts/bits_golden.py would write a different tests/data/bits_golden.json"
