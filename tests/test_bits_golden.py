"""The bits corpus: every output that tests/data/bits_golden.json pins is
the same, byte for byte, as the current code prints or returns.

The corpus is written by `scripts/bits_golden.py`.  A change that moves
bits on purpose regenerates it and lists every moved entry; this test names
each entry that moved.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = ROOT / "tests" / "data" / "bits_golden.json"


def _script():
    spec = importlib.util.spec_from_file_location("bits_golden", ROOT / "scripts" / "bits_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_bits_corpus():
    golden = json.loads(GOLDEN_PATH.read_text())
    now = _script().corpus()
    moved = [" ".join(a["argv"]) for a, b in zip(golden["argv"], now["argv"], strict=True) if a != b]
    moved += [f"stdout of {key}" for key in golden["stdout"]
              if golden["stdout"][key] != now["stdout"].get(key)]
    moved += [f"sweep {family}" for family in golden["sweeps"]
              if golden["sweeps"][family] != now["sweeps"].get(family)]
    moved += [f"{kind} at {k}" for k, kinds in golden["entropies"].items() for kind in kinds
              if kinds[kind] != now["entropies"][k].get(kind)]
    assert not moved, f"{len(moved)} entries moved: {moved[:20]}"
    assert now == golden
