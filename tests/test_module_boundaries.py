"""No entrokit module imports a private (_-prefixed) name from another one,
whether by `from .mod import _name` or as `mod._name` after `from . import
mod`: what modules share goes through public names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entrokit"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(source):
    """Each private name the module source takes from a sibling module."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "entrokit":
            continue
        for alias in node.names:
            if _private(alias.name):
                found.append(alias.name)
            if node.module in (None, "entrokit"):  # `from . import mod`
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_guard_sees_both_forms():
    source = (
        "from .quantize import _grid\n"
        "from entrokit.cli import _k\n"
        "from . import statmech\n"
        "statmech._helper()\n"
        "from .errors import ValidationError\n"
    )
    assert private_imports(source) == ["_grid", "_k", "statmech._helper"]
