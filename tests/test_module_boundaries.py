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


def unused_definitions(sources, exported):
    """Each top-level function or class of the modules' sources, as
    `module.name`, that is neither exported nor named anywhere in them
    outside its own definition and the import lines."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {
        (module, node.name, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    uses = []  # (name, the top-level statement that names it)
    for tree in trees.values():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    uses.append((node.id, statement))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, statement))
    return sorted(
        f"{module}.{name}"
        for module, name, definition in defined
        if name not in exported
        and not any(used == name and statement is not definition for used, statement in uses)
    )


def test_every_definition_is_exported_or_used():
    import entrokit

    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, set(entrokit.__all__)) == []


def test_dead_code_guard_sees_unused_and_self_referring_definitions():
    sources = {
        "a": "def used():\n    pass\n\n"
             "def dead():\n    return dead\n\n"
             "class Exported:\n    pass\n\n"
             "def imported_only():\n    pass\n",
        "b": "from .a import imported_only, used\n\n"
             "def caller():\n    return used()\n\n"
             "def by_attribute(m):\n    return m.caller()\n",
    }
    assert unused_definitions(sources, {"Exported", "by_attribute"}) == ["a.dead", "a.imported_only"]
