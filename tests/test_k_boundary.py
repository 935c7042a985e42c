"""k is checked in one place: EntropyValue, which forms k * S from S in
nats, and, at the command line, the --k flag.  No kernel checks k itself,
so a kernel cannot form k * S before the one check has seen k."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entrokit"


def _names_k(node):
    return (
        (isinstance(node, ast.Constant) and node.value in ("k", "--k"))
        or (isinstance(node, ast.Name) and node.id == "k")
        or (isinstance(node, ast.Attribute) and node.attr == "k")
    )


def k_checks(source, module):
    """module:Qualified.name of every check_positive call that checks k,
    by its name argument or by the value it checks."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "check_positive" and any(map(_names_k, node.args[:2])):
                found.append(f"{module}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_k_is_checked_only_by_entropy_value_and_the_cli():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        sites += k_checks(path.read_text(), path.stem)
    assert sorted(sites) == [
        "cli:_k",
        "distributions:EntropyValue.__post_init__",
        "distributions:EntropyValue.of",
    ]


def test_guard_sees_each_form():
    source = (
        "def a(k):\n    check_positive(k, 'k')\n"
        "def b(x):\n    check_positive(x, 'k')\n"
        "class C:\n    def c(self):\n        distributions.check_positive(self.k, 'scale')\n"
        "def d(ns):\n    return check_positive(ns.k, '--k')\n"
        "def e(h):\n    check_positive(h, 'h')\n"
    )
    assert k_checks(source, "m") == ["m:a", "m:b", "m:C.c", "m:d"]
