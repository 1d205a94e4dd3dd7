"""Source rules for the package itself."""

import ast
from pathlib import Path

import poolgp

PACKAGE = Path(poolgp.__file__).resolve().parent


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements; invariants raise InvariantError instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
