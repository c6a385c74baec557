"""Guards over the package's source as a whole."""

from __future__ import annotations

import ast
from pathlib import Path

import maniplexes

PACKAGE = Path(maniplexes.__file__).parent


def test_the_package_holds_no_assert_statement():
    # python -O strips asserts, so an invariant kept in one would vanish there.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 10
    assert found == []
