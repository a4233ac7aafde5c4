"""Checks that guard outputs must survive ``python -O``, which strips ``assert``.

So the package raises ``TandemError`` instead; this test parses every module
of ``src/tandemreco`` and fails on any ``assert`` statement left in it.
"""

import ast
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
