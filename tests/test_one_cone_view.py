"""Cone-level readers see listed and described codes through one view.

A ``UtrCode`` is listed (its codewords) or described (root counts and one
class per cone dimension).  ``UtrCode._groups`` (each coordinate list with
its number of cones) and ``UtrCode._cones`` (each root with its run ends and
growth steps) build the one view both kinds share, and every cone-level
reader goes through them.  Only they, the methods that compare, print or
write the description itself, and the decoder's ownership test may read
``_description``; a reader that branched on it again would keep a second
path.  This test reads the syntax tree of every module and fails on a read
of the attribute anywhere else.
"""

import ast
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent
VIEW = {
    "utr.py:UtrCode.__eq__",
    "utr.py:UtrCode.__repr__",
    "utr.py:UtrCode.to_json",
    "utr.py:UtrCode._groups",
    "utr.py:UtrCode._cones",
    "utr.py:_cone_points",
}


def _description_reads(tree: ast.Module) -> set[str]:
    """The qualified name of each function (``<module>`` at top level) that reads ``._description``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_description":
                found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_cone_view_reads_the_description():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers |= {f"{path.name}:{scope}" for scope in _description_reads(tree)}
    assert readers == VIEW, f"_description is read in {sorted(readers - VIEW)}"
