"""Roots are counted by cone dimension in one place.

The irreducible words of length n and cone dimension m are q^k prefixes times
the zero-run-limited difference strings of length n - k with m nonzeros.
``utr._root_weights`` forms that product from the weight DP ``_rll_weights``,
and every root count (``irreducible_count``, Construction A's roots, the size
formula, the oracle price) reads it.  Four copies of the product once rebuilt
it, and the oracle price ran the DP twice per length.  This test reads the
syntax tree of every module and fails on a call of ``_rll_weights`` anywhere
but ``_root_weights`` and ``count_rll_weight``.
"""

import ast
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent
DP = "_rll_weights"


def _dp_calls(tree: ast.Module) -> list[str]:
    """The qualified name of each function (``<module>`` at top level) per call of the DP."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == DP:
                    found.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_root_weights_and_count_rll_weight_run_the_weight_dp():
    callers, bound = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [f"{path.name}:{scope}" for scope in _dp_calls(tree)]
        for node in ast.walk(tree):
            # a module that imports the DP, even under another name, could call it unseen
            if isinstance(node, ast.ImportFrom):
                bound += [f"{path.name}:{a.name}" for a in node.names if a.name == DP]
    assert not bound, f"the weight DP is imported by {bound}"
    assert sorted(callers) == ["utr.py:_root_weights", "utr.py:count_rll_weight"], callers
