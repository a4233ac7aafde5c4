"""Cone-level readers see listed and described codes through one view.

A ``UtrCode`` is listed (its codewords) or described (root counts and one
class per cone dimension).  ``UtrCode._groups`` (each coordinate list with
its number of cones: a listed code's root table, a described code's
dimensions) and ``UtrCode._cones`` (each root with its run ends and growth
steps, derived from the groups or the description on first read) build the
one view both kinds share, and every cone-level reader goes through them.
Only they, the methods that compare, print or write the description itself,
and the decoder's ownership test may read ``_description``; a reader that
branched on it again would keep a second path.  Each view is a cached
property that fills its own slot: only the constructors write through
``vars(...)``, so no view fills another's cache.  These tests read the
syntax tree of every module and fail on a read of the attribute, or a write
through ``vars``, anywhere else.
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
# the two constructors set a code's fields around the frozen __setattr__
WRITERS = {"utr.py:UtrCode.__init__", "utr.py:UtrCode._of"}
# the dict methods that change the mapping they are called on
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _scopes(tree: ast.Module, hit) -> set[str]:
    """The qualified name of each function (``<module>`` at top level) holding a node that hits."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if hit(child):
                found.add(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _package_scopes(hit) -> set[str]:
    """``module:scope`` of every package function holding a node that hits."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.name}:{scope}" for scope in _scopes(tree, hit)}
    return found


def _reads_description(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_description"


def _is_vars(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"


def _writes_vars(node: ast.AST) -> bool:
    """vars(x)[key] = ... or del vars(x)[key], or a mutating method called on vars(x)."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, (ast.Store, ast.Del)) and _is_vars(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in MUTATORS and _is_vars(node.func.value)
    return False


def test_only_the_cone_view_reads_the_description():
    readers = _package_scopes(_reads_description)
    assert readers == VIEW, f"_description is read in {sorted(readers - VIEW)}"


def test_only_the_constructors_write_through_vars():
    writers = _package_scopes(_writes_vars)
    assert writers == WRITERS, f"vars(...) is written in {sorted(writers - WRITERS)}"


def test_the_write_guard_sees_each_form():
    source = (
        "def store(x):\n    vars(x)['a'] = 1\n"
        "def grow(x):\n    vars(x).update(a=1)\n"
        "def drop(x):\n    del vars(x)['a']\n"
        "def read(x):\n    return vars(x).get('a'), 'a' in vars(x), vars(x)['a']\n"
    )
    assert _scopes(ast.parse(source), _writes_vars) == {"store", "grow", "drop"}
