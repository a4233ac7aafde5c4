"""Every literal walk of the package is priced.

A function that calls one of the walk kernels ``_layer``, ``_walk`` or
``_layers`` builds a word's layers D_0 ... D_t, and their cost follows from
the word's cone dimension alone (``duplication._walk_price``).  This test
reads the syntax tree of every module and fails on a function, other than
the kernels themselves, that calls a kernel but names none of the prices:
``_walk_price``; ``utr._priced_walks``, which prices every walk of a code;
``oracles._price_cones``, which prices a suite's walks; or
``WALK_SYMBOL_BUDGET``, against which a search that stops where its walks
meet prices each layer it builds.
"""

import ast
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent
KERNELS = {"_layer", "_walk", "_layers"}
PRICES = {"_walk_price", "_priced_walks", "_price_cones", "WALK_SYMBOL_BUDGET"}


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute name the node's subtree reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _called(node: ast.AST) -> set[str]:
    """The names of the functions the node's subtree calls, plain or as attributes."""
    calls = (sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call))
    return {f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in calls}


def test_every_walk_names_its_price():
    walkers, unpriced = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            functions = (ast.FunctionDef, ast.AsyncFunctionDef)
            walks = isinstance(node, functions) and _called(node) & KERNELS
            if walks and node.name not in KERNELS:
                walkers.append(f"{path.name}:{node.name}")
                if not _names(node) & PRICES:
                    unpriced.append(walkers[-1])
    assert walkers, "no function calls a walk kernel: the guard reads nothing"
    assert not unpriced, f"walks that name no walk price: {unpriced}"
