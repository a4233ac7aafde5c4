"""Every private top-level helper of the package is used somewhere in it.

A module-level ``def`` or ``class`` whose name starts with ``_`` is no API,
so nothing outside ``src/tandemreco`` should keep it alive.  This test reads
the name tokens of every module (strings and comments do not count) and
fails on a private helper that no line of the package names besides its own
definition line.
"""

import ast
import io
import tokenize
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent


def test_every_private_helper_is_named_elsewhere():
    helpers = {}  # name -> (file, definition line)
    names = set()  # (name, file, line) of every name token
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for node in ast.parse(text, filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    helpers[node.name] = (path.name, node.lineno)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                names.add((tok.string, path.name, tok.start[0]))
    named = {name for name, *where in names if name in helpers and tuple(where) != helpers[name]}
    dead = sorted(f"{helpers[name][0]}:{name}" for name in helpers.keys() - named)
    assert not dead, f"private helpers nothing in the package names: {dead}"
