"""Code text becomes a code in one place.

``UtrCode.loads`` parses the text and turns what json cannot read (bad text,
deep nesting, an integer too long to convert) into ``DomainError`` before
``UtrCode.from_json`` checks the object.  A second parser would need the same
mapping, and the copy in the CLI once drifted from the library's.  This test
reads the syntax tree of every module and fails on a call of ``json.loads``
or ``json.load`` anywhere but ``UtrCode.loads``.
"""

import ast
from pathlib import Path

import tandemreco

PACKAGE = Path(tandemreco.__file__).resolve().parent
READERS = {"loads", "load"}


def _json_reads(tree: ast.Module) -> list[str]:
    """The qualified name of each function (``<module>`` at top level) per call of json's readers."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in READERS
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                found.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_utr_code_loads_parses_json():
    readers, imported = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [f"{path.name}:{scope}" for scope in _json_reads(tree)]
        for node in ast.walk(tree):
            # a bare loads() imported from json would hide from the attribute match
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                imported += [f"{path.name}:{a.name}" for a in node.names if a.name in READERS]
    assert not imported, f"json readers imported by name: {imported}"
    assert readers == ["utr.py:UtrCode.loads"], f"json is parsed in {readers}"
