"""The package holds only what runs use: every public top-level function or
class of a ``bnlab`` module is in ``bnlab.__all__`` or is referenced by a
module of ``src``, ``tools`` or ``perfbench``.  Code that only tests call
belongs beside them (``tests/oracles.py``)."""

import ast
import re
from pathlib import Path

import bnlab

ROOT = Path(__file__).resolve().parents[1]
# a string naming a definition, as perfbench's span table does
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_all(stmt):
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _references(tree, skip=None):
    """The names a module refers to outside the top-level statement
    ``skip`` and its ``__all__``: names, attributes, imported names and
    dotted strings."""
    names = set()
    for stmt in tree.body:
        if stmt is skip or _is_all(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def unreferenced_public_names(root=ROOT):
    """``module.name`` of each public top-level function or class of the
    package that is neither in ``bnlab.__all__`` nor referenced."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "tools", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))}
    elsewhere = {path: _references(tree) for path, tree in trees.items()}
    found = []
    for path in sorted((root / "src" / "bnlab").glob("*.py")):
        tree = trees[path]
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    or stmt.name.startswith("_") or stmt.name in bnlab.__all__:
                continue
            if stmt.name in _references(tree, skip=stmt) or any(
                    stmt.name in refs for p, refs in elsewhere.items() if p != path):
                continue
            found.append(f"{path.stem}.{stmt.name}")
    return found


def test_no_public_api_that_only_tests_call():
    assert unreferenced_public_names() == [], (
        "public functions or classes that no run references: move them "
        "into tests/ (tests/oracles.py), or make them private")
