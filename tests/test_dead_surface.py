"""Every name the package defines is used by the program or by the benchmark.

Each top-level def, class and assignment in ``src/multistruct/*.py``, and
each non-dunder method, must be referenced outside its own body somewhere in
``src/multistruct/`` or ``replbench/``: by a name or an attribute, or, in
``replbench/``, by a word of a string (the benchmark looks up the traced
functions and the kernel backend by their names).  A reference from a test
does not count, so a function that only a test calls fails here; the
allow-list names the few kept anyway, each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multistruct"
BENCHMARK = ROOT / "replbench"

ALLOWED = {
    "grammar.parse_poly": "reads the report grammar back; the format_poly round-trip test "
    "compares against it",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(
                    item.name
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield target.id, target.id, node.lineno, node.end_lineno


def _references(tree: ast.Module, read_strings: bool) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute, and of string words if asked."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif read_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.extend((word, node.lineno) for word in _WORD.findall(node.value))
    return refs


def unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {path: _references(tree, read_strings=False) for path, tree in trees.items()}
    for path in sorted(BENCHMARK.glob("*.py")):
        refs[path] = _references(ast.parse(path.read_text(encoding="utf-8")), read_strings=True)
    dead = []
    for path, tree in trees.items():
        for qualified, name, first, last in _definitions(tree):
            used = any(
                ref == name and (where != path or not first <= line <= last)
                for where, found in refs.items()
                for ref, line in found
            )
            if not used:
                dead.append(f"{path.stem}.{qualified}")
    return dead


def test_every_definition_is_referenced():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_allow_list_is_current():
    # An allowed name that gained a caller, or was deleted, leaves the list.
    assert sorted(ALLOWED) == sorted(name for name in unreferenced() if name in ALLOWED)
