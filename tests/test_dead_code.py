"""Guard against dead code: every function, method and class that
``src/argn`` defines must be named somewhere in ``src/`` or ``bench/``
besides its own definition. A name that only tests use is dead: the
library never runs it. Dunder names and the entries of ``argn.__all__``
(the public API) are exempt.

Names are matched as identifiers: variable and attribute names, imported
names, and identifier-like words inside string literals other than
docstrings (the benchmark's tracer looks layers up by such strings).
"""

import ast
import re
from pathlib import Path

import argn

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, nodes) and ast.get_docstring(node, clean=False) is not None}


def _names_used(tree: ast.AST) -> set[str]:
    docs = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            used.update(WORD.findall(node.value))
    return used


def _definitions(tree: ast.AST) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in ast.walk(tree) if isinstance(node, kinds)]


def test_every_definition_in_the_library_is_used_by_the_library_or_the_benchmark():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "bench") for path in sorted((ROOT / folder).rglob("*.py"))}
    used = set().union(*(_names_used(tree) for tree in trees.values()))
    exempt = set(argn.__all__)
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for path, tree in trees.items() if path.is_relative_to(ROOT / "src" / "argn")
            for node in _definitions(tree)
            if node.name not in used and node.name not in exempt
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert not dead, "defined in src/argn but named nowhere in src/ or bench/: " + ", ".join(dead)
