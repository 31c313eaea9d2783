"""Guard for the one owner of the encodings: each key of ``ENCODERS`` is the
value of exactly one string literal in ``src/argn``, the ``encoding``
attribute of the class it names. A second list of encodings, a default
table or a branch on an encoding's name would write the name again."""

import ast
from pathlib import Path

from argn.encoders import ENCODERS

ROOT = Path(__file__).resolve().parents[1]


def _class_encodings(tree: ast.AST) -> dict[str, ast.Constant]:
    """The literal each class of the tree assigns to ``encoding``, by class name."""
    out = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in (s for s in cls.body if isinstance(s, ast.Assign)):
            for target in stmt.targets:
                tuples = isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple)
                pairs = zip(target.elts, stmt.value.elts) if tuples else [(target, stmt.value)]
                out.update({cls.name: value for name, value in pairs
                            if isinstance(name, ast.Name) and name.id == "encoding"})
    return out


def test_each_encoding_is_written_once_in_the_library_as_its_classs_encoding():
    literals = {name: [] for name in ENCODERS}
    owners = {}
    for path in sorted((ROOT / "src" / "argn").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners.update(_class_encodings(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in literals:
                literals[node.value].append((path.relative_to(ROOT), node))
    for name, cls in ENCODERS.items():
        places = [f"{path}:{node.lineno}" for path, node in literals[name]]
        assert [node for _, node in literals[name]] == [owners[cls.__name__]], \
            f"{name!r} is written at {', '.join(places)}, not only as {cls.__name__}.encoding"
