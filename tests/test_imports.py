"""Every name a ``congestlab`` module imports at module level is read in
that module; the package's re-exports count as read through ``__all__``.
No linter is a dependency, so the check walks the source with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "congestlab"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    # an attribute chain starts at a Name, so `random.Random` reads `random`
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_the_check_flags_an_import_that_is_never_read():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .graphs import Layer, VertexId as V\n"
              "__all__ = ['Layer']\n"
              "def f():\n"
              "    return os.path.join('a', 'b')\n")
    assert unused_imports(source) == ["V", "json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []
