"""Every name a ``congestlab`` or test module imports at module level is
read in that module; the package's re-exports count as read through
``__all__``.
No module imports a private name from another package module, and every
``_``-prefixed module-level name of the package has a reader, by the rule of
``tests/names.py``.  No linter is a dependency, so the checks walk the
source with ``ast``."""

import ast
from pathlib import Path

import pytest
from names import ALLOWLIST, ROOT, private, problems

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "congestlab"


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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """The ``_``-prefixed names that ``source`` imports, at any depth, from
    a ``congestlab`` module, by a relative or an absolute import."""
    return sorted(
        a.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0]
             == "congestlab")
        for a in node.names if a.name.startswith("_"))


def test_the_check_flags_a_private_name_imported_from_the_package():
    source = ("from __future__ import annotations\n"
              "from collections import _chain\n"
              "from .sampling import _draw, sample_aux\n"
              "from congestlab.graphs import _Row as Row\n"
              "from . import params\n"
              "def f():\n"
              "    from .oracles import _cap\n"
              "    return _draw, Row, _cap, params._x, _chain, sample_aux\n")
    assert private_imports(source) == ["_Row", "_cap", "_draw"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def test_the_check_flags_a_helper_that_is_never_read(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "a.py").write_text(
        "def _solo(n):\n    return _solo(n - 1) if n else 0\n"
        "def _local():\n    return 1\n"
        "def _remote():\n    return 2\n"
        "def f():\n    return _local()\n"
        "class _Lonely:\n    pass\n"
        "class _Used:\n    pass\n"
        "_UNREAD = 3\n"
        "_SET = 0\n"
        "def setter():\n    global _SET\n    _SET = 1\n"
        "_READ: int = 4\n"
        "__all__ = ['f']\n"
        "def g():\n    return _Used(), _READ\n")
    (tmp_path / "src" / "b.py").write_text(
        "from . import a\n"
        "def caller():\n    return a._remote()\n"
        "def storer():\n    a._UNREAD = 5\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from a import g, setter\nfrom b import caller, storer\n")
    # a recursive call is no reader, and neither is a store from another
    # statement or another module
    found = problems(tmp_path, "")
    assert all(map(private, found))
    assert found == [
        "no reader and not listed: src/a.py: _Lonely",
        "no reader and not listed: src/a.py: _SET",
        "no reader and not listed: src/a.py: _UNREAD",
        "no reader and not listed: src/a.py: _solo",
    ]
    assert problems(tmp_path, (
        "# reason\nsrc/a.py: _Lonely\nsrc/a.py: _SET\nsrc/a.py: _UNREAD\n"
        "src/a.py: _solo")) == []


def test_every_private_helper_has_a_reader():
    assert [p for p in problems(ROOT, ALLOWLIST.read_text())
            if private(p)] == []
