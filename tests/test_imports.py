"""Every name a ``congestlab`` or test module imports at module level is
read in that module; the package's re-exports count as read through
``__all__``.
Every module-level private function, class and constant is read somewhere
in the package outside its own definition.  No module imports a private
name from another package module.  No linter is a dependency, so the
checks walk the source with ``ast``."""

import ast
from pathlib import Path

import pytest

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


def defined_names(node) -> list:
    """The names a module-level statement binds: a function or class name,
    or the plain names an assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unread_helpers(sources: dict) -> list:
    """``module._name`` for each module-level private function, class or
    constant in ``sources`` (module name -> source) that no statement of any
    module reads, by name or as an attribute, outside the statement that
    binds it.  Storing to a name is no read."""
    helpers, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, ast.Load)}
            own = {(module, name) for name in defined_names(node)
                   if name.startswith("_") and not name.endswith("__")}
            helpers += own
            reads.append((own, names))
    return sorted(f"{module}.{name}" for module, name in helpers
                  if not any(name in names for own, names in reads
                             if (module, name) not in own))


def test_the_check_flags_a_helper_that_is_never_read():
    sources = {
        "a": ("def _solo(n):\n"
              "    return _solo(n - 1) if n else 0\n"
              "def _local():\n"
              "    return 1\n"
              "def _remote():\n"
              "    return 2\n"
              "def f():\n"
              "    return _local()\n"
              "class _Lonely:\n"
              "    pass\n"
              "class _Used:\n"
              "    pass\n"
              "_UNREAD = 3\n"
              "_READ: int = 4\n"
              "__all__ = ['f']\n"
              "def g():\n"
              "    return _Used(), _READ\n"),
        "b": ("from . import a\n"
              "def g():\n"
              "    return a._remote()\n"
              "def h():\n"
              "    a._UNREAD = 5\n"),
    }
    # a recursive call is no reader, and neither is a store from elsewhere
    assert unread_helpers(sources) == ["a._Lonely", "a._UNREAD", "a._solo"]


def test_every_private_helper_has_a_reader():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_helpers(sources) == []
