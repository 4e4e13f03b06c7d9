"""Public-name check: every top-level public name of ``src/`` has a reader
in ``src/`` or ``perfbench/``, or is listed with the reason it is kept.

Usage, from the repository root::

    python tests/public_names.py

It uses the standard library only (``ast``).  Pytest does not collect this
file; ``tests/test_public_names.py`` runs the check in Tier-1.  A top-level
public name is a function, a class or an assigned name at the top level of
a module of ``src/`` whose name does not start with ``_``.  It has a reader
when a module of ``src/`` or ``perfbench/`` names it as a name, an
attribute, an imported name or a dotted part of a string constant
(``perfbench/tracer.py`` names its targets by string).  Its own definition
and the comments do not count, and neither do the tests: a name that only
tests read is kept on purpose or belongs in a test helper.

``public_names_allow.txt``, next to this file, lists the names kept on
purpose, one ``<path>: <name>`` per line, in blocks separated by blank
lines; each block gives its reason in the ``#`` lines at its top.  The exit
status is 1 when a name has no reader and is not listed, when a listed name
has a reader or is not a top-level public name of its file, or when a block
gives no reason, else 0.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "public_names_allow.txt"


def definitions(tree: ast.Module) -> list:
    """The top-level public names a module defines, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def named(tree: ast.Module) -> set:
    """Every name a module reads: names, attributes, imported names and the
    dotted parts of its string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def listed(text: str) -> tuple:
    """The ``(path, name)`` entries of an allowlist, and a message for each
    block that gives no reason."""
    entries, problems = set(), []
    for block in text.split("\n\n"):
        lines = [line.strip() for line in block.splitlines() if line.strip()]
        found = [tuple(part.strip() for part in line.split(":", 1))
                 for line in lines if not line.startswith("#")]
        if found and not lines[0].startswith("#"):
            problems.append(f"listed without a reason: {found[0][0]}: "
                            f"{found[0][1]}")
        entries.update(found)
    return entries, problems


def problems(root: Path, allow_text: str) -> list:
    """What the check reports for the tree at ``root``: the names of
    ``root/src`` without a reader that the allowlist text does not list,
    the listed names that have one or are not defined, and the blocks
    without a reason."""
    defined, readers = set(), set()
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(root).as_posix()
        defined.update((rel, name) for name in definitions(tree))
        readers |= named(tree)
    for path in sorted((root / "perfbench").rglob("*.py")):
        readers |= named(ast.parse(path.read_text()))
    unread = {(path, name) for path, name in defined if name not in readers}
    allowed, out = listed(allow_text)
    for label, entries in (
            ("no reader and not listed", unread - allowed),
            ("listed but read", allowed & defined - unread),
            ("listed but not defined", allowed - defined)):
        out += [f"{label}: {path}: {name}" for path, name in sorted(entries)]
    return out


def main() -> int:
    found = problems(ROOT, ALLOWLIST.read_text())
    for problem in found:
        print(problem)
    return int(bool(found))


if __name__ == "__main__":
    sys.exit(main())
