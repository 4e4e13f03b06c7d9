"""Name check: every module-level name of ``src/`` has a reader in ``src/``
or ``perfbench/``, or is listed with the reason it is kept.

Usage, from the repository root::

    python tests/names.py

It uses the standard library only (``ast``).  Pytest does not collect this
file; Tier-1 runs the check in two halves, the ``_``-prefixed names in
``tests/test_imports.py`` and the rest in ``tests/test_public_names.py``.  A
module-level name is a function, a class or an assigned name at the top
level of a module of ``src/``, ``_``-prefixed names included and dunders
excluded.  It has a reader when a top-level statement of a module of
``src/`` or ``perfbench/``, other than one that binds it, loads it as a
name or an attribute, imports it, or holds it as a dotted part of a string
constant (``perfbench/tracer.py`` names its targets by string).  A store is
no read, so neither an assignment nor a recursive call reads its own name,
and neither do the comments or the tests: a name that only tests read is
kept on purpose or belongs in a test helper.

``names_allow.txt``, next to this file, lists the names kept on purpose,
one ``<path>: <name>`` per line, in blocks separated by blank lines; each
block gives its reason in the ``#`` lines at its top.  The exit status is 1
when a name has no reader and is not listed, when a listed name has a
reader or is not a module-level name of its file, or when a block gives no
reason, else 0.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "names_allow.txt"


def bound(node: ast.stmt) -> list:
    """The names a top-level statement binds, dunders excluded: a function
    or class name, or the plain names an assignment stores to."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [
            node.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    else:
        return []
    return [name for name in names
            if not (name.startswith("__") and name.endswith("__"))]


def read(node: ast.stmt) -> set:
    """Every name a statement reads: loaded names and attributes, imported
    names and the dotted parts of its string constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def listed(text: str) -> tuple:
    """The ``(path, entry)`` pairs of an allowlist, and a message for each
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
    defined, statements = set(), []
    for path in sorted((root / "src").rglob("*.py")) + sorted(
            (root / "perfbench").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text()).body:
            own = {(rel, name) for name in bound(node)}
            statements.append((own, read(node)))
            if rel.startswith("src/"):
                defined |= own
    unread = {(rel, name) for rel, name in defined
              if not any(name in names for own, names in statements
                         if (rel, name) not in own)}
    allowed, out = listed(allow_text)
    for label, entries in (
            ("no reader and not listed", unread - allowed),
            ("listed but read", allowed & defined - unread),
            ("listed but not defined", allowed - defined)):
        out += [f"{label}: {path}: {name}" for path, name in sorted(entries)]
    return out


def private(problem: str) -> bool:
    """Whether a line of :func:`problems` is about a ``_``-prefixed name."""
    return problem.rsplit(": ", 1)[1].startswith("_")


def main() -> int:
    found = problems(ROOT, ALLOWLIST.read_text())
    for problem in found:
        print(problem)
    return int(bool(found))


if __name__ == "__main__":
    sys.exit(main())
