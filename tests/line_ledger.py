"""Line ledger: run Tier-1 under a line trace and print the executable lines
of ``src/`` that no test reached, per file and in total.

Usage, from the repository root::

    python tests/line_ledger.py [extra pytest arguments]

It uses the standard library only (``sys.settrace``).  Pytest does not
collect this file, and it is not part of Tier-1: the trace makes the run
several times slower.  A line counts as executable when the compiled module
maps an instruction to it, in any code object, nested ones included.  Only
the pytest process is traced, so a line that runs only in a subprocess counts
as unreached.

``line_ledger_allow.txt``, next to this file, lists the lines left unreached
on purpose, one ``<path>: <source text>`` per line, with the reason in the
``#`` lines above it.  An entry names its line by the line's stripped source
text, so an edit above the line does not move the entry; the text must match
exactly one executable line of the file.  The exit status is pytest's when
pytest fails, else 1 when an entry matches no executable line or more than
one, or a line is unreached but not listed, or listed but reached, else 0.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().parent / "line_ledger_allow.txt"


def allowed_lines(text: str) -> tuple:
    """The ``(path, line)`` of every entry that matches exactly one
    executable line, and a message for each entry that does not; blank and
    ``#`` lines are skipped."""
    out, problems = set(), []
    for entry in text.splitlines():
        if entry.strip() and not entry.startswith("#"):
            path, source = (part.strip() for part in entry.split(":", 1))
            file, matches = ROOT / path, []
            if file.is_file():
                lines = file.read_text().splitlines()
                matches = [line for line in executable_lines(file)
                           if lines[line - 1].strip() == source]
            if len(matches) == 1:
                out.add((path, matches[0]))
            else:
                problems.append(f"listed text matches {len(matches)} "
                                f"executable lines: {path}: {source}")
    return out, problems


def executable_lines(path: Path) -> set:
    """Every line an instruction of the compiled file maps to."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as ranges: ``3, 7-9``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def traced_run(pytest_args: list) -> tuple:
    """Run pytest with every ``src/`` line event recorded; return its exit
    code and {real path: set of reached lines}."""
    reached = {}
    known = {}  # co_filename -> the reached set of its file, or None

    def hits_of(filename):
        if filename not in known:
            real = os.path.realpath(filename)
            known[filename] = (reached.setdefault(real, set())
                               if real.startswith(f"{SRC}{os.sep}") else None)
        return known[filename]

    def on_call(frame, event, arg):
        hits = hits_of(frame.f_code.co_filename)
        if hits is None:
            return None
        add = hits.add

        def on_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main(argv: list) -> int:
    os.chdir(ROOT)
    code, reached = traced_run(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         *argv])
    total = 0
    unreached = set()
    print()
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        missed = lines - reached.get(os.path.realpath(path), set())
        total += len(lines)
        rel = path.relative_to(ROOT).as_posix()
        unreached |= {(rel, line) for line in missed}
        print(f"{rel}: {len(missed)} of {len(lines)} "
              f"unreached{': ' + spans(missed) if missed else ''}")
    print(f"total: {len(unreached)} of {total} executable lines unreached "
          f"({total - len(unreached)} reached)")
    allowed, problems = allowed_lines(ALLOWLIST.read_text())
    for problem in problems:
        print(problem)
    for label, entries in (("unreached and not listed", unreached - allowed),
                           ("listed but reached", allowed - unreached)):
        for path, line in sorted(entries):
            print(f"{label}: {path}:{line}")
    return code or int(bool(problems) or unreached != allowed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
