"""Run Tier-1 under a line tracer and list every line of ``src/comsel``
that no test ran.

    python3 tests/linetrace.py -q [more pytest arguments]

Run it from the repository root; its arguments go to ``pytest.main``.  It
imports ``comsel`` from ``src``, and its tracer is installed, for this
thread and for every thread started later, before anything imports
``comsel``.  Only frames of ``src/comsel`` files are traced line by line.
A test marked ``untraced`` runs its call with the tracer suspended: CPython
appends to a string in place only when no tracer is set, and the memory
tests that rely on it carry that mark.

After the run, every code object of each ``src/comsel/*.py``, nested ones
included, lists its lines through ``co_lines()``; each one that never ran
is printed as ``file:line``.  The exit status is pytest's when the tests
fail, 1 when some line never ran, and 0 otherwise.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FILES = sorted((SRC / "comsel").glob("*.py"))

# lines run, by file name as the code objects carry it; None for a file
# outside src/comsel, decided once per name
_ran: dict[str, set[int] | None] = {str(path): set() for path in FILES}


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ran:
        _ran[name] = _ran.get(str(Path(name).resolve()))
    lines = _ran[name]
    if lines is None:
        return None
    lines.add(frame.f_lineno)  # a call's first line has no line event

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


class _Untraced:
    """Suspends the tracer around the call of a test marked ``untraced``."""

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        if item.get_closest_marker("untraced") is None:
            return (yield)
        sys.settrace(None)
        try:
            return (yield)
        finally:
            sys.settrace(_trace)


def _code_lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    sys.settrace(_trace)
    threading.settrace(_trace)
    status = pytest.main(args, plugins=[_Untraced()])
    sys.settrace(None)
    threading.settrace(None)
    unrun = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in FILES
        for line in sorted(
            _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
            - _ran[str(path)]
        )
    ]
    for line in unrun:
        print(line)
    print(f"{len(unrun)} lines of src/comsel ran in no test")
    return status or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
