"""Print the lines of ``src/bonusmalus`` that no test reaches.

Runs ``pytest`` in this process under the standard library's ``trace``
module, then lists per module the executable lines that never ran, and their
total.  From the repository root::

    python tests/tools/coverage_map.py [pytest arguments]

The arguments go to ``pytest.main``; with none, the whole suite runs.  The
run takes about one and a half times as long as the suite does alone.

Tests that run the package in a subprocess (the demos, and the checks that
start ``python -c``) are not traced, so a line only they reach is listed as
unreached.  This file is not a test module, so ``pytest`` does not collect it.
"""

from __future__ import annotations

import dis
import functools
import sys
import trace
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "bonusmalus"


@functools.lru_cache(maxsize=None)
def in_package(filename: str) -> bool:
    return Path(filename).resolve().parent == PACKAGE


class PackageTrace(trace.Trace):
    """A line-counting ``trace.Trace`` that follows only frames of the package's own files.

    ``trace.Trace``'s ``ignoredirs`` cannot stand in: it remembers its
    decision per module base name, so a ``__init__.py`` or an ``errors.py``
    it skipped elsewhere would hide the package's file of that name.
    """

    def __init__(self) -> None:
        super().__init__(count=1, trace=0)

    def globaltrace_lt(self, frame, why, arg):
        if why == "call" and in_package(frame.f_code.co_filename):
            return self.localtrace
        return None


def executable_lines(path: Path) -> set[int]:
    """The lines at which the compiled module, or any code object in it, starts an instruction."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: the module's entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` ranges of consecutive numbers."""
    out, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(line) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(args: list[str]) -> int:
    tracer = PackageTrace()
    code = tracer.runfunc(pytest.main, args or [str(REPO / "tests")])
    reached = {}
    for filename, line in tracer.results().counts:
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    total = executable = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missing = sorted(lines - reached.get(path.resolve(), set()))
        total += len(missing)
        executable += len(lines)
        print(f"{path.relative_to(REPO)}: {len(missing)} unreached" + (f": {spans(missing)}" if missing else ""))
    print(f"total: {total} of {executable} executable lines of src/ unreached (pytest exit {int(code)})")
    print("Not traced: tests that run the package in a subprocess.")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
