"""List the lines of src/qaspace that no test runs.

    python3 tools/unexecuted.py [pytest arguments]

Runs pytest in this process (on `tests`, quietly, unless arguments are
given) under a standard-library line tracer, `sys.settrace`, that follows
only frames whose code lives in src/qaspace.  Then it prints each
executable line that never ran, as `path:line`, one per line, and a count.
The executable lines are those the compiled code of each file names in its
line table.  The tracer sees this process alone, so a line that only a
subprocess test runs is listed.
Hypothesis runs with no deadline, since tracing slows every example, and
derandomized with no database, so that two runs list the same lines.

Exits with pytest's status.  The whole suite takes about two minutes.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qaspace")


def executable_lines(path: str) -> set:
    """The line numbers that the compiled code of a file, nested code included, names."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_lines(run) -> tuple:
    """run() under the tracer: its result, and the lines it ran as {path: set of line numbers}."""
    ran: dict = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ran


class _Profile:
    """A pytest plugin that loads the Hypothesis profile once pytest has set
    up, so that pytest, not this script, imports Hypothesis first."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("unexecuted", deadline=None, derandomize=True, database=None)
        settings.load_profile("unexecuted")


def main(argv: list) -> int:
    import pytest

    os.chdir(ROOT)
    # each subprocess test puts the tree under test on its own path
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status, ran = trace_lines(lambda: pytest.main(argv or ["-q", "tests"], plugins=[_Profile]))
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed += [f"src/qaspace/{name}:{line}"
                       for line in sorted(executable_lines(path) - ran.get(path, set()))]
    for line in missed:
        print(line)
    print(f"{len(missed)} executable lines in src/qaspace that no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
