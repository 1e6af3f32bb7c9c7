"""Count the lines of src/natsim that the tier-1 tests never run.

    python3.12 tools/linecov.py [--max N]

Runs pytest on `tests` in this process under `sys.monitoring` (Python 3.12+,
no coverage package needed) and prints one `file:line: source` line for
each executable line of `src/natsim` that no test ran, then the total.
Each line's callback returns `DISABLE`, so a line costs one event and
then runs at full speed.  The executable lines are the line numbers in
the line tables of every code object compiled from each module.  The
bodies of `if TYPE_CHECKING:` blocks, which only a type checker reads and
no run can reach, are listed apart as skipped and left out of the total.
Hypothesis runs derandomized and with no example database, so the count
does not move with the examples a run happens to draw.  Exits 2 without
`sys.monitoring`, 1 when a test fails or the total is above `--max`, else 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "natsim")


def executable_lines(source: str, path: str) -> set[int]:
    """The line numbers of every instruction of the module's code objects."""
    lines: set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # None or the 0 of RESUME
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def type_checking_lines(source: str) -> set[int]:
    """The line numbers of the bodies of the module's `if TYPE_CHECKING:` blocks."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def lines_hit(run: Callable[[], object], root: str = PACKAGE) -> tuple[object, dict[str, set[int]]]:
    """Call `run()` under `sys.monitoring`; its result and the lines it ran in each file under `root`."""
    mon = sys.monitoring  # held here, so a test that deletes the attribute leaves the callbacks working
    tool, prefix = mon.COVERAGE_ID, root + os.sep
    hit: dict[str, set[int]] = {}

    def record(code, line):
        if code.co_filename.startswith(prefix):
            hit.setdefault(code.co_filename, set()).add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "linecov")
    try:
        mon.register_callback(tool, mon.events.LINE, record)
        # a function's first line carries no LINE event of its own
        mon.register_callback(tool, mon.events.PY_START, lambda code, offset: record(code, code.co_firstlineno))
        # locations that returned DISABLE stay disabled across tool ids until this
        mon.restart_events()
        mon.set_events(tool, mon.events.LINE | mon.events.PY_START)
        return run(), hit
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)


def trace_run() -> tuple[object, dict[str, set[int]]]:
    """Run the tests under the engine; pytest's exit status and the lines hit in each package file."""
    import pytest
    from hypothesis import settings

    settings.register_profile("linecov", derandomize=True, database=None)
    settings.load_profile("linecov")
    # imported above, hypothesis is too early for pytest's assertion rewriting, which warns of it
    return lines_hit(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "-W",
                                          "ignore::pytest.PytestAssertRewriteWarning", "tests"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--max", type=int, default=None, help="fail above this many unrun lines")
    args = parser.parse_args(argv)
    if not hasattr(sys, "monitoring"):
        print(f"tools/linecov.py needs Python 3.12+ (sys.monitoring), not {sys.version.split()[0]}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status, hit = trace_run()

    unrun, skipped = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        type_checking = type_checking_lines(source)
        for line in sorted(executable_lines(source, path) - hit.get(path, set())):
            where = f"src/natsim/{name}:{line}: {text[line - 1].strip()}"
            (skipped if line in type_checking else unrun).append(where)
    for where in skipped:
        print(f"skipped (if TYPE_CHECKING) {where}")
    print("\n".join(unrun))
    print(f"{len(unrun)} unrun lines in src/natsim")
    if args.max is not None and len(unrun) > args.max:
        print(f"above the maximum of {args.max}")
        return 1
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
