"""Count the lines of src/natsim that the tier-1 tests never run.

    python tools/linecov.py [--max N]

Runs pytest on `tests` in this process under `sys.settrace` (no coverage package
needed) and prints one `file:line: source` line for each executable line
of `src/natsim` that no test ran, then the total.  The executable lines
are the line numbers in the line tables of every code object compiled
from each module.  Hypothesis runs derandomized and with no example
database, so the count does not move with the examples a run happens to
draw.  Exits 1 when the total is above `--max`, otherwise 0:
the test outcomes never decide the exit status, since tracing slows
every test several times over (C2's wall-time bound fails under it), and
the untraced tier-1 run is the test gate.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def trace_run() -> dict[str, set[int]]:
    """Run the tests under the tracer; the lines hit in each package file."""
    prefix = PACKAGE + os.sep
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # the call event stands for the function's first line, which
        # carries no line event of its own
        hit.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest
    from hypothesis import settings

    settings.register_profile("linecov", derandomize=True, database=None)
    settings.load_profile("linecov")
    sys.settrace(tracer)
    try:
        # hypothesis is imported above, before pytest could mark it for
        # assertion rewriting, which pytest would otherwise warn about
        pytest.main(["-q", "-p", "no:cacheprovider", "-W", "ignore::pytest.PytestAssertRewriteWarning",
                     "tests"])
    finally:
        sys.settrace(None)
    return hit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--max", type=int, default=None, help="fail above this many unrun lines")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hit = trace_run()

    unrun = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        for line in sorted(executable_lines(source, path) - hit.get(path, set())):
            unrun.append(f"src/natsim/{name}:{line}: {text[line - 1].strip()}")
    print("\n".join(unrun))
    print(f"{len(unrun)} unrun lines in src/natsim")
    if args.max is not None and len(unrun) > args.max:
        print(f"above the maximum of {args.max}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
