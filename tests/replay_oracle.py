"""A reference trace replay that reads in blocks of whole lines.

`replay` reads the file `READ_CHARS` characters at a time, completes each
block to the end of its line, cuts it before every line that starts a
section, drops blank lines and adds a missing final newline block by block,
then checks that each block starts the freshly rendered text not yet
matched.  It is the semantics `natsim.assess.replay` must keep while it
compares whole pieces of the file and reads it line by line only after a
piece differs.  Set this module's `READ_CHARS` to change its block size.
"""

from __future__ import annotations

import json

from natsim import scenario as scenario_mod
from natsim.assess import TRACE_MARK, VERSION, WRITE_LINES, ReplayResult, run_section
from natsim.fabric import keep_traces, render_chunks
from natsim.scenario import ScenarioError

READ_CHARS = 1 << 13  # characters of a trace file read at once


def replay(path: str) -> ReplayResult:
    """Re-run every section of a trace file and byte-compare the output,
    reading and re-simulating one section at a time.  After the first
    divergence the remaining sections are only read, for their versions."""
    found = version_mismatch = False
    divergence = None
    try:
        with open(path, encoding="utf-8") as fh, keep_traces():
            for ver, name, mode, seed, doc, body in _sections(path, fh):
                found = True
                version_mismatch |= ver != VERSION
                if divergence is None:
                    divergence = _replay_section(path, name, mode, seed, doc, body)
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: {e}") from None
    if not found:
        raise ScenarioError(f"{path}: no trace sections found")
    return ReplayResult(divergence is None, version_mismatch, divergence)


def _replay_section(path, name, mode, seed, doc, body) -> str | None:
    """Re-simulate one section and check that each block of its recorded
    lines starts the freshly rendered text not yet matched; the first
    difference, or None."""
    scn = scenario_mod.load_scenario(doc)
    if mode not in ("identify", "attack"):
        raise ScenarioError(f"{path}: unknown trace mode {mode!r}")
    _, handles = run_section(scn, mode, seed)
    trace = handles.sim.trace
    fresh = render_chunks(trace.rows(), WRITE_LINES)
    pending, at = "", 0  # the fresh text, matched up to `at`
    recorded = 0
    for old in body:
        while len(pending) - at < len(old) and (chunk := next(fresh, None)):
            pending, at = pending[at:] + chunk, 0
        count = old.count("\n")
        if pending.startswith(old, at):
            at += len(old)
        else:  # name the first differing line; the fresh text is short once it runs out
            new = pending[at:].split("\n", count)[:-1]
            for number, (was, now) in enumerate(zip(old.split("\n"), new), recorded + 1):
                if was != now:
                    return f"section {name} line {number}: recorded {was!r} vs replayed {now!r}"
            pending, at = "", 0  # the fresh text ran out, all of it matched
        recorded += count
    if recorded != len(trace):
        return f"section {name}: recorded {recorded} lines vs replayed {len(trace)}"
    return None


def _sections(path: str, fh):
    """Yield (version, name, mode, seed, doc, body) for each section of an
    open trace file, read in the blocks of whole lines `_blocks` cuts.
    `body` yields the section's record lines a block at a time, blank lines
    dropped and each line ending in a newline; whatever of it is left unread
    is skipped."""
    blocks = _blocks(fh)
    pending = next(blocks, "")  # the next section's first block
    if pending and not pending.startswith(TRACE_MARK):
        raise ScenarioError(f"{path}: malformed trace header")

    def body(text):
        nonlocal pending
        while text and not text.startswith(TRACE_MARK):
            # blank lines, or the file's last line without its newline
            if text[0] == "\n" or "\n\n" in text or text[-1] != "\n":
                text = "".join(f"{line}\n" for line in text.split("\n") if line)
            yield text
            text = next(blocks, "")
        pending = text

    while pending:
        line, _, text = pending.partition("\n")
        version = line.partition(" ")[2]
        header = {"#name": "", "#mode": "", "#seed": None, "#scenario": None}
        while text or (text := next(blocks, "")):
            line, _, rest = text.partition("\n")
            key, space, value = line.partition(" ")
            if space and key in header:
                header[key] = value
            elif line:
                break  # the first record line, or the next section's
            text = rest
        seed, doc = header["#seed"], header["#scenario"]
        try:
            seed = 0 if seed is None else int(seed)
        except ValueError:
            raise ScenarioError(f"{path}: #seed: {seed!r} is not an integer") from None
        try:
            doc = {} if doc is None else json.loads(doc)
        except (ValueError, RecursionError) as e:
            raise ScenarioError(f"{path}: #scenario: invalid JSON: {e}") from None
        lines = body(text)
        yield version, header["#name"], header["#mode"], seed, doc, lines
        for _ in lines:  # sets `pending` to the next section's first block
            pass


def _blocks(fh):
    """The text of an open trace file, READ_CHARS characters at a time and
    then the rest of the line in progress, with each block cut before every
    line that starts a section."""
    while block := fh.read(READ_CHARS):
        if block[-1] != "\n":
            block += fh.readline()
        start = 0
        while (cut := block.find("\n" + TRACE_MARK, start)) >= 0:
            yield block[start : cut + 1]
            start = cut + 1
        yield block[start:]
