"""Vulnerability assessor: runs identification and the DoS attack over
scenario sets, grades each policy variant, renders CSV/human reports,
and replays trace files for bit-exact regression checks.

Identification and attack always run on fresh simulator instances of the
same scenario, so their traces are independent pure functions of
(document, seed).  The runs keep their trace records only when a trace
is written or replayed (`fabric.keep_traces`).

Replay re-simulates a trace file one section at a time and compares the
fresh rendering with the file one rendered chunk at a time, one read of the
chunk's length and one string compare each; only from a chunk that differs,
or at the section's end, does it read the file line by line.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, field

from . import __version__ as VERSION
from . import probe as probe_mod
from . import scenario as scenario_mod
from . import strike as strike_mod
from .fabric import Simulator, keep_traces, render_chunks
from .probe import Verdict
from .scenario import Handles, Scenario, ScenarioError
from .strike import OUTCOME_CSV_COLUMNS, AttackReport

ASSESS_CSV_HEADER = "scenario,policy,verdict," + OUTCOME_CSV_COLUMNS
PROBE_CSV_HEADER = "target,kind,reason,baseline,postProbe,fragSizes"
STRIKE_CSV_HEADER = "scenario,policy," + OUTCOME_CSV_COLUMNS

# Field studies of this attack class report ~5.72/5.06 MBps average attack
# bandwidth and >92% of 180 surveyed NAT networks vulnerable; those are
# live-Internet measurements, quoted for context only and never asserted here.
FIELD_CONTEXT_NOTE = (
    "note: published field measurements (~5.72/5.06 MBps attack bandwidth, "
    ">92% of surveyed NAT networks vulnerable) are live-Internet figures, "
    "not desk-scale simulator targets"
)

WRITE_LINES = 1024  # trace lines rendered into one chunk, and one write
READ_CHARS = 1 << 13  # characters read at once while replay skips to the next section
TRACE_MARK = "#natsim-trace"  # the start of every section's first line


@dataclass
class AssessmentRow:
    scenario: str
    policy: str
    verdict: Verdict | None = None
    report: AttackReport | None = None
    error: str | None = None
    expected_mismatch: list[str] = field(default_factory=list)

    def csv_row(self) -> str:
        verdict = self.verdict.kind.value if self.verdict else "-"
        if self.error:
            outcome = AttackReport().outcome_csv(f"error,{self.error}")
        elif self.report is None:
            outcome = AttackReport().outcome_csv("-,-")
        else:
            outcome = self.report.outcome_csv()
        return f"{self.scenario},{self.policy},{verdict},{outcome}"


def _build_and_establish(scn: Scenario, seed: int | None, block: str) -> Handles:
    """Build a fresh instance and establish its workload, for a run that
    needs the scenario's `block`."""
    if getattr(scn, block) is None:
        raise ScenarioError(f"{block}: scenario has no {block} block")
    handles = scenario_mod.build(scn, seed=seed)
    scenario_mod.establish(handles)
    return handles


def identify_scenario(scn: Scenario, seed: int | None = None) -> tuple[Verdict, Handles]:
    """Build a fresh instance, establish the workload, and run the probe (whose planted MTU stays)."""
    handles = _build_and_establish(scn, seed, "probe")
    return probe_mod.run_identification(handles), handles


def attack_scenario(scn: Scenario, seed: int | None = None) -> tuple[AttackReport, Handles]:
    """Build a fresh instance, establish the workload, and run the attack."""
    handles = _build_and_establish(scn, seed, "attack")
    if handles.attacker_node is None:
        raise ScenarioError("attack: scenario has no attacker node")
    return strike_mod.run_dos_attack(handles), handles


def check_expectations(
    scn: Scenario, row: AssessmentRow, *, identify: bool = True, attack: bool = True
) -> None:
    """Add to `row` every way its outcome misses the scenario's `expect`
    block; `identify` and `attack` say which of the two runs it covers."""
    exp = scn.expect
    if exp is None:
        return
    if identify and exp.verdict is not None:
        got = row.verdict.kind.value if row.verdict else "-"
        if got != exp.verdict:
            row.expected_mismatch.append(f"verdict {got} != {exp.verdict}")
    if attack and exp.attack_success is not None:
        got_success = row.report.success if row.report else None
        if got_success != exp.attack_success:
            row.expected_mismatch.append(f"success {got_success} != {exp.attack_success}")
    if attack and exp.diagnosis is not None:
        got_diag = row.report.failure_diagnosis.value if row.report else "-"
        if got_diag != exp.diagnosis:
            row.expected_mismatch.append(f"diagnosis {got_diag} != {exp.diagnosis}")


def run_section(
    scn: Scenario, mode: str, seed: int | None = None, sink: "TraceFile | None" = None
) -> tuple[Verdict | AttackReport, Handles]:
    """Run one `mode` ("identify" or "attack") on a fresh instance of `scn`;
    with a `sink`, the run keeps its trace and is added to it as a section."""
    run = identify_scenario if mode == "identify" else attack_scenario
    if sink is None:
        return run(scn, seed=seed)
    with keep_traces():
        result, handles = run(scn, seed=seed)
    sink.add_section(scn, mode, handles.sim)
    return result, handles


def assess(
    scenarios: list[Scenario], seed: int | None = None, trace_sink: "TraceFile | None" = None,
    encoding: str = "utf-8",
) -> tuple[list[AssessmentRow], str, str, bool]:
    """Run every scenario; returns (rows, csv, human summary, all-matched).
    The summary is for output in `encoding`.  Individual scenario failures
    become rows, never abort the suite."""
    rows = []
    for scn in sorted(scenarios, key=lambda s: s.name):
        row = AssessmentRow(scenario=scn.name, policy=scn.policy_summary())
        try:
            if scn.probe is not None:
                row.verdict, _ = run_section(scn, "identify", seed, trace_sink)
            run_attack = scn.attack is not None
            if run_attack and scn.probe is not None and not scn.force_attack:
                run_attack = row.verdict.kind is probe_mod.VerdictKind.NAT_DEVICE
            if run_attack:
                row.report, _ = run_section(scn, "attack", seed, trace_sink)
        except Exception as e:  # noqa: BLE001 - per-row failures are reported, not raised
            row.error = f"{type(e).__name__}: {e}"
        check_expectations(scn, row)
        rows.append(row)
    csv = "\n".join([ASSESS_CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"
    summary = _summarize(rows, encoding)
    matched = all(not r.expected_mismatch and not r.error for r in rows)
    return rows, csv, summary, matched


def _summarize(rows: list[AssessmentRow], encoding: str) -> str:
    lines = []
    for r in rows:
        if r.error:
            status = f"ERROR ({r.error})"
        elif r.report is not None:
            status = "VULNERABLE" if r.report.success else f"held ({r.report.failure_diagnosis.value})"
        elif r.verdict is not None:
            status = f"verdict={r.verdict.kind.value}"
        else:
            status = "no-op"
        mark = "" if not r.expected_mismatch else f"  [MISMATCH: {'; '.join(r.expected_mismatch)}]"
        # the name as `encoding` shows it, escaped before it is padded
        name = r.scenario.encode(encoding, "backslashreplace").decode(encoding)
        lines.append(f"{name:40s} {r.policy:60s} {status}{mark}")
    lines.append(FIELD_CONTEXT_NOTE)
    return "\n".join(lines) + "\n"


# -- trace files and replay -------------------------------------------------------


class TraceFile:
    """A multi-section trace: each section embeds the scenario document so
    the file replays standalone.  A section is rendered to a spool file as
    it is added, so no rendered line and no simulator is held; `write`
    copies the spool to its path."""

    def __init__(self):
        self._spool = tempfile.TemporaryFile("w+", encoding="utf-8")
        weakref.finalize(self, self._spool.close)

    def add_section(self, scn: Scenario, mode: str, sim: Simulator) -> None:
        rows = sim.trace.rows()  # raises before any byte is written if not kept
        fh = self._spool
        fh.write(
            f"{TRACE_MARK} {VERSION}\n#name {scn.name}\n#mode {mode}\n#seed {sim.seed}\n"
            f"#scenario {json.dumps(scn.doc, sort_keys=True)}\n"
        )
        fh.writelines(render_chunks(rows, WRITE_LINES))

    def write(self, path: str) -> None:
        self._spool.flush()
        self._spool.buffer.seek(0)
        with open(path, "wb") as out:
            shutil.copyfileobj(self._spool.buffer, out)
        self._spool.seek(0, os.SEEK_END)  # later sections append


@dataclass
class ReplayResult:
    identical: bool
    version_mismatch: bool = False
    divergence: str | None = None  # human description of the first difference

    def describe(self) -> str:
        if self.identical:
            note = " (version mismatch noted)" if self.version_mismatch else ""
            return f"identical{note}"
        return f"divergent: {self.divergence}"


def replay(path: str) -> ReplayResult:
    """Re-run every section of a trace file and compare its recorded lines
    with the fresh rendering, one section at a time: whole chunks of the
    file while they match, line by line from the first chunk that does not
    (see `_replay_section`).  After the first divergence the remaining
    sections are only read, for their versions."""
    version_mismatch, divergence = False, None
    try:
        with open(path, encoding="utf-8") as fh, keep_traces():
            reader = _Reader(fh)
            if not (line := reader.line()):
                raise ScenarioError(f"{path}: no trace sections found")
            if not line.startswith(TRACE_MARK):
                raise ScenarioError(f"{path}: malformed trace header")
            while line:
                ver, name, mode, seed, doc = _header(path, line, reader)
                version_mismatch |= ver != VERSION
                if divergence is None:
                    divergence = _replay_section(path, name, mode, seed, doc, reader)
                reader.skip()  # what is left of the section
                line = reader.line()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: {e}") from None
    return ReplayResult(divergence is None, version_mismatch, divergence)


def _replay_section(path, name, mode, seed, doc, reader) -> str | None:
    """Re-simulate one section and compare its body with the fresh text one
    rendered chunk at a time, one read of the chunk's length and one compare
    each; the first difference, or None.  Text that differs from its chunk
    (a body that ends inside the chunk reads short) is pushed back, and
    `_compare_lines` goes on line by line from the chunk's start; after the
    last chunk it checks that the body ends there too."""
    scn = scenario_mod.load_scenario(doc)
    if mode not in ("identify", "attack"):
        raise ScenarioError(f"{path}: unknown trace mode {mode!r}")
    _, handles = run_section(scn, mode, seed)
    trace = handles.sim.trace
    fresh = render_chunks(trace.rows(), WRITE_LINES)
    for index, chunk in enumerate(fresh):  # every chunk but the last has WRITE_LINES lines
        if (piece := reader.read(len(chunk))) != chunk:
            reader.push(piece)
            rest = itertools.chain((chunk,), fresh)
            return _compare_lines(reader, name, index * WRITE_LINES, rest, len(trace))
    return _compare_lines(reader, name, len(trace), (), len(trace))


def _compare_lines(reader, name, recorded, chunks, replayed) -> str | None:
    """Compare the rest of a section body with the lines of the fresh
    `chunks` line by line, after `recorded` lines that matched: blank lines
    are skipped, the file's last line may lack its newline, and the first
    recorded line that differs is named; else the two line counts, if they
    differ."""
    fresh = (line for chunk in chunks for line in chunk[:-1].split("\n"))
    for line in reader.lines():
        if line != "\n":
            recorded += 1
            was, now = line.rstrip("\n"), next(fresh, None)
            if now is not None and was != now:
                return f"section {name} line {recorded}: recorded {was!r} vs replayed {now!r}"
    if recorded != replayed:
        return f"section {name}: recorded {recorded} lines vs replayed {replayed}"
    return None


def _header(path: str, line: str, reader: "_Reader"):
    """(version, name, mode, seed, doc) of the section whose first `line` was
    just read; `reader` is left at the section's first record line."""
    header = {"#name": "", "#mode": "", "#seed": None, "#scenario": None}
    for text in reader.lines():
        key, space, value = text.rstrip("\n").partition(" ")
        if space and key in header:
            header[key] = value
        elif text != "\n":
            reader.push(text)  # the first record line
            break
    seed, doc = header["#seed"], header["#scenario"]
    try:
        seed = 0 if seed is None else int(seed)
    except ValueError:
        raise ScenarioError(f"{path}: #seed: {seed!r} is not an integer") from None
    try:
        doc = {} if doc is None else json.loads(doc)
    except (ValueError, RecursionError) as e:
        raise ScenarioError(f"{path}: #scenario: invalid JSON: {e}") from None
    version = line.rstrip("\n").partition(" ")[2]
    return version, header["#name"], header["#mode"], seed, doc


class _Reader:
    """An open trace file, with the text read from it ahead of use: that
    text, from offset `at` on, is read again first."""

    def __init__(self, fh):
        self.fh, self.ahead, self.at = fh, "", 0

    def push(self, text: str) -> None:
        self.ahead, self.at = text + self.ahead[self.at :], 0

    def read(self, size: int) -> str:
        """The next `size` characters, fewer only at the end of the file."""
        text = self.ahead[self.at : self.at + size]
        self.at += len(text)
        return text + self.fh.read(size - len(text)) if len(text) < size else text

    def line(self) -> str:
        """The next line, with its newline if it has one; "" at the end."""
        at, end = self.at, self.ahead.find("\n", self.at) + 1
        self.at = end or len(self.ahead)
        return self.ahead[at:end] if end else self.ahead[at:] + self.fh.readline()

    def skip(self) -> None:
        """Read on from the start of a line to the next line that starts a
        section, which is left to be read again, or to the end of the file."""
        while text := self.read(READ_CHARS):
            text = "\n" + text + self.line()  # whole lines, each after a newline
            if (at := text.find("\n" + TRACE_MARK)) >= 0:
                self.push(text[at + 1 :])
                return

    def lines(self):
        """The lines up to the next one that starts a section, which is left
        to be read again, or to the end of the file."""
        while (line := self.line()) and not line.startswith(TRACE_MARK):
            yield line
        self.push(line)


def probe_csv(target: str, verdict: Verdict) -> str:
    return PROBE_CSV_HEADER + "\n" + verdict.csv_row(target) + "\n"


def strike_csv(rows: list[tuple[str, str, AttackReport]]) -> str:
    lines = [STRIKE_CSV_HEADER]
    lines += [report.csv_row(name, policy) for name, policy, report in rows]
    return "\n".join(lines) + "\n"
