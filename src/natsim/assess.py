"""Vulnerability assessor: runs identification and the DoS attack over
scenario sets, grades each policy variant, renders CSV/human reports,
and replays trace files for bit-exact regression checks.

Identification and attack always run on fresh simulator instances of the
same scenario, so their traces are independent pure functions of
(document, seed).  The runs keep their trace records only when a trace
is written or replayed (`fabric.keep_traces`).
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
from .fabric import Simulator, keep_traces, render_lines
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

WRITE_LINES = 1024  # trace lines joined into one write, or one read in replay
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
    """Build a fresh instance, establish the workload, and run the probe."""
    handles = _build_and_establish(scn, seed, "probe")
    verdict = probe_mod.run_identification(handles)
    # undo the planted path MTU, mirroring a polite prober
    probe_mod.restore_path_mtu(handles.sim, handles.vantage_host.address)
    return verdict, handles


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
    scenarios: list[Scenario], seed: int | None = None, trace_sink: "TraceFile | None" = None
) -> tuple[list[AssessmentRow], str, str, bool]:
    """Run every scenario; returns (rows, csv, human summary, all-matched).
    Individual scenario failures become rows, never abort the suite."""
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
    summary = _summarize(rows)
    matched = all(not r.expected_mismatch and not r.error for r in rows)
    return rows, csv, summary, matched


def _summarize(rows: list[AssessmentRow]) -> str:
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
        lines.append(f"{r.scenario:40s} {r.policy:60s} {status}{mark}")
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
        lines = render_lines(rows)
        while chunk := "".join(itertools.islice(lines, WRITE_LINES)):
            fh.write(chunk)

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
    """Re-simulate one section and compare each block of its recorded lines
    with as many freshly rendered ones, joined; the first difference, or None."""
    scn = scenario_mod.load_scenario(doc)
    if mode not in ("identify", "attack"):
        raise ScenarioError(f"{path}: unknown trace mode {mode!r}")
    _, handles = run_section(scn, mode, seed)
    trace = handles.sim.trace
    fresh = render_lines(trace.rows())
    recorded = 0
    for old in body:
        count = old.count("\n")
        new = "".join(itertools.islice(fresh, count))
        if new != old:  # name the first differing line; `new` is short once `fresh` runs out
            pairs = zip(old.split("\n"), new.split("\n")[:-1])
            for number, (was, now) in enumerate(pairs, recorded + 1):
                if was != now:
                    return f"section {name} line {number}: recorded {was!r} vs replayed {now!r}"
        recorded += count
    if recorded != len(trace):
        return f"section {name}: recorded {recorded} lines vs replayed {len(trace)}"
    return None


def _sections(path: str, fh):
    """Yield (version, name, mode, seed, doc, body) for each section of an
    open trace file.  The file is read WRITE_LINES lines at a time, and each
    block is cut before every line that starts a section.  `body` yields the
    section's record lines a block at a time, blank lines dropped and each
    line ending in a newline; whatever of it is left unread is skipped."""
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
    """The text of an open trace file, WRITE_LINES lines at a time, with
    each block cut before every line that starts a section."""
    while block := "".join(itertools.islice(fh, WRITE_LINES)):
        start = 0
        while (cut := block.find("\n" + TRACE_MARK, start)) >= 0:
            yield block[start : cut + 1]
            start = cut + 1
        yield block[start:]


def probe_csv(target: str, verdict: Verdict) -> str:
    return PROBE_CSV_HEADER + "\n" + verdict.csv_row(target) + "\n"


def strike_csv(rows: list[tuple[str, str, AttackReport]]) -> str:
    lines = [STRIKE_CSV_HEADER]
    lines += [report.csv_row(name, policy) for name, policy, report in rows]
    return "\n".join(lines) + "\n"
