"""Vulnerability assessor: runs identification and the DoS attack over
scenario sets, grades each policy variant, renders CSV/human reports,
and replays trace files for bit-exact regression checks.

Identification and attack always run on fresh simulator instances of the
same scenario, so their traces are independent pure functions of
(document, seed).  The runs keep their trace records only when a trace
is written or replayed (`fabric.keep_traces`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__ as VERSION
from . import probe as probe_mod
from . import scenario as scenario_mod
from . import strike as strike_mod
from .fabric import Simulator, keep_traces
from .probe import Verdict
from .scenario import Handles, Scenario, ScenarioError
from .strike import OUTCOME_CSV_COLUMNS, AttackReport, StrikeContext

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
    before_echo = None
    if scn.probe.pre_echo_mtu is not None:
        frm, to, mtu = scn.probe.pre_echo_mtu
        before_echo = lambda sim: sim.set_link_mtu(frm, to, mtu)
    verdict = probe_mod.run_identification(
        handles.sim,
        handles.vantage_host,
        scn.target_addr,
        scn.probe.config,
        before_echo=before_echo,
    )
    # undo the planted path MTU, mirroring a polite prober
    probe_mod.restore_path_mtu(handles.sim, scn.target_addr, handles.vantage_host.address)
    return verdict, handles


def attack_scenario(scn: Scenario, seed: int | None = None) -> tuple[AttackReport, Handles]:
    """Build a fresh instance, establish the workload, and run the attack."""
    handles = _build_and_establish(scn, seed, "attack")
    if handles.attacker_node is None:
        raise ScenarioError("attack: scenario has no attacker node")
    ctx = StrikeContext(
        attacker_node=handles.attacker_node,
        server_host=handles.server_host,
        victims=handles.victims,
        new_conn_clients=[handles.hosts[c] for c in scn.clients],
        nat=handles.nat,
        tick_duration=scn.tick_duration,
    )
    report = strike_mod.run_dos_attack(handles.sim, handles.plan, ctx)
    return report, handles


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


def assess(
    scenarios: list[Scenario], seed: int | None = None, trace_sink: "TraceFile | None" = None
) -> tuple[list[AssessmentRow], str, str, bool]:
    """Run every scenario; returns (rows, csv, human summary, all-matched).
    Individual scenario failures become rows, never abort the suite."""
    rows = []
    with keep_traces(trace_sink is not None):
        for scn in sorted(scenarios, key=lambda s: s.name):
            row = AssessmentRow(scenario=scn.name, policy=scn.policy_summary())
            try:
                if scn.probe is not None:
                    row.verdict, handles = identify_scenario(scn, seed=seed)
                    if trace_sink is not None:
                        trace_sink.add_section(scn, "identify", handles.sim)
                run_attack = scn.attack is not None
                if run_attack and scn.probe is not None and not scn.force_attack:
                    run_attack = row.verdict.kind is probe_mod.VerdictKind.NAT_DEVICE
                if run_attack:
                    row.report, handles = attack_scenario(scn, seed=seed)
                    if trace_sink is not None:
                        trace_sink.add_section(scn, "attack", handles.sim)
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
    the file replays standalone."""

    def __init__(self):
        self.sections: list[tuple[str, str, int, dict, list[str]]] = []

    def add_section(self, scn: Scenario, mode: str, sim: Simulator) -> None:
        lines = [rec.line() for rec in sim.trace]
        self.sections.append((scn.name, mode, sim.seed, scn.doc, lines))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, mode, seed, doc, lines in self.sections:
                fh.write(f"#natsim-trace {VERSION}\n")
                fh.write(f"#name {name}\n")
                fh.write(f"#mode {mode}\n")
                fh.write(f"#seed {seed}\n")
                fh.write(f"#scenario {json.dumps(doc, sort_keys=True)}\n")
                for line in lines:
                    fh.write(line + "\n")


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
    """Re-run every section of a trace file and byte-compare the output."""
    sections = _parse_trace(path)
    if not sections:
        raise ScenarioError(f"{path}: no trace sections found")
    version_mismatch = any(ver != VERSION for ver, *_ in sections)
    for ver, name, mode, seed, doc, lines in sections:
        scn = scenario_mod.load_scenario(doc)
        with keep_traces():
            if mode == "identify":
                _, handles = identify_scenario(scn, seed=seed)
            elif mode == "attack":
                _, handles = attack_scenario(scn, seed=seed)
            else:
                raise ScenarioError(f"{path}: unknown trace mode {mode!r}")
        fresh = [rec.line() for rec in handles.sim.trace]
        for i, (old, new) in enumerate(zip(lines, fresh)):
            if old != new:
                return ReplayResult(
                    False,
                    version_mismatch,
                    f"section {name} line {i + 1}: recorded {old!r} vs replayed {new!r}",
                )
        if len(lines) != len(fresh):
            return ReplayResult(
                False,
                version_mismatch,
                f"section {name}: recorded {len(lines)} lines vs replayed {len(fresh)}",
            )
    return ReplayResult(True, version_mismatch)


def _parse_trace(path: str):
    sections = []
    current = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#natsim-trace"):
                if current:
                    sections.append(current)
                current = [line.split(" ", 1)[1] if " " in line else "", "", "", 0, {}, []]
            elif current is None:
                raise ScenarioError(f"{path}: malformed trace header")
            elif line.startswith("#name "):
                current[1] = line[len("#name ") :]
            elif line.startswith("#mode "):
                current[2] = line[len("#mode ") :]
            elif line.startswith("#seed "):
                current[3] = int(line[len("#seed ") :])
            elif line.startswith("#scenario "):
                current[4] = json.loads(line[len("#scenario ") :])
            elif line:
                current[5].append(line)
    if current:
        sections.append(current)
    return [tuple(s) for s in sections]


def probe_csv(target: str, verdict: Verdict) -> str:
    return PROBE_CSV_HEADER + "\n" + verdict.csv_row(target) + "\n"


def strike_csv(rows: list[tuple[str, str, AttackReport]]) -> str:
    lines = [STRIKE_CSV_HEADER]
    lines += [report.csv_row(name, policy) for name, policy, report in rows]
    return "\n".join(lines) + "\n"
