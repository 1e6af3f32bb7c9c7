"""Command-line entry points.

    natsim identify <scenario.json> [--seed N] [--csv PATH] [--trace PATH] [--quiet]
    natsim attack   <scenario.json> [--seed N] [--repeat N] [--csv PATH] [--trace PATH] [--quiet]
    natsim assess   [<dir|file> ...] [--seed N] [--csv PATH] [--trace PATH] [--quiet]
    natsim replay   <trace>

Exit codes: 0 all expected outcomes matched, 1 configuration error,
2 at least one mismatch (or trace divergence).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import assess as assess_mod
from . import scenario as scenario_mod
from .scenario import ScenarioError
from .strike import NothingToAttackError


def _load_doc(path: str) -> scenario_mod.Scenario:
    try:
        # JSON exchanged between systems is UTF-8 (RFC 8259, section 8.1)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"{path}: {e}") from None
    except (ValueError, RecursionError) as e:  # a JSON, UTF-8 or nesting error
        raise ScenarioError(f"{path}: invalid JSON: {e}") from None
    return scenario_mod.load_scenario(doc)


def _collect_scenarios(paths: list[str]) -> list[scenario_mod.Scenario]:
    if not paths:
        return scenario_mod.default_suite()
    out = []
    for path in paths:
        if os.path.isdir(path):
            for entry in sorted(os.listdir(path)):
                if entry.endswith(".json"):
                    out.append(_load_doc(os.path.join(path, entry)))
        else:
            out.append(_load_doc(path))
    if not out:
        raise ScenarioError("no scenario files found")
    return out


def _say(text: str, end: str = "\n") -> None:
    """Print a report line.  What stdout's encoding cannot show, say a
    scenario name under an ASCII locale, prints as a backslash escape where
    print would raise; files stay UTF-8, and no stream setting changes."""
    encoding = _stdout_encoding()
    print(text.encode(encoding, "backslashreplace").decode(encoding), end=end)


def _stdout_encoding() -> str:
    return getattr(sys.stdout, "encoding", None) or "utf-8"


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised inside the block as a configuration error."""
    try:
        yield
    except OSError as e:
        raise ScenarioError(f"{path}: {e}") from None


def _driven(command):
    """A command that runs sections: `command(args, sink)` runs them, prints
    its own output and returns its rows and CSV text.  The wrapper tries the
    CSV and trace paths first (leaving no new file), gives the command the
    trace sink, writes the CSV and the trace, and exits 2 when a row failed
    or missed its expectations."""

    def drive(args) -> int:
        for path in filter(None, (args.csv, args.trace)):
            existed = os.path.lexists(path)
            with _writing(path), open(path, "a"):
                pass
            if not existed:
                os.remove(path)
        sink = assess_mod.TraceFile() if args.trace else None
        rows, csv = command(args, sink)
        if args.csv:
            with _writing(args.csv), open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(csv)
        if sink is not None:
            with _writing(args.trace):
                sink.write(args.trace)
        return 2 if any(r.expected_mismatch or r.error for r in rows) else 0

    return drive


@_driven
def cmd_identify(args, sink):
    scn = _load_doc(args.scenario)
    verdict, _ = assess_mod.run_section(scn, "identify", args.seed, sink)
    if not args.quiet:
        _say(f"{scn.name}: {verdict.kind.value} ({verdict.reason.value})")
        ev = verdict.evidence
        payloads = [s - 20 for s in ev.echo_reply_fragments]
        # a missing size, or no fragment at all, prints "-" as the CSV does
        frags, payloads, base, post, total = (
            "-" if n is None or n == [] else n
            for n in (ev.echo_reply_fragments, payloads, ev.baseline_tcp_size,
                      ev.post_probe_tcp_size, ev.echo_reply_total))
        _say(f"  baseline={base} post-probe={post}")
        _say(f"  echo reply fragments={frags} wire octets (payloads {payloads}), total={total}")
    row = assess_mod.AssessmentRow(scn.name, scn.policy_summary(), verdict=verdict)
    assess_mod.check_expectations(scn, row, attack=False)
    return [row], assess_mod.probe_csv(scn.target_addr, verdict)


@_driven
def cmd_attack(args, sink):
    if args.repeat < 1:
        raise ScenarioError(f"--repeat: {args.repeat} is below the minimum 1")
    scn = _load_doc(args.scenario)
    base_seed = args.seed if args.seed is not None else scn.seed
    rows, reports = [], []
    for seed in range(base_seed, base_seed + args.repeat):
        report, _ = assess_mod.run_section(scn, "attack", seed, sink)
        reports.append((f"{scn.name}@{seed}", scn.policy_summary(), report))
        if not args.quiet:
            outcome = "success" if report.success else f"failed ({report.failure_diagnosis.value})"
            _say(
                f"{scn.name} seed={seed}: {outcome}; torn {report.client_connections_torn}/"
                f"{report.victim_connections}, blocked {report.new_connections_blocked}/"
                f"{report.new_connections_attempted}, {report.octets_sent} octets in "
                f"{report.duration_ticks} ticks"
            )
        rows.append(assess_mod.AssessmentRow(scn.name, scn.policy_summary(), report=report))
        assess_mod.check_expectations(scn, rows[-1], identify=False)
    if not args.quiet:
        _say(assess_mod.FIELD_CONTEXT_NOTE)
    return rows, assess_mod.strike_csv(reports)


@_driven
def cmd_assess(args, sink):
    scenarios = _collect_scenarios(args.paths)
    rows, csv, summary, _ = assess_mod.assess(scenarios, seed=args.seed, trace_sink=sink,
                                              encoding=_stdout_encoding())
    if not args.quiet:
        _say(summary, end="")
    return rows, csv


def cmd_replay(args) -> int:
    result = assess_mod.replay(args.trace)
    _say(result.describe())
    return 0 if result.identical else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="natsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="run the NAT identification probe on a scenario")
    p_id.add_argument("scenario")
    p_id.set_defaults(fn=cmd_identify)

    p_atk = sub.add_parser("attack", help="run the DoS attack on a scenario")
    p_atk.add_argument("scenario")
    p_atk.add_argument("--repeat", type=int, default=1, help="repetitions with consecutive seeds")
    p_atk.set_defaults(fn=cmd_attack)

    p_ass = sub.add_parser("assess", help="grade scenario files (default: built-in suite)")
    p_ass.add_argument("paths", nargs="*")
    p_ass.set_defaults(fn=cmd_assess)

    p_rep = sub.add_parser("replay", help="re-run a trace file and compare byte-for-byte")
    p_rep.add_argument("trace")
    p_rep.set_defaults(fn=cmd_replay)

    for p in (p_id, p_atk, p_ass):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--csv", default=None)
        p.add_argument("--trace", default=None)
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except scenario_mod.EstablishError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 1
    except NothingToAttackError as e:
        print(f"attack error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
