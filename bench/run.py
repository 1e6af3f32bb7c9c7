"""natsim benchmark: three workloads, end-to-end metrics with tracing off, and
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload {sweep,matrix,suite_trace} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports natsim from the checkout's
`src/` and exits 2 without a result when that is missing. Workloads and the
reasons for them are in `workloads.py`.

All times are reference seconds (`hostclock.py`): wall time normalised,
moment by moment, by a fixed reference kernel sampled every 25 ms, so that a
busy neighbour on a shared host does not move the figures.

`--trace 0` measures set-up in fresh processes, then repeats one iteration of
the workload (same inputs every time, at least MIN_ITERATIONS times) while the
next one still fits in `--seconds`, and reports the end-to-end metrics:

    setup_s          median over SETUP_SAMPLES fresh interpreters of importing
                     natsim and loading every scenario document the workload runs
    wall_s           median seconds of one iteration
    sim_pkts_per_s   simulated packets of one iteration (the sum of
                     packets_sent + packets_delivered of every simulator built)
                     divided by wall_s
    peak_rss_mb      ru_maxrss of this process at the end
    identify_ms_p50/p90, attack_ms_p50/p90
                     p50 and p90 over the distinct identification (attack)
                     runs of an iteration, a (scenario, seed) pair each, of
                     the median of that run's repeats; the counts of distinct
                     runs and repeats are printed. The median of repeats keeps
                     a GC pause or a sample landing in one 1 ms run from moving
                     the p90 of a workload with few distinct runs.

`--trace 1` alternates untraced iterations with the same iteration under spans
(`spans.py`) around natsim's entry points, for `--seconds`, and reports the
per-layer metrics of the fastest traced iteration and the tracing overhead
(fastest traced minus fastest untraced iteration). Its spans are written to
`.bench_out/` in the checkout.

Every iteration is checked: each run's outcome against its scenario's
`expect` block on any seed; the CSV (and for `suite_trace` the trace file)
SHA-256 and the simulated counts against `pinned.json` on the seeds pinned
there; and every iteration of a run against the first. A failed check fails
the runs of its iteration. The last line of standard output is the JSON
result; the lines before it name every metric with its unit, the sample
counts, `fail_rate` and any failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
MIN_ITERATIONS = 2
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "identify_ms_p50": "ms",
    "identify_ms_p90": "ms",
    "attack_ms_p50": "ms",
    "attack_ms_p90": "ms",
}

LAYER_UNITS = {
    "wire.total_length_calls": "count",
    "wire.fragment_calls": "count",
    "wire.fragment_s": "s",
    "wire.reassemble_calls": "count",
    "wire.reassemble_s": "s",
    "fabric.run_self_s": "s",
    "fabric.ns_per_pkt": "ns",
    "fabric.inject_s": "s",
    "fabric.record_calls": "count",
    "fabric.record_s": "s",
    "fabric.run_calls": "count",
    "natbox.calls": "count",
    "natbox.self_s": "s",
    "natbox.us_per_pkt": "us",
    "natbox.table_peak": "count",
    "natbox.mappings_removed": "count",
    "endpoint.calls": "count",
    "endpoint.self_s": "s",
    "endpoint.us_per_pkt": "us",
    "endpoint.dup_acks": "count",
    "probe.identify_s": "s",
    "probe.self_s": "s",
    "probe.run_calls": "count",
    "strike.self_s": "s",
    "strike.craft_s": "s",
    "strike.diagnosed": "ratio",
    "scenario.load_s": "s",
    "scenario.build_s": "s",
    "scenario.establish_s": "s",
    "scenario.establish_run_calls": "count",
    "assess.trace_add_s": "s",
    "assess.trace_write_s": "s",
    "assess.trace_bytes": "bytes",
    "assess.replay_s": "s",
    "assess.replay_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Setup(Exception):
    """The checkout cannot be benchmarked (exit 2, no result)."""


def import_natsim():
    if not os.path.isfile(os.path.join(SRC, "natsim", "__init__.py")):
        raise Setup(f"no natsim package under {SRC}")
    sys.path.insert(0, SRC)
    import natsim

    if not os.path.abspath(natsim.__file__).startswith(SRC + os.sep):
        raise Setup(f"natsim imported from {natsim.__file__}, not from {SRC}")


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds from fresh interpreters, one after another; the first
    is dropped because it may compile the package's bytecode."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise Setup(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[0]))
    return samples[1:]


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Gate:
    """Checks each iteration's digests and counts: against `pinned.json` when
    the seed is pinned there, and against the first iteration of this run."""

    def __init__(self, workload: str, pinned: dict | None):
        self.pinned = pinned
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, log, output, error: str | None = None, nat_table_peak: int | None = None) -> None:
        got = {"digests": output.digests if output else {}, "stats": log.stats}
        problems = list(output.failures if output else [])
        if error:
            problems.append(error)
        if self.pinned is not None:
            for key in ("digests", "stats"):
                if got[key] != self.pinned[key]:
                    problems.append(f"{key} differ from pinned.json: {got[key]} != {self.pinned[key]}")
            if nat_table_peak is not None and nat_table_peak != self.pinned["nat_table_peak"]:
                problems.append(f"NAT table peak {nat_table_peak} != pinned {self.pinned['nat_table_peak']}")
        if self.first is None:
            self.first = got
        elif got != self.first:
            problems.append(f"iteration differs from the first: {got} != {self.first}")
        runs = max(log.runs, 1)
        self.attempted += runs
        self.failed += runs if problems else log.failed_runs
        self.failures += [f"{self.workload}: {p}" for p in problems + log.failures]


def load_pins(workload: str, seed: int) -> dict | None:
    with open(os.path.join(HERE, "pinned.json")) as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


def run_iteration(wl, scenarios, seed: int, gate: Gate, tracer=None):
    """One checked iteration under a RunLog; returns its `perf_counter`
    start and end, the RunLog and the Output."""
    import workloads

    gc.collect()
    log = workloads.RunLog(tracer=tracer)
    output, error = None, None
    with log.installed():
        start = time.perf_counter()
        try:
            output = wl.run(scenarios, seed, OUT_DIR)
        except Exception as e:  # noqa: BLE001 - a raising iteration is counted as failed
            error = f"raised {type(e).__name__}: {e}"
        end = time.perf_counter()
    gate.check(log, output, error, tracer.nat_table_peak if tracer else None)
    return start, end, log, output


def timed_run(wl, seed: int, seconds: float, gate: Gate) -> dict[str, float]:
    setup = measure_setup(wl.name)
    scenarios = wl.scenarios()
    iterations, runs, packets = [], [], 0
    with HostClock() as clock:
        begin = time.perf_counter()
        while True:
            start, end, log, _ = run_iteration(wl, scenarios, seed, gate)
            iterations.append((start, end))
            runs += log.latencies
            packets = log.packets
            if len(iterations) >= MIN_ITERATIONS and end - begin + (end - start) > seconds:
                break
    walls = [clock.seconds(start, end) for start, end in iterations]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "sim_pkts_per_s": packets / statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    repeats: dict[tuple, list[float]] = {}  # (kind, scenario, seed) -> seconds of each repeat
    for kind, name, run_seed, start, end in runs:
        repeats.setdefault((kind, name, run_seed), []).append(clock.seconds(start, end))
    counts = []
    for kind in ("identify", "attack"):
        distinct = [statistics.median(took) for key, took in repeats.items() if key[0] == kind]
        if not distinct:
            raise Setup(f"{wl.name}: no {kind} runs")
        metrics[f"{kind}_ms_p50"] = statistics.median(distinct) * 1000
        metrics[f"{kind}_ms_p90"] = percentile(distinct, 90) * 1000
        n = sum(len(took) for key, took in repeats.items() if key[0] == kind)
        counts.append(f"{kind} {len(distinct)} distinct runs, {n} repeats")
    host = statistics.median(end - start for start, end in iterations)
    print(f"samples: setup {len(setup)}, iterations {len(walls)}, " + ", ".join(counts))
    print(f"host seconds per iteration (not normalised, median): {host!r}")
    return metrics


def traced_run(wl, seed: int, seconds: float, gate: Gate) -> dict[str, float]:
    """Alternates untraced and traced iterations while the next pair still
    fits in `seconds` (at least one pair); the per-layer metrics come from the
    fastest traced iteration."""
    import spans

    scenarios = wl.scenarios()
    untraced, best = [], None
    with HostClock() as clock:
        begin = time.perf_counter()
        while True:
            start, end, _, _ = run_iteration(wl, scenarios, seed, gate)
            untraced.append(clock.seconds(start, end))
            tracer = spans.Tracer()
            with tracer.installed():
                traced_scenarios = wl.scenarios()  # loading is traced too
                traced_start, traced_end, log, _ = run_iteration(wl, traced_scenarios, seed, gate, tracer)
            traced_wall = clock.seconds(traced_start, traced_end)
            if best is None or traced_wall < best[0]:
                best = (traced_wall, tracer, log)
            del tracer
            if traced_end - begin + (traced_end - start) > seconds:
                break
    traced_wall, tracer, log = best
    tracer.write(OUT_DIR, f"spans-{wl.name}")
    metrics = layer_metrics(tracer.rollup(clock.to_reference), tracer, log)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - min(untraced)
    print(f"samples: {len(untraced)} untraced and traced iteration pairs, spans {len(tracer.start)}, runs {log.runs}")
    return metrics


def layer_metrics(roll, tracer, log) -> dict[str, float]:
    def calls(name):
        return roll[name]["calls"]

    def total(name):
        return roll[name]["total_s"]

    def self_s(*names):
        return sum(roll[n]["self_s"] for n in names)

    def children(parent, child):
        return roll[parent]["children"].get(child, 0)

    def per_call(seconds, count, scale):
        return seconds * scale / count if count else 0.0

    stats = log.stats.values()
    craft = ("strike.craft_rst_sweep", "strike.craft_push_ack_sweep")
    return {
        "wire.total_length_calls": tracer.total_length_reads,
        "wire.fragment_calls": calls("wire.fragment"),
        "wire.fragment_s": total("wire.fragment"),
        "wire.reassemble_calls": calls("wire.reassemble"),
        "wire.reassemble_s": total("wire.reassemble"),
        "fabric.run_self_s": self_s("fabric.run"),
        "fabric.ns_per_pkt": per_call(self_s("fabric.run"), log.packets, 1e9),
        "fabric.inject_s": total("fabric.inject"),
        "fabric.record_calls": calls("fabric.record"),
        "fabric.record_s": total("fabric.record"),
        "fabric.run_calls": calls("fabric.run"),
        "natbox.calls": calls("natbox.on_datagram"),
        "natbox.self_s": self_s("natbox.on_datagram"),
        "natbox.us_per_pkt": per_call(self_s("natbox.on_datagram"), calls("natbox.on_datagram"), 1e6),
        "natbox.table_peak": tracer.nat_table_peak,
        "natbox.mappings_removed": sum(s["mappings_removed"] for s in stats),
        "endpoint.calls": calls("endpoint.on_datagram"),
        "endpoint.self_s": self_s("endpoint.on_datagram", "endpoint.observations_after"),
        "endpoint.us_per_pkt": per_call(self_s("endpoint.on_datagram"), calls("endpoint.on_datagram"), 1e6),
        "endpoint.dup_acks": sum(s["dup_acks"] for s in stats),
        "probe.identify_s": total("probe.run_identification"),
        "probe.self_s": self_s("probe.run_identification"),
        "probe.run_calls": children("probe.run_identification", "fabric.run"),
        "strike.self_s": self_s("strike.run_dos_attack"),
        "strike.craft_s": sum(total(n) for n in craft),
        "strike.diagnosed": tracer.attacks_diagnosed / tracer.attacks if tracer.attacks else 0.0,
        "scenario.load_s": total("scenario.load_scenario"),
        "scenario.build_s": total("scenario.build"),
        "scenario.establish_s": total("scenario.establish"),
        "scenario.establish_run_calls": children("scenario.establish", "fabric.run"),
        "assess.trace_add_s": total("assess.add_section"),
        "assess.trace_write_s": total("assess.write"),
        "assess.trace_bytes": tracer.trace_bytes,
        "assess.replay_s": total("assess.replay"),
        "assess.replay_self_s": self_s("assess.replay"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_natsim()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise Setup(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        os.makedirs(OUT_DIR, exist_ok=True)
        gate = Gate(wl.name, load_pins(wl.name, args.seed))
        if args.trace:
            metrics, units = traced_run(wl, args.seed, args.seconds, gate), LAYER_UNITS
        else:
            metrics, units = timed_run(wl, args.seed, args.seconds, gate), E2E_UNITS
    except (Setup, OSError, subprocess.SubprocessError, ImportError) as e:
        print(f"benchmark cannot run: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    for failure in gate.failures[:20]:
        print(f"FAIL {failure}")
    print(f"fail_rate {gate.failed / max(gate.attempted, 1)!r} ratio ({gate.failed}/{gate.attempted} runs)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
