#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two checkouts.

    tools/ab.py PARENT CHANGE --workload W --seed S --pairs N --seconds T [--json OUT]

Byte-compiles `src/` in both trees, then runs
`bench/run.py --workload W --seed S --seconds T --trace 0` N times in each,
one pair at a time; the parent goes first in pair 0 and the side that goes
first swaps every pair.  Before the pairs it prints a warning line when the
two trees' absolute paths differ in length: `peak_rss_mb` moves with the
directory, so compare trees on equal-length paths.  For each end-to-end
metric of BENCHMARK.json it prints the median of each side, the change in
percent, the parent's quartile spread (Q3 - Q1, in percent of its median)
and the pairs each side won; a tie counts for neither.  A metric whose
change median is worse than the parent's by more than its `bound` (a
fraction of the parent's median, in the metric's worse direction) is marked
`beyond bound`, and a line names every such metric, or `none`.  A metric
that meets the claim rule of the choosing-metrics guide is marked
`claimable`: the change won at least nine tenths of the pairs (a tie counts
for neither) and its median beats the parent's by more than the parent's
Q3 - Q1; a last line names every such metric, or `none`.
`--json OUT` writes every run's result, pair i at index i of each side's
list.  Exits 1 when a run is not `correct: true`, has `failed` above 0 or
gives no result, otherwise 0.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Row(NamedTuple):
    name: str
    unit: str
    parent: float  # median
    change: float  # median
    delta_pct: float  # change against parent, in percent of the parent's median
    spread_pct: float  # the parent's Q3 - Q1, in percent of its median
    change_wins: int
    parent_wins: int
    beyond_bound: bool  # the change median is worse than the parent's by more than the bound
    claimable: bool  # the change won 9/10 of the pairs and beats the parent by more than its IQR


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[Row]:
    """One Row per end-to-end metric (BENCHMARK.json's `end_to_end` entries)
    over paired runs: parent[i] and change[i] are pair i's results."""
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0], None, p[0])
        change_wins = sum(b < a if lower else b > a for a, b in zip(p, c))
        parent_wins = sum(a < b if lower else a > b for a, b in zip(p, c))
        worse_by = c_med - p_med if lower else p_med - c_med
        rows.append(Row(name, metric["unit"], p_med, c_med, _pct(c_med - p_med, p_med),
                        _pct(q3 - q1, p_med), change_wins, parent_wins,
                        worse_by > metric["bound"] * p_med,
                        10 * change_wins >= 9 * len(p) and -worse_by > q3 - q1))
    return rows


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def bad_runs(runs: list[dict | None]) -> list[int]:
    """The indices of the runs that gave no result, are not correct or failed."""
    return [i for i, run in enumerate(runs)
            if run is None or run.get("correct") is not True or run.get("failed", 1) > 0]


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON result (the last stdout line) of one bench/run.py run in
    `tree`; None, with the tail of its stderr printed, when the run exits
    nonzero or its last line is not a JSON object."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if out.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict):
        print(f"{tree}: exit {out.returncode}, no JSON result: {out.stderr.strip()[-500:]}",
              file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    if len(trees["parent"]) != len(trees["change"]):
        print(f"warning: the tree paths differ in length ({len(trees['parent'])} and "
              f"{len(trees['change'])} characters); peak_rss_mb moves with the directory",
              flush=True)

    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench(trees[side], args.workload, args.seed, args.seconds))
        print(f"pair {i}: " + "  ".join(
            f"{side} wall_s={run['metrics']['wall_s']['value']:.4f}" if run else f"{side} no result"
            for side, run in ((s, runs[s][-1]) for s in ("parent", "change"))), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)

    bad = {side: bad_runs(side_runs) for side, side_runs in runs.items()}
    if any(bad.values()):
        print(f"runs that are not correct, failed or gave no result (pair indices): {bad}")
        return 1
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: parent -> change medians")
    rows = summarize(runs["parent"], runs["change"], end_to_end)
    for r in rows:
        print(f"  {r.name:16} {r.parent:12.6g} -> {r.change:12.6g} {r.unit:4} {r.delta_pct:+6.1f}%  "
              f"parent IQR {r.spread_pct:4.1f}%  won: change {r.change_wins}, parent {r.parent_wins}"
              + ("  beyond bound" if r.beyond_bound else "") + ("  claimable" if r.claimable else ""))
    print("beyond bound: " + (", ".join(r.name for r in rows if r.beyond_bound) or "none"))
    print("claimable: " + (", ".join(r.name for r in rows if r.claimable) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
