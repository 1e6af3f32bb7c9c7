"""Record the correctness pins in `pinned.json`.

    python3 bench/pin.py --workload sweep --seeds 0-31,9973

For each seed, runs one traced iteration of the workload and stores the
SHA-256 digests of its CSV (and trace file), its simulated counts and the NAT
table's high-water mark; entries for other seeds and workloads are kept. The
run's outcome checks must pass. Re-pin only for a change that is meant to
alter natsim's output, and say in CHANGES.md why the digests moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,9973")
    args = parser.parse_args()
    run.import_natsim()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    path = os.path.join(run.HERE, "pinned.json")
    with open(path) as fh:
        pinned = json.load(fh)
    table = pinned["workloads"].setdefault(wl.name, {})
    os.makedirs(run.OUT_DIR, exist_ok=True)
    scenarios = wl.scenarios()
    for seed in parse_seeds(args.seeds):
        gate = run.Gate(wl.name, None)
        tracer = spans.Tracer()
        with tracer.installed():
            _, _, log, output = run.run_iteration(wl, scenarios, seed, gate, tracer)
        if gate.failed:
            print("\n".join(gate.failures[:20]), file=sys.stderr)
            return 1
        table[str(seed)] = {"digests": output.digests, "stats": log.stats, "nat_table_peak": tracer.nat_table_peak}
        print(f"{wl.name} seed {seed}: {output.digests}", flush=True)
        pinned["workloads"][wl.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        with open(path, "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
