"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Prints the reference seconds (see `hostclock.py`) taken to import natsim
(with the benchmark's workload module) and to load and validate every
scenario document the workload runs, then the number of scenarios. `run.py`
starts this several times, one process after another, and reports the median
as `setup_s`.
"""

import os
import sys
import time

from hostclock import HostClock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

with HostClock() as clock:
    start = time.perf_counter()
    import workloads  # timed on purpose: it imports natsim

    scenarios = workloads.WORKLOADS[sys.argv[1]].scenarios()
    end = time.perf_counter()
print(f"{clock.seconds(start, end)!r} {len(scenarios)}")
