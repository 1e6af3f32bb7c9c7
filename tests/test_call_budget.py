"""A deterministic call budget for the per-packet paths and for `build`.

Timing pairs on a shared host cannot tell a change of a few percent from
noise, but the number of calls a run makes does not move with the host or
the hash seed.  `sys.setprofile` counts each call of a Python function
(`call`) and of a C function (`c_call`) over two runs on documents built and
established at seed 1: a 64-port attack, which forges 256 packets, and an
identification.  A change that adds a frame per hop or per packet goes over
the budget and fails here.  It also counts `build` at seed 1 of both
documents, on a freshly loaded Scenario and again on the same one: a
repeat build reuses the route plan of the first, and a change that puts
per-document work back into every build goes over its budget.

The budgets are maxima.  A change that removes calls lowers the counts;
print them with `PYTHONPATH=src python tests/test_call_budget.py` and move
the budget down to them.  Python 3.11 gives the budgets below; 3.12 and
3.13 count a few Python calls fewer, 3.10 the same.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from natsim import scenario as sc
from natsim.natbox import NatBox
from natsim.probe import run_identification
from natsim.strike import run_dos_attack

# (Python calls, C calls) of each run
ATTACK_BUDGET = (4033, 5352)
IDENTIFY_BUDGET = (298, 419)
# ... of `build` on a freshly loaded Scenario, which plans its routes, and
# of a repeat build on the same Scenario, which reuses the plan
BUILD_BUDGET = {"first": (122, 294), "repeat": (116, 115)}


def counted_calls(run, handles) -> tuple[int, int]:
    """The (call, c_call) profile events of `run(handles)`.  The collector
    is paused for the count, so that no finalizer of earlier garbage runs
    inside it, and left enabled or not as it was."""
    counts = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run(handles)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return counts["call"], counts["c_call"]


def established(doc: dict) -> sc.Handles:
    handles = sc.build(sc.load_scenario(doc), seed=1)
    sc.establish(handles)
    return handles


def attack_doc() -> dict:
    return sc.nat_scenario_doc("budget", with_probe=False, ephemeral_range=(40000, 40063),
                               port_range=(40000, 40063), interleave_batch=16)


def attack_calls() -> tuple[int, int]:
    return counted_calls(run_dos_attack, established(attack_doc()))


def identify_calls() -> tuple[int, int]:
    return counted_calls(run_identification, established(sc.nat_scenario_doc("id")))


def build_calls(doc: dict) -> dict[str, tuple[int, int]]:
    """The calls of `build` at seed 1, first and repeat, on one loaded Scenario."""
    scn = sc.load_scenario(doc)
    first = counted_calls(lambda s: sc.build(s, seed=1), scn)
    return {"first": first, "repeat": counted_calls(lambda s: sc.build(s, seed=1), scn)}


def test_attack_stays_within_its_call_budget():
    calls = attack_calls()
    assert calls[0] <= ATTACK_BUDGET[0] and calls[1] <= ATTACK_BUDGET[1], (calls, ATTACK_BUDGET)


def test_identification_stays_within_its_call_budget():
    calls = identify_calls()
    assert calls[0] <= IDENTIFY_BUDGET[0] and calls[1] <= IDENTIFY_BUDGET[1], (calls, IDENTIFY_BUDGET)


def test_build_stays_within_its_call_budget():
    for doc in (sc.nat_scenario_doc("id"), attack_doc()):
        calls = build_calls(doc)
        assert all(c <= b for kind in calls for c, b in zip(calls[kind], BUILD_BUDGET[kind])), (calls, BUILD_BUDGET)


def test_the_count_sees_one_more_call_per_packet(monkeypatch):
    """The budget would catch a helper called once per forged packet: the
    count of the attack rises by at least the 256 packets it forges."""
    base = attack_calls()[0]
    on_tcp = NatBox._on_tcp

    def helper(*args):
        return on_tcp(*args)

    monkeypatch.setattr(NatBox, "_on_tcp", helper)
    assert attack_calls()[0] >= base + 256


if __name__ == "__main__":
    print(f"attack {attack_calls()}, identification {identify_calls()}")
    print(f"build: identify {build_calls(sc.nat_scenario_doc('id'))}, attack {build_calls(attack_doc())}")
