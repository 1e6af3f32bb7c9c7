"""Every shipped document runs the same on the product's fabric as on the
reference's plain arrivals (`reference_fabric.ReferenceSimulator`).

For each `scenarios/*.json` document and each document of the default suite,
at seeds 1 and 9973, identification and the attack each run once on a
`Simulator` and once on the reference, whose TCP datagrams are built by the
checked constructors (`reference_fabric.checked_tcp_packet`).  Each pair must
give the same trace text, trace length, per-node `Counters`, assessment CSV
row, sequence of evidence-hook calls and datagram of every trace record: the
TCP column renders no IP identification.  The product's trace is rendered by
`render_chunks`, the reference's line by line by `helpers.line`.

The attack's two sweep ranges are cut to their first `SWEEP_PORTS` ports,
so that the 100 attack runs stay a fraction of a second; every other field
of each document is as shipped, and each sweep still crosses the router and
the NAT in groups of up to `interleave_batch` datagrams.
"""

import glob
import json
import os

import pytest

from natsim import assess, endpoint, natbox, strike
from natsim import scenario as sc
from natsim.fabric import keep_traces, render_chunks

from helpers import line
from reference_fabric import ReferenceSimulator, checked_tcp_packet
from test_evidence import count_hook_calls

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SEEDS = (1, 9973)
SWEEP_PORTS = 128


def narrowed(doc: dict) -> dict:
    """`doc` with each attack sweep range cut to its first SWEEP_PORTS ports."""
    doc = json.loads(json.dumps(doc))
    attack = doc.get("attack")
    if attack is not None:
        for key in ("dst_port_range", "push_ack_src_port_range"):
            lo, hi = attack[key]
            attack[key] = [lo, min(hi, lo + SWEEP_PORTS - 1)]
    return doc


def _documents():
    for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        yield pytest.param(doc, id=f"file-{doc['name']}")
    for scn in sc.default_suite():
        yield pytest.param(scn.doc, id=f"suite-{scn.name}")


def outcome(monkeypatch, scn: sc.Scenario, seed: int, plain: bool) -> list:
    """(mode, trace text, trace length, counters, CSV row, hook calls,
    datagrams) of each run of `scn` at `seed`, on the reference's fabric if
    `plain`; the hook calls are the (slot, kind) of each evidence-hook call
    so far, and the datagrams those of the trace records, in order."""
    results = []
    with monkeypatch.context() as m:
        calls = []
        count_hook_calls(m, lambda slot, kind, seen: calls.append((slot, kind)))
        if plain:
            m.setattr(sc, "Simulator", ReferenceSimulator)
            for module in (strike, endpoint, natbox):
                m.setattr(module, "tcp_packet", checked_tcp_packet)
        for mode in ("identify", "attack"):
            if getattr(scn, "probe" if mode == "identify" else "attack") is None:
                continue
            with keep_traces():
                result, handles = assess.run_section(scn, mode, seed)
            sim = handles.sim
            assert isinstance(sim, ReferenceSimulator) is plain
            if plain:
                text = "".join(f"{line(rec)}\n" for rec in sim.trace)
            else:
                text = "".join(render_chunks(sim.trace.rows(), assess.WRITE_LINES))
            row = assess.AssessmentRow(scn.name, scn.policy_summary())
            if mode == "identify":
                row.verdict = result
            else:
                row.report = result
            # as lines, so that a failure names the first line that differs
            results.append((mode, text.split("\n"), len(sim.trace), sim.counters, row.csv_row(),
                            list(calls), [d for *_, d in sim.trace.rows()]))
    return results


@pytest.mark.parametrize("doc", _documents())
def test_product_runs_as_the_reference(monkeypatch, doc):
    scn = sc.load_scenario(narrowed(doc))
    for seed in SEEDS:
        product = outcome(monkeypatch, scn, seed, plain=False)
        reference = outcome(monkeypatch, scn, seed, plain=True)
        assert product and product[0][2] > 0
        for got, want in zip(product, reference, strict=True):
            assert got[0] == want[0] and got[2:6] == want[2:6], (seed, got[0])
            assert got[1] == want[1], (seed, got[0])
            assert got[6] == want[6], (seed, got[0])

