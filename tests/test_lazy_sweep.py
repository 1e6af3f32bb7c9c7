"""The attack crafts each batch of its two sweeps as it injects it: the
attacker sends exactly the interleaving of the materialised sweeps, and
never holds them whole."""

import contextlib
import tracemalloc

from hypothesis import given, settings, strategies as st

from natsim import assess, strike
from natsim import scenario as sc
from natsim.fabric import keep_traces
from natsim.strike import craft_push_ack_sweep, craft_rst_sweep


@contextlib.contextmanager
def around_attack(wrap):
    """Run every `run_dos_attack` made inside the block through
    `wrap(attack, handles)`."""
    real = strike.run_dos_attack
    strike.run_dos_attack = lambda handles: wrap(real, handles)
    try:
        yield
    finally:
        strike.run_dos_attack = real


def attack_sends(doc):
    """The report, plan and (tick, datagram) of every packet the attacker
    sends, read from the run's kept trace."""
    with keep_traces():
        report, handles = assess.attack_scenario(sc.load_scenario(doc))
    sends = [(rec.tick, rec.dgram) for rec in handles.sim.trace
             if rec.node == "attacker" and rec.action == "send"]
    return report, handles.plan, sends


def interleaving(plan):
    """(tick offset, datagram) of each packet in the order the materialised
    sweeps give: per round and batch, the RSTs and then the PUSH/ACKs, each
    batch a tick of its own, an empty one too."""
    rsts, pushes = craft_rst_sweep(plan), craft_push_ack_sweep(plan)
    size = plan.interleave_batch
    out, step = [], 0
    for _ in range(plan.rounds):
        for lo in range(0, max(len(rsts), len(pushes)), size):
            for sweep in (rsts, pushes):
                out += [(step, d) for d in sweep[lo:lo + size]]
                step += 1
    return out


class TestInjectionOrder:
    @given(
        rounds=st.integers(1, 3),
        rst_ports=st.integers(1, 40),
        push_ports=st.integers(1, 40),
        batch=st.integers(1, 17),
    )
    @settings(max_examples=25, deadline=None)
    def test_sends_follow_the_materialised_sweeps(self, rounds, rst_ports, push_ports, batch):
        doc = sc.nat_scenario_doc("lazy", ephemeral_range=(40000, 40063), port_range=(40000, 40063),
                                  rounds=rounds, interleave_batch=batch, with_probe=False)
        doc["attack"]["dst_port_range"] = [40000, 40000 + rst_ports - 1]
        doc["attack"]["push_ack_src_port_range"] = [40010, 40010 + push_ports - 1]
        report, plan, sends = attack_sends(doc)
        start = sends[0][0]
        expected = interleaving(plan)
        assert [(tick - start, d) for tick, d in sends] == expected
        assert report.rst_packets_sent == rounds * rst_ports
        assert report.push_ack_packets_sent == rounds * push_ports
        assert report.duration_ticks == expected[-1][0] + 1

    def test_uneven_batches_of_the_canonical_document(self):
        # 64 ports in batches of 24: two full batches and one of 16, twice
        doc = sc.nat_scenario_doc("lazy", ephemeral_range=(40000, 40063), port_range=(40000, 40063),
                                  interleave_batch=24, with_probe=False)
        report, plan, sends = attack_sends(doc)
        assert report.success
        assert [(tick - sends[0][0], d) for tick, d in sends] == interleaving(plan)


def test_attack_holds_far_less_than_its_sweeps():
    doc = sc.nat_scenario_doc("lazy-8192", port_range=(40000, 48191), interleave_batch=1024,
                              rounds=1, with_probe=False)
    plan = sc.load_scenario(doc).attack
    tracemalloc.start()
    try:
        sweeps = craft_rst_sweep(plan), craft_push_ack_sweep(plan)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sweeps[0]) == len(sweeps[1]) == 8192
    del sweeps

    peaks = []

    def measured(attack, handles):
        tracemalloc.start()
        try:
            return attack(handles)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with around_attack(measured):
        report, _ = assess.attack_scenario(sc.load_scenario(doc))
    assert report.rst_packets_sent == report.push_ack_packets_sent == 8192
    # a batch of each sweep, and the batches still in flight
    assert peaks[0] < held / 2, (peaks[0], held)
