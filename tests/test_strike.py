"""DoS orchestrator: sweep crafting, budgets, outcomes, diagnosis."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from natsim import assess
from natsim import scenario as sc
from natsim.endpoint import TcpState
from natsim.strike import (
    AttackPlan,
    FailureDiagnosis,
    NothingToAttackError,
    craft_push_ack_sweep,
    craft_rst_sweep,
    run_dos_attack,
)
from natsim.wire import TcpFlag


def small_doc(name="s", **kw):
    defaults = dict(ephemeral_range=(40000, 40063), port_range=(40000, 40063),
                    interleave_batch=16, with_probe=False)
    defaults.update(kw)
    return sc.nat_scenario_doc(name, **defaults)


def attack(doc, seed=None):
    return assess.attack_scenario(sc.load_scenario(doc), seed=seed)


class TestCrafting:
    def test_full_linux_range_counts(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22))
        sweep = craft_rst_sweep(plan)
        assert len(sweep) == 28233
        assert sum(d.total_length for d in sweep) == 1129320
        assert all(d.total_length == 40 for d in sweep)
        assert {d.payload.dst_port for d in sweep} == set(range(32768, 61001))

    def test_rst_fields(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22), dst_port_range=(5000, 5000), forged_seq=77)
        (pkt,) = craft_rst_sweep(plan)
        seg = pkt.payload
        assert pkt.src == "7.7.7.7" and pkt.dst == "6.6.6.6"
        assert (seg.src_port, seg.dst_port, seg.seq) == (22, 5000, 77)
        assert seg.flags == TcpFlag.RST | TcpFlag.ACK
        assert seg.payload_length == 0

    def test_ack_flag_isolation(self):
        base = dict(dst_port_range=(5000, 5004))
        with_ack = craft_rst_sweep(AttackPlan("6.6.6.6", ("7.7.7.7", 22), **base))
        without = craft_rst_sweep(
            AttackPlan("6.6.6.6", ("7.7.7.7", 22), set_ack_flag_on_rst=False, **base))
        for a, b in zip(with_ack, without):
            assert a.payload.flags == TcpFlag.RST | TcpFlag.ACK
            assert b.payload.flags == TcpFlag.RST
            assert (a.payload.src_port, a.payload.dst_port, a.payload.seq) == (
                b.payload.src_port, b.payload.dst_port, b.payload.seq)

    def test_push_ack_fields(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22), push_ack_src_port_range=(6000, 6002))
        sweep = craft_push_ack_sweep(plan)
        assert [p.payload.src_port for p in sweep] == [6000, 6001, 6002]
        for p in sweep:
            assert p.src == "6.6.6.6" and p.dst == "7.7.7.7"
            assert p.payload.flags == TcpFlag.PSH | TcpFlag.ACK
            assert p.payload.payload_length == 1

    def test_push_ack_seeded_and_reproducible(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22), push_ack_src_port_range=(6000, 6050), seed=3)
        a = craft_push_ack_sweep(plan)
        b = craft_push_ack_sweep(plan)
        assert [(p.payload.seq, p.payload.ack) for p in a] == [
            (p.payload.seq, p.payload.ack) for p in b]
        assert len({p.payload.seq for p in a}) > 1

    def test_single_port_range(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22), dst_port_range=(4000, 4000),
                          push_ack_src_port_range=(4000, 4000))
        assert len(craft_rst_sweep(plan)) == 1
        assert len(craft_push_ack_sweep(plan)) == 1

    def test_windows_preset(self):
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 22), dst_port_range=(49152, 65535))
        assert len(craft_rst_sweep(plan)) == 65535 - 49152 + 1

    def test_empty_range_rejected_by_plan(self):
        with pytest.raises(ValueError):
            AttackPlan("6.6.6.6", ("7.7.7.7", 22), dst_port_range=(5000, 4000))

    @pytest.mark.parametrize("port", [-1, 0x10000])
    def test_server_port_out_of_range_rejected_by_plan(self, port):
        # the sweeps build their segments store-only, so the plan checks every port they use
        with pytest.raises(ValueError, match="^victim_server"):
            AttackPlan("6.6.6.6", ("7.7.7.7", port))

    def test_blindness_pure_function_of_plan(self):
        # same plan, totally different scenarios: byte-identical streams
        plan = AttackPlan("6.6.6.6", ("7.7.7.7", 80), dst_port_range=(40000, 40020), seed=5)
        s1 = [p for p in craft_rst_sweep(plan)] + [p for p in craft_push_ack_sweep(plan)]
        s2 = [p for p in craft_rst_sweep(plan)] + [p for p in craft_push_ack_sweep(plan)]
        assert s1 == s2


class TestBudgets:
    @given(
        span=st.integers(0, 40),
        rounds=st.integers(1, 3),
        batch=st.integers(1, 64),
    )
    @settings(max_examples=25, deadline=None)
    def test_packet_budget_identity(self, span, rounds, batch):
        doc = small_doc(rounds=rounds, interleave_batch=batch)
        doc["attack"]["dst_port_range"] = [40000, 40000 + span]
        doc["attack"]["push_ack_src_port_range"] = [40010, 40010 + span]
        report, _ = attack(doc)
        assert report.rst_packets_sent == rounds * (span + 1)
        assert report.push_ack_packets_sent == rounds * (span + 1)
        assert report.octets_sent == rounds * (span + 1) * (40 + 41)


class TestOutcomes:
    def test_vulnerable_clean_path_succeeds(self):
        report, handles = attack(small_doc())
        assert report.success
        assert report.failure_diagnosis is FailureDiagnosis.NONE
        assert report.client_connections_torn == report.victim_connections == 4
        assert report.new_connections_blocked == report.new_connections_attempted == 2
        assert report.mappings_removed >= 4
        assert report.server_sockets_reset >= 4

    def test_forward_only_diagnosed(self):
        report, handles = attack(small_doc(rst_handling="forward-only"))
        assert not report.success
        assert report.failure_diagnosis is FailureDiagnosis.FORWARDED_RST_NO_REMOVAL
        assert report.mappings_removed == 0
        assert report.client_connections_torn == 0

    def test_strict_validate_holds(self):
        report, _ = attack(small_doc(rst_handling="strict-validate"))
        assert not report.success
        assert report.mappings_removed == 0
        assert report.failure_diagnosis is FailureDiagnosis.NONE

    def test_openbsd_server_gate(self):
        report, handles = attack(
            small_doc(server_profile="openbsd-like", port_allocation="preserving"))
        assert not report.success
        assert report.failure_diagnosis is FailureDiagnosis.NO_DUP_ACK_FROM_SERVER
        assert report.server_sockets_reset == 0
        still_up = [s for s in handles.server_host.sockets.values()
                    if s.state == TcpState.ESTABLISHED]
        assert len(still_up) >= report.victim_connections

    def test_silent_drop_preserving_survives(self):
        report, _ = attack(
            small_doc(unmapped_inbound="silent-drop", port_allocation="preserving"))
        assert report.client_connections_torn == 0
        assert not report.success

    def test_silent_drop_sequential_tears(self):
        report, _ = attack(small_doc(unmapped_inbound="silent-drop"))
        assert report.success
        assert report.client_connections_torn == 4

    def test_middlebox_filter_diagnosed(self):
        report, _ = attack(small_doc(nat_inbound_filter=["tcp-rst-inbound"]))
        assert not report.success
        assert report.failure_diagnosis is FailureDiagnosis.RST_BLOCKED_BY_MIDDLEBOX

    def test_total_loss_diagnosed(self):
        report, _ = attack(small_doc(loss=1.0))
        assert not report.success
        assert report.failure_diagnosis is FailureDiagnosis.PACKET_LOSS

    def test_nothing_to_attack(self):
        doc = small_doc()
        doc["workload"]["connections"] = 0
        scn = sc.load_scenario(doc)
        handles = sc.build(scn)
        sc.establish(handles)
        assert handles.victims == []
        with pytest.raises(NothingToAttackError):
            run_dos_attack(handles)

    def test_duration_and_bandwidth(self):
        report, _ = attack(small_doc())
        assert report.duration_ticks >= 1
        expected = report.octets_sent / (report.duration_ticks * 0.001)
        assert abs(report.implied_bandwidth - expected) < 1e-6


class TestStrictSafetyProperty:
    @given(
        forged_seq=st.integers(0, 2**32 - 1),
        span=st.integers(10, 70),
        batch=st.integers(4, 64),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_plans_never_remove(self, forged_seq, span, batch, seed):
        doc = small_doc(rst_handling="strict-validate", interleave_batch=batch)
        doc["attack"]["dst_port_range"] = [40000, 40000 + span]
        doc["attack"]["forged_seq"] = forged_seq
        scn = sc.load_scenario(doc)
        handles = sc.build(scn, seed=seed)
        sc.establish(handles)
        # an in-window forgery is a semantically valid reset; exclude it
        for m in handles.nat.by_internal.values():
            lo, hi = m.inbound_seq_window
            assume(not (lo <= forged_seq <= hi or (hi < lo and (forged_seq >= lo or forged_seq <= hi))))
        report = run_dos_attack(handles)
        assert report.mappings_removed == 0
        assert report.client_connections_torn == 0
