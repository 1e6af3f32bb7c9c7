"""Identification engine: crafting, both stages, classifier, what it leaves behind."""

import pytest

from natsim import assess, probe, wire
from natsim import scenario as sc
from natsim.fabric import keep_traces
from natsim.probe import (
    NoBaselineError,
    ProbeConfig,
    VerdictKind,
    VerdictReason,
    craft_frag_needed,
)
from natsim.wire import EchoReply, EchoRequest, Ipv4Datagram, Protocol, TcpFlag, TcpSegment


def observed_segment():
    return Ipv4Datagram(
        src="6.6.6.6", dst="8.8.8.8", protocol=Protocol.TCP,
        payload=TcpSegment(4444, 80, seq=314159, flags=TcpFlag.PSH | TcpFlag.ACK,
                           payload_length=1460),
        df=True,
    )


class TestCraft:
    def test_embeds_observed_tuple_and_seq(self):
        msg = craft_frag_needed(observed_segment(), 600)
        q = wire.parse_embedded(msg.embedded)
        assert (q.src_port, q.dst_port, q.seq) == (4444, 80, 314159)
        assert msg.next_hop_mtu == 600

    def test_embedded_length_constant(self):
        for payload in (0, 1, 1460):
            d = observed_segment()
            d = Ipv4Datagram(src=d.src, dst=d.dst, protocol=d.protocol,
                             payload=TcpSegment(4444, 80, seq=1, payload_length=payload), df=True)
            assert len(craft_frag_needed(d, 600).embedded) == 28

    def test_requires_tcp_baseline(self):
        bad = Ipv4Datagram(src="6.6.6.6", dst="8.8.8.8", protocol=Protocol.ICMP,
                           payload=EchoRequest(1, 1, 0))
        with pytest.raises(NoBaselineError):
            craft_frag_needed(bad, 600)

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            ProbeConfig(forged_mtu=2000, baseline_size=1500)
        with pytest.raises(ValueError):
            ProbeConfig(forged_mtu=60)


def identify(doc, seed=None):
    return assess.identify_scenario(sc.load_scenario(doc), seed=seed)


class TestIdentification:
    def test_nat_device_default_path(self):
        v, _ = identify(sc.nat_scenario_doc("p-nat"))
        assert v.kind is VerdictKind.NAT_DEVICE
        assert v.reason is VerdictReason.SINGLE_LARGE_REPLY
        assert v.evidence.echo_reply_fragments == [1500]
        assert v.evidence.baseline_tcp_size == 1500
        assert v.evidence.post_probe_tcp_size <= 600

    def test_separate_host_default_path(self):
        v, _ = identify(sc.host_scenario_doc("p-host"))
        assert v.kind is VerdictKind.SEPARATE_HOST
        assert v.reason is VerdictReason.FRAG_SIZE_MATCHES_MTU
        assert v.evidence.echo_reply_fragments == [596, 596, 348]

    def test_icmp_error_filter_blocks_stage_one(self):
        with keep_traces():
            v, handles = identify(sc.nat_scenario_doc("p-mb", nat_inbound_filter=["icmp-error"]))
        assert v.kind is VerdictKind.UNKNOWN
        assert v.reason is VerdictReason.NO_PMTU_SHRINK
        echo_sent = any(
            r.action == "send" and r.node == "vantage"
            and isinstance(r.dgram.payload, EchoRequest)
            for r in handles.sim.trace
        )
        assert not echo_sent  # stage-2 gate

    def test_echo_filter_yields_no_reply(self):
        doc = sc.nat_scenario_doc("p-echo")
        for link in doc["links"]:
            if link["from"] == "r1" and link["to"] == "vantage":
                link["filter"] = ["icmp-echo"]
        v, _ = identify(doc)
        assert v.kind is VerdictKind.UNKNOWN
        assert v.reason is VerdictReason.NO_ECHO_REPLY

    def test_router_mtu_equal_to_planted_is_ambiguous(self):
        for doc in (sc.nat_scenario_doc("p-amb-n", router_vantage_mtu=600),
                    sc.host_scenario_doc("p-amb-h", router_vantage_mtu=600)):
            v, _ = identify(doc)
            assert v.kind is VerdictKind.UNKNOWN
            assert v.reason is VerdictReason.AMBIGUOUS_SIZES

    def test_no_session_gives_no_baseline(self):
        # built, never established: no data segment reaches the vantage
        handles = sc.build(sc.load_scenario(sc.nat_scenario_doc("p-quiet")))
        v = probe.run_identification(handles)
        assert (v.kind, v.reason) == (VerdictKind.UNKNOWN, VerdictReason.NO_PMTU_SHRINK)
        assert (v.evidence.baseline_tcp_size, v.evidence.post_probe_tcp_size) == (None, None)
        assert v.csv_row("6.6.6.6") == "6.6.6.6,unknown,no-pmtu-shrink,-,-,-"

    def test_no_segment_after_the_probe_within_the_timeout(self):
        doc = sc.nat_scenario_doc("p-slow")
        doc["probe"]["timeout_ticks"] = 50
        doc["workload"]["send_period"] = 60
        v, _ = identify(doc)
        assert (v.kind, v.reason) == (VerdictKind.UNKNOWN, VerdictReason.NO_PMTU_SHRINK)
        assert (v.evidence.baseline_tcp_size, v.evidence.post_probe_tcp_size) == (1500, None)

    def test_verdict_deterministic(self):
        doc = sc.nat_scenario_doc("p-det", router_vantage_mtu=1492)
        a, _ = identify(doc, seed=9)
        b, _ = identify(doc, seed=9)
        assert (a.kind, a.reason) == (b.kind, b.reason)
        assert a.evidence.echo_reply_fragments == b.evidence.echo_reply_fragments

    def test_synchronized_closes_side_channel(self):
        nat_v, _ = identify(sc.nat_scenario_doc("p-sync", pmtud_sync="synchronized"))
        host_v, _ = identify(sc.host_scenario_doc("p-sync-h"))
        assert (nat_v.kind, nat_v.reason) == (host_v.kind, host_v.reason)
        assert nat_v.evidence.echo_reply_fragments == host_v.evidence.echo_reply_fragments


class TestRestore:
    def test_reprobe_matches_first_probe(self):
        doc = sc.nat_scenario_doc("p-again", router_vantage_mtu=1492)
        a, _ = identify(doc)
        b, _ = identify(doc)
        assert (a.kind, a.reason, a.evidence.echo_reply_fragments) == (
            b.kind, b.reason, b.evidence.echo_reply_fragments)


class TestPlantedMtuStays:
    """No off-path prober can take the forged Fragmentation Needed back:
    identification leaves the planted path MTU where the side channel put it."""

    @pytest.mark.parametrize("doc, expected", [
        (sc.nat_scenario_doc("p-leaky"), {"client1": 600, "nat": 1500}),
        (sc.nat_scenario_doc("p-sync", pmtud_sync="synchronized"), {"client1": 600, "nat": 600}),
        (sc.host_scenario_doc("p-host"), {"host": 600}),
    ], ids=["leaky", "synchronized", "host"])
    def test_identification_leaves_planted_mtu(self, doc, expected):
        _, handles = identify(doc)
        nodes = {**handles.hosts, "nat": handles.nat}
        vantage = handles.vantage_host
        assert {n: nodes[n].pmtu.get(vantage.address) for n in expected} == expected
        tick = handles.sim.now
        handles.sim.run(until=tick + 60)  # periodic session sends continue, still small
        later = [d.total_length for _, d in vantage.observations_after(tick, handles.scenario.target_addr)
                 if isinstance(d.payload, TcpSegment) and d.payload.payload_length > 0]
        assert later and max(later) <= 600


class ReadCountingLog(list):
    """An arrival log that records the index of every entry read from it."""

    def __init__(self, entries):
        super().__init__(entries)
        self.reads: list[int] = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


NEXT_ARRIVAL = probe._next_arrival  # the wait itself, before any test wraps it


class TestArrivalWaits:
    FORGED_REPLIES = 10_000

    def identify_after_forged_replies(self, forged, monkeypatch):
        """Identify on a fresh `v` instance after `forged` echo replies,
        spoofing the target, were injected toward the vantage; returns the
        verdict, the log and each wait's (after_tick, indexes read)."""
        scn = sc.load_scenario(sc.nat_scenario_doc("v"))
        handles = sc.build(scn)
        sc.establish(handles)
        vantage = handles.vantage_host
        log = vantage.arrivals = ReadCountingLog(vantage.arrivals)
        for i in range(forged):
            handles.sim.inject(handles.attacker_node, Ipv4Datagram(
                src=scn.target_addr, dst=vantage.address, protocol=Protocol.ICMP,
                payload=EchoReply(ident=i % 0x10000, seq_no=1)))
        waits = []

        def recording(sim, vantage, target, after_tick, *rest):
            start = len(log.reads)
            try:
                return NEXT_ARRIVAL(sim, vantage, target, after_tick, *rest)
            finally:
                waits.append((after_tick, log.reads[start:]))

        monkeypatch.setattr(probe, "_next_arrival", recording)
        verdict = probe.run_identification(handles)
        return verdict, log, waits

    def test_waits_skip_what_was_logged_before_them(self, monkeypatch):
        clean, _, _ = self.identify_after_forged_replies(0, monkeypatch)
        verdict, log, waits = self.identify_after_forged_replies(self.FORGED_REPLIES, monkeypatch)
        assert (verdict.kind, verdict.reason, verdict.evidence) == (
            clean.kind, clean.reason, clean.evidence)
        assert len(log) > self.FORGED_REPLIES and len(waits) == 3
        ticks = [tick for tick, _ in log]
        forged = [tick for tick, d in log if isinstance(d.payload, EchoReply)][: self.FORGED_REPLIES]
        # the later waits start after every forged reply was logged
        assert all(after_tick >= max(forged) for after_tick, _ in waits[1:])
        for after_tick, reads in waits:
            # of the entries logged by its start, a wait reads only what a
            # bisection of the log probes
            early = [i for i in reads if ticks[i] <= after_tick]
            assert len(early) <= len(log).bit_length(), (after_tick, len(early))


class TestVerdictInvariant:
    def test_unknown_must_carry_unknown_reason(self):
        from natsim.probe import Observation, Verdict

        with pytest.raises(ValueError):
            Verdict(VerdictKind.UNKNOWN, VerdictReason.SINGLE_LARGE_REPLY, Observation())
        with pytest.raises(ValueError):
            Verdict(VerdictKind.NAT_DEVICE, VerdictReason.NO_ECHO_REPLY, Observation())

    def test_csv_row_shape(self):
        v, _ = identify(sc.nat_scenario_doc("p-csv"))
        row = v.csv_row("6.6.6.6")
        assert row.startswith("6.6.6.6,nat-device,single-large-reply,1500,")
