"""NAT device: translation, mapping lifecycle, policy axes, ICMP handling."""

import pytest
from hypothesis import given, settings, strategies as st

from natsim import wire
from natsim.endpoint import DEFAULT_RCV_WND
from natsim.fabric import Simulator, render_chunks
from natsim.natbox import (
    NatBox,
    NatPolicy,
    PmtudSync,
    PortAllocation,
    RstHandling,
    UnmappedInbound,
)
from natsim.wire import (
    EchoRequest,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpFlag,
    TcpSegment,
    seq_add,
)

from helpers import connect, line, nat_triangle


def inbound(nat, seg, src="7.7.7.7"):
    return Ipv4Datagram(src=src, dst=nat.address, protocol=Protocol.TCP, payload=seg)


def the_mapping(nat):
    assert len(nat.by_internal) == 1
    return next(iter(nat.by_internal.values()))


def mapping_rows(nat):
    """(internal, external port, remote) of every mapping, sorted."""
    return sorted((m.internal, m.external_port, m.remote) for m in nat.by_internal.values())


class TestOutbound:
    def test_syn_creates_mapping_and_rewrites(self):
        sim, client, nat, server = nat_triangle()
        client.open_connection(sim, ("7.7.7.7", 80))
        sim.run(until=sim.now + 1)
        m = the_mapping(nat)
        assert m.internal[0] == "10.0.0.2" and m.remote == ("7.7.7.7", 80)
        assert nat.by_external == {m.external_port: m}
        sim.run(until=sim.now + 2)
        on_wire = [r.dgram for r in sim.trace if r.node == "server" and r.action == "deliver"]
        assert on_wire and on_wire[0].src == "6.6.6.6"
        assert on_wire[0].payload.src_port == m.external_port

    def test_handshake_completion_and_reuse(self):
        sim, client, nat, server = nat_triangle()
        key = connect(sim, client)
        m = the_mapping(nat)  # made by the SYN, kept through the handshake
        client.send_data(sim, key, 100)
        sim.run()
        assert the_mapping(nat) is m and nat.by_external == {m.external_port: m}

    def test_preserving_uses_internal_port(self):
        policy = NatPolicy(port_allocation=PortAllocation.PRESERVING)
        sim, client, nat, server = nat_triangle(policy)
        key = connect(sim, client)
        assert the_mapping(nat).external_port == key[0]

    def test_sequential_starts_at_configured(self):
        policy = NatPolicy(port_allocation=PortAllocation.SEQUENTIAL, sequential_start=2000)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        assert the_mapping(nat).external_port == 2000

    def test_seeded_random_in_bounds(self):
        policy = NatPolicy(port_allocation=PortAllocation.SEEDED_RANDOM)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        assert 1024 <= the_mapping(nat).external_port <= 65535


class TestInbound:
    def test_translation_round_trip(self):
        sim, client, nat, server = nat_triangle()
        key = connect(sim, client)
        client.send_data(sim, key, 200)
        sim.run()
        # the client's view of the 4-tuple survives NAT in both directions
        sock = client.socket(key)
        assert sock.snd_una == sock.snd_nxt  # server's ack made it back
        delivered = [r.dgram for r in sim.trace if r.node == "client" and r.action == "deliver"
                     and isinstance(r.dgram.payload, TcpSegment)]
        assert all(d.payload.dst_port == key[0] and d.src == "7.7.7.7" for d in delivered)

    def test_unmapped_rst_reply_reflects_ack(self):
        sim, client, nat, server = nat_triangle()
        seg = TcpSegment(80, 3333, seq=5, ack=987654, flags=TcpFlag.ACK, payload_length=0)
        nat.on_datagram(sim, "nat", inbound(nat, seg))
        out = [r.dgram.payload for r in sim.trace if r.node == "nat" and r.action == "send"]
        assert len(out) == 1
        assert out[0].flags == TcpFlag.RST and out[0].seq == 987654

    def test_unmapped_silent_drop(self):
        policy = NatPolicy(unmapped_inbound=UnmappedInbound.SILENT_DROP)
        sim, client, nat, server = nat_triangle(policy)
        seg = TcpSegment(80, 3333, seq=5, ack=987654, flags=TcpFlag.ACK)
        nat.on_datagram(sim, "nat", inbound(nat, seg))
        assert sim.counters["nat"].packets_sent == 0
        assert any(r.reason == "no-mapping" for r in sim.trace)

    @pytest.mark.parametrize("remote", [("7.7.7.8", 80), ("7.7.7.7", 81)], ids=["address", "port"])
    def test_mapped_port_from_another_remote_is_unmapped(self, remote):
        """A segment to a mapped port from any remote but the mapping's takes
        the unmapped path: an ACK is reflected, a reset is dropped, and the
        mapping stays."""
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        m = the_mapping(nat)
        start = len(sim.trace)
        for flags in (TcpFlag.ACK, TcpFlag.RST | TcpFlag.ACK):
            seg = TcpSegment(remote[1], m.external_port, seq=5, ack=987654, flags=flags)
            nat.on_datagram(sim, "nat", inbound(nat, seg, src=remote[0]))
        taken = [(r.action, r.reason, r.dgram.payload.flags) for r in list(sim.trace)[start:]
                 if r.action == "send" or r.reason == "no-mapping"]
        assert taken == [("send", "", TcpFlag.RST), ("drop", "no-mapping", TcpFlag.RST | TcpFlag.ACK)]
        assert the_mapping(nat) is m and nat.mappings_removed_by_rst == 0

    def test_unmapped_inbound_rst_always_silent(self):
        sim, client, nat, server = nat_triangle()
        seg = TcpSegment(80, 3333, seq=5, flags=TcpFlag.RST | TcpFlag.ACK)
        nat.on_datagram(sim, "nat", inbound(nat, seg))
        assert sim.counters["nat"].packets_sent == 0


policy_st = st.builds(NatPolicy, rst_handling=st.sampled_from(RstHandling),
                      require_ack_on_rst=st.booleans(),
                      unmapped_inbound=st.sampled_from(UnmappedInbound))


@given(flags=st.integers(0, 0xFF), mapped=st.booleans(), policy=policy_st)
@settings(max_examples=80)
def test_any_flags_octet_is_handled_and_renders(flags, mapped, policy):
    """An inbound segment whose flags are any int of the octet, to a mapped
    or an unmapped port: the NAT, and the client behind it, handle it without
    an exception, and every record of the run renders."""
    sim, client, nat, server = nat_triangle(policy)
    connect(sim, client)
    port = the_mapping(nat).external_port if mapped else 3333
    nat.on_datagram(sim, "nat", inbound(nat, TcpSegment(80, port, seq=5, ack=9, flags=flags)))
    sim.run()
    rows = list(sim.trace.rows())
    assert "".join(render_chunks(rows, 64)) == "".join(line(r) + "\n" for r in sim.trace)


class TestInboundRst:
    def forged(self, nat, ack_flag=True, seq=0):
        m = the_mapping(nat)
        flags = TcpFlag.RST | TcpFlag.ACK if ack_flag else TcpFlag.RST
        return inbound(nat, TcpSegment(80, m.external_port, seq=seq, flags=flags))

    def test_vulnerable_removes_any_seq(self):
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        nat.on_datagram(sim, "nat", self.forged(nat, seq=0))
        assert not nat.by_internal
        assert nat.mappings_removed_by_rst == 1

    def test_vulnerable_still_forwards_inward(self):
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        nat.on_datagram(sim, "nat", self.forged(nat))
        sim.run()
        seen = [r for r in sim.trace if r.node == "client" and r.action == "deliver"
                and isinstance(r.dgram.payload, TcpSegment)
                and TcpFlag.RST in r.dgram.payload.flags]
        assert seen  # client received it (and discarded it as out of order)

    def test_require_ack_flag(self):
        policy = NatPolicy(require_ack_on_rst=True)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        nat.on_datagram(sim, "nat", self.forged(nat, ack_flag=False))
        assert len(nat.by_internal) == 1  # retained, treated as forward-only
        nat.on_datagram(sim, "nat", self.forged(nat, ack_flag=True))
        assert not nat.by_internal

    def test_forward_only_keeps_table(self):
        policy = NatPolicy(rst_handling=RstHandling.FORWARD_ONLY)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        before = mapping_rows(nat)
        for seq in (0, 1, 99999, 2**31):
            nat.on_datagram(sim, "nat", self.forged(nat, seq=seq))
        assert mapping_rows(nat) == before
        assert nat.mappings_removed_by_rst == 0

    def test_strict_drops_out_of_window(self):
        policy = NatPolicy(rst_handling=RstHandling.STRICT_VALIDATE)
        sim, client, nat, server = nat_triangle(policy)
        key = connect(sim, client)
        client.send_data(sim, key, 50)
        sim.run()
        m = the_mapping(nat)
        lo, hi = m.inbound_seq_window
        nat.on_datagram(sim, "nat", self.forged(nat, seq=(hi + 99999) % 2**32))
        assert len(nat.by_internal) == 1
        assert any(r.reason == "rst-out-of-window" for r in sim.trace)

    def test_strict_accepts_in_window(self):
        policy = NatPolicy(rst_handling=RstHandling.STRICT_VALIDATE)
        sim, client, nat, server = nat_triangle(policy)
        key = connect(sim, client)
        client.send_data(sim, key, 50)
        sim.run()
        lo, hi = the_mapping(nat).inbound_seq_window
        nat.on_datagram(sim, "nat", self.forged(nat, seq=lo))
        assert not nat.by_internal  # a genuinely in-window reset is honored

    @given(seqs=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
    @settings(max_examples=40)
    def test_forward_only_barrage_property(self, seqs):
        policy = NatPolicy(rst_handling=RstHandling.FORWARD_ONLY)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        before = mapping_rows(nat)
        for seq in seqs:
            nat.on_datagram(sim, "nat", self.forged(nat, seq=seq))
        assert mapping_rows(nat) == before


class TestIcmpTranslation:
    def probe_msg(self, nat, mtu=600):
        m = the_mapping(nat)
        observed = Ipv4Datagram(
            src=nat.address, dst="7.7.7.7", protocol=Protocol.TCP,
            payload=TcpSegment(m.external_port, 80, seq=4242, flags=TcpFlag.ACK), df=True,
        )
        return Ipv4Datagram(
            src="203.0.113.7", dst=nat.address, protocol=Protocol.ICMP,
            payload=FragNeeded(mtu, wire.quote_of(observed)),
        )

    def test_leaky_translates_but_keeps_own_cache(self):
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        nat.on_datagram(sim, "nat", self.probe_msg(nat))
        sim.run()
        forwarded = [r.dgram for r in sim.trace if r.node == "client" and r.action == "deliver"
                     and isinstance(r.dgram.payload, FragNeeded)]
        assert len(forwarded) == 1
        q = wire.parse_embedded(forwarded[0].payload.embedded)
        assert q.src == "10.0.0.2" and q.src_port == the_mapping(nat).internal[1]
        assert q.seq == 4242
        assert nat.pmtu.get("7.7.7.7") == 1500  # the side channel

    def test_synchronized_updates_own_cache(self):
        policy = NatPolicy(pmtud_sync=PmtudSync.SYNCHRONIZED)
        sim, client, nat, server = nat_triangle(policy)
        connect(sim, client)
        nat.on_datagram(sim, "nat", self.probe_msg(nat))
        assert nat.pmtu.get("7.7.7.7") == 600

    def test_quote_of_a_mapped_port_to_another_remote_dropped(self):
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        observed = Ipv4Datagram(src=nat.address, dst="7.7.7.8", protocol=Protocol.TCP,
                                payload=TcpSegment(the_mapping(nat).external_port, 80, seq=1,
                                                   flags=TcpFlag.ACK), df=True)
        msg = Ipv4Datagram(src="203.0.113.7", dst=nat.address, protocol=Protocol.ICMP,
                           payload=FragNeeded(600, wire.quote_of(observed)))
        start = len(sim.trace)
        nat.on_datagram(sim, "nat", msg)
        assert [(r.action, r.reason) for r in list(sim.trace)[start:]] == [("drop", "icmp-no-mapping")]

    def test_unmatched_dropped(self):
        sim, client, nat, server = nat_triangle()
        observed = Ipv4Datagram(src=nat.address, dst="7.7.7.7", protocol=Protocol.TCP,
                                payload=TcpSegment(29999, 80, seq=1, flags=TcpFlag.ACK), df=True)
        msg = Ipv4Datagram(src="203.0.113.7", dst=nat.address, protocol=Protocol.ICMP,
                           payload=FragNeeded(600, wire.quote_of(observed)))
        nat.on_datagram(sim, "nat", msg)
        assert any(r.reason == "icmp-no-mapping" for r in sim.trace)


class TestNatEcho:
    def ping(self, nat, padding=1472):
        return Ipv4Datagram(src="8.8.8.8", dst=nat.address, protocol=Protocol.ICMP,
                            payload=EchoRequest(3, 1, padding), identification=50)

    def reply_sizes(self, sim):
        return [r.dgram.total_length for r in sim.trace
                if r.node == "nat" and r.action == "send"
                and r.dgram.protocol is Protocol.ICMP]

    def test_default_large_reply(self):
        sim, client, nat, server = nat_triangle()
        nat.on_datagram(sim, "nat", self.ping(nat))
        assert self.reply_sizes(sim) == [1500]

    def test_synchronized_reply_fragments(self):
        policy = NatPolicy(pmtud_sync=PmtudSync.SYNCHRONIZED)
        sim, client, nat, server = nat_triangle(policy)
        nat.pmtu.shrink("8.8.8.8", 600)
        nat.on_datagram(sim, "nat", self.ping(nat))
        assert self.reply_sizes(sim) == [596, 596, 348]

    def test_small_ping(self):
        sim, client, nat, server = nat_triangle()
        nat.on_datagram(sim, "nat", self.ping(nat, padding=36))
        assert self.reply_sizes(sim) == [64]

    def test_fragmented_request_reassembled_first(self):
        sim, client, nat, server = nat_triangle()
        for piece in wire.fragment(self.ping(nat), 600):
            nat.on_datagram(sim, "nat", piece)
        assert self.reply_sizes(sim) == [1500]


class TestTable:
    def test_indexes_stay_consistent(self):
        sim, client, nat, server = nat_triangle()
        keys = [connect(sim, client) for _ in range(3)]
        assert len(nat.by_internal) == len(nat.by_external) == 3
        ports = {m.external_port for m in nat.by_internal.values()}
        assert len(ports) == 3

    def test_removed_then_recreated_fresh(self):
        sim, client, nat, server = nat_triangle()
        key = connect(sim, client)
        old_port = the_mapping(nat).external_port
        nat.on_datagram(sim, "nat", inbound(
            nat, TcpSegment(80, old_port, seq=0, flags=TcpFlag.RST | TcpFlag.ACK)))
        assert not nat.by_internal and not nat.by_external
        client.send_data(sim, key, 10)
        sim.run(until=sim.now + 1)
        m = the_mapping(nat)  # data-created mapping, no SYN seen
        assert (m.internal, m.remote) == (("10.0.0.2", key[0]), ("7.7.7.7", 80))
        assert m.external_port == old_port + 1  # sequential moved on
        assert nat.by_external == {m.external_port: m}

    def test_dump_format(self):
        """An established mapping holds its tuples, is indexed by external
        port, and tracks no sequence window outside strict validation."""
        sim, client, nat, server = nat_triangle()
        key = connect(sim, client)
        m = the_mapping(nat)
        assert (m.internal, m.remote) == (("10.0.0.2", key[0]), ("7.7.7.7", 80))
        assert nat.by_external == {m.external_port: m}
        assert m.inbound_seq_window is None

    def test_dump_shows_strict_window(self):
        policy = NatPolicy(rst_handling=RstHandling.STRICT_VALIDATE)
        sim, client, nat, server = nat_triangle(policy)
        key = connect(sim, client)
        client.send_data(sim, key, 10)
        sim.run()
        lo, hi = the_mapping(nat).inbound_seq_window
        # opened at the client's last acknowledgement, one receive window wide
        assert (lo, hi) == (client.socket(key).rcv_nxt, seq_add(lo, DEFAULT_RCV_WND))

    def test_leaky_cache_unmoved_by_any_probe_sequence(self):
        sim, client, nat, server = nat_triangle()
        connect(sim, client)
        probe = TestIcmpTranslation()
        for mtu in (1200, 900, 600, 68):
            nat.on_datagram(sim, "nat", probe.probe_msg(nat, mtu=mtu))
        nat.on_datagram(sim, "nat", Ipv4Datagram(
            src="7.7.7.7", dst=nat.address, protocol=Protocol.ICMP,
            payload=EchoRequest(9, 1, 1472)))
        sizes = [r.dgram.total_length for r in sim.trace
                 if r.node == "nat" and r.action == "send"
                 and r.dgram.protocol is Protocol.ICMP]
        assert sizes == [1500]


CLIENTS = ("10.0.0.2", "10.0.0.3")
REMOTES = (("7.7.7.7", 80), ("7.7.7.8", 80))
# an outbound SYN (client, source port, remote), or an inbound RST/ACK from
# a remote to the external port of the i-th mapping (or to an unmapped port)
TABLE_STEPS = st.lists(
    st.tuples(st.just("syn"), st.sampled_from(CLIENTS), st.integers(1020, 1030), st.sampled_from(REMOTES))
    | st.tuples(st.just("rst"), st.integers(0, 7), st.booleans(), st.sampled_from(REMOTES)),
    max_size=12,
)


@pytest.mark.parametrize("allocation", list(PortAllocation))
@given(steps=TABLE_STEPS, start=st.sampled_from([1024, 0xFFFE]))
@settings(max_examples=20, deadline=None)
def test_table_indexes_stay_in_step(allocation, steps, start):
    """Under any SYN/RST sequence the two indexes hold the same mappings,
    each under both of its keys: the external ports in use are the mapped ones."""
    sim = Simulator(keep_trace=False)
    sim.add_node("nat", "6.6.6.6")
    nat = NatBox("nat", "6.6.6.6", NatPolicy(port_allocation=allocation, sequential_start=start),
                 set(CLIENTS))
    for kind, a, b, remote in steps:
        if kind == "syn":
            d = Ipv4Datagram(src=a, dst=remote[0], protocol=Protocol.TCP,
                             payload=TcpSegment(b, remote[1], seq=0, flags=TcpFlag.SYN))
        else:
            mapped = [m.external_port for m in nat.by_internal.values() if m.remote == remote]
            port = mapped[a % len(mapped)] if b and mapped else 50000 + a
            d = inbound(nat, TcpSegment(remote[1], port, seq=0, flags=TcpFlag.RST | TcpFlag.ACK),
                        src=remote[0])
        nat.on_datagram(sim, "nat", d)
        assert set(nat.by_external) == {m.external_port for m in nat.by_internal.values()}
        for m in nat.by_internal.values():
            assert nat.by_internal[(m.internal, m.remote)] is m
            assert nat.by_external[m.external_port] is m
