"""Host stack: PMTUD validation, echo sizing, TCP state machine, quirks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from natsim import wire
from natsim.endpoint import (
    ConnectionResetSimError,
    Host,
    OPENBSD_LIKE,
    PathMtuCache,
    PortsExhaustedError,
    TcpState,
    pick_port,
)
from natsim.wire import (
    EchoReply,
    EchoRequest,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpFlag,
    TcpSegment,
)

from helpers import connect, host_pair


def frag_needed_for(host, sock, mtu, seq=None):
    """A FragNeeded quoting one of the host's own outbound segments."""
    seg = TcpSegment(sock.local_port, sock.remote[1],
                     seq=sock.snd_nxt - 1 if seq is None else seq, flags=TcpFlag.ACK)
    outbound = Ipv4Datagram(src=host.address, dst=sock.remote[0], protocol=Protocol.TCP,
                            payload=seg, df=True)
    return Ipv4Datagram(
        src="203.0.113.7", dst=host.address, protocol=Protocol.ICMP,
        payload=FragNeeded(next_hop_mtu=mtu, embedded=wire.quote_of(outbound)),
    )


class TestHandshake:
    def test_open_connection_establishes_both_ends(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        assert a.socket(key).state == TcpState.ESTABLISHED
        server_sock = next(iter(b.sockets.values()))
        assert server_sock.state == TcpState.ESTABLISHED
        assert a.socket(key).rcv_nxt == (server_sock.snd_una) % 2**32

    def test_ephemeral_in_range(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        lo, hi = a.ephemeral_range
        assert lo <= key[0] <= hi

    def test_ports_exhausted(self):
        host = Host("x", "3.3.3.3", ephemeral_range=(50000, 50001))
        sim, a, b = host_pair()
        host._used_ports = {50000, 50001}
        with pytest.raises(PortsExhaustedError):
            host._alloc_ephemeral()

    def test_the_last_free_port_is_found_when_the_draws_miss(self):
        # 64 seeded draws over 64,512 ports all land on used ones; the scan finds the last
        used = set(range(1024, 0x10000)) - {4321}
        assert pick_port(random.Random(1), 1024, 0xFFFF, used) == 4321
        assert pick_port(random.Random(1), 1024, 0xFFFF, used | {4321}) is None


class TestSendData:
    def test_segments_respect_path_mtu(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        a.pmtu.shrink("2.2.2.2", 600)
        sent_before = sim.counters["a"].packets_sent
        a.send_data(sim, key, 5000)
        segs = [r.dgram.payload for r in sim.trace
                if r.node == "a" and r.action == "send"
                and isinstance(r.dgram.payload, TcpSegment) and r.dgram.payload.payload_length]
        assert all(s.payload_length <= 560 for s in segs)
        assert sum(s.payload_length for s in segs) == 5000
        assert sim.counters["a"].packets_sent - sent_before == len(segs)

    def test_segments_fit_the_first_hop(self):
        """With no cache entry, the first hop's MTU bounds a segment
        (RFC 1191 section 3): a 576 link carries 1,400 octets, no drop."""
        sim, a, b = host_pair(mtu=576)
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        a.send_data(sim, key, 1400)
        sim.run()
        assert [r.dgram.payload.payload_length for r in sim.trace
                if r.node == "b" and r.action == "deliver" and r.dgram.payload.payload_length] == [536, 536, 328]
        assert not [r for r in sim.trace if r.action == "drop"]
        assert next(iter(b.sockets.values())).rcv_nxt == a.socket(key).snd_nxt

    def test_send_on_closed_raises(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        a.socket(key).state = TcpState.CLOSED
        with pytest.raises(ConnectionResetSimError):
            a.send_data(sim, key, 10)

    def test_in_order_data_advances_and_acks(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        server_sock = next(iter(b.sockets.values()))
        before = server_sock.rcv_nxt
        a.send_data(sim, key, 700)
        sim.run()
        assert server_sock.rcv_nxt == (before + 700) % 2**32
        assert a.socket(key).snd_una == a.socket(key).snd_nxt  # ack came back


class TestIcmpValidation:
    def test_in_window_shrinks(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        sock = a.socket(key)
        a.send_data(sim, key, 100)  # leave unacked data in flight
        a.on_datagram(sim, "a", frag_needed_for(a, sock, 600, seq=sock.snd_nxt - 1))
        assert a.pmtu.get("2.2.2.2") == 600

    def test_outside_window_ignored(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        sock = a.socket(key)
        a.send_data(sim, key, 100)
        a.on_datagram(sim, "a", frag_needed_for(a, sock, 600, seq=(sock.snd_nxt + 5000) % 2**32))
        assert a.pmtu.get("2.2.2.2") == 1500
        assert any(r.reason == "icmp-validation-failed" for r in sim.trace)

    def test_clamped_to_floor(self):
        sim, a, b = host_pair()
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        sock = a.socket(key)
        a.send_data(sim, key, 100)
        a.on_datagram(sim, "a", frag_needed_for(a, sock, 40))
        assert a.pmtu.get("2.2.2.2") == 68

    def test_no_socket_ignored(self):
        sim, a, b = host_pair()
        seg = TcpSegment(9999, 80, seq=5, flags=TcpFlag.ACK)
        ghost = Ipv4Datagram(src=a.address, dst="2.2.2.2", protocol=Protocol.TCP,
                             payload=seg, df=True)
        msg = Ipv4Datagram(src="203.0.113.7", dst=a.address, protocol=Protocol.ICMP,
                           payload=FragNeeded(600, wire.quote_of(ghost)))
        a.on_datagram(sim, "a", msg)
        assert a.pmtu.get("2.2.2.2") == 1500

    @given(mtus=st.lists(st.integers(0, 3000), max_size=12))
    @settings(max_examples=60)
    def test_monotonic_between_resets(self, mtus):
        cache = PathMtuCache()
        last = cache.get("5.5.5.5")
        for mtu in mtus:
            new = cache.shrink("5.5.5.5", mtu)
            assert 68 <= new <= last
            last = new
        cache.reset("5.5.5.5")
        assert cache.get("5.5.5.5") == 1500


class TestEchoResponder:
    def echo(self, padding):
        return Ipv4Datagram(src="2.2.2.2", dst="1.1.1.1", protocol=Protocol.ICMP,
                            payload=EchoRequest(11, 1, padding), identification=42)

    def sizes(self, sim):
        return [r.dgram.total_length for r in sim.trace
                if r.node == "a" and r.action == "send" and r.dgram.protocol is Protocol.ICMP]

    def test_shrunk_path_pre_fragments(self):
        sim, a, b = host_pair()
        a.pmtu.shrink("2.2.2.2", 600)
        a.on_datagram(sim, "a", self.echo(1472))
        assert self.sizes(sim) == [596, 596, 348]

    def test_default_path_single_reply(self):
        sim, a, b = host_pair()
        a.on_datagram(sim, "a", self.echo(1472))
        assert self.sizes(sim) == [1500]

    def test_small_request_small_reply(self):
        sim, a, b = host_pair()
        a.pmtu.shrink("2.2.2.2", 600)
        a.on_datagram(sim, "a", self.echo(72))
        assert self.sizes(sim) == [100]

    def test_reply_mirrors_and_clears_df(self):
        sim, a, b = host_pair()
        a.on_datagram(sim, "a", self.echo(100))
        sent = [r.dgram for r in sim.trace if r.action == "send" and r.node == "a"][0]
        assert isinstance(sent.payload, EchoReply)
        assert (sent.payload.ident, sent.payload.seq_no, sent.payload.padding_length) == (11, 1, 100)
        assert not sent.df

    def test_fragmented_request_reassembled(self):
        sim, a, b = host_pair()
        request = self.echo(1472)
        for piece in wire.fragment(request, 600):
            a.on_datagram(sim, "a", piece)
        assert self.sizes(sim) == [1500]

    def test_incomplete_group_times_out(self):
        sim, a, b = host_pair()
        pieces = wire.fragment(self.echo(1472), 600)
        a.on_datagram(sim, "a", pieces[0])
        sim.run(until=sim.now + 40)
        assert self.sizes(sim) == []
        assert any(r.reason == "reassembly-timeout" for r in sim.trace)

    @given(replies=st.lists(st.tuples(
        st.sampled_from(["1.1.1.1", "9.9.9.9", "203.0.113.99"]),
        st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), st.integers(0, 4000),
    ), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_echo_replies_leave_no_state_at_a_non_vantage_host(self, replies):
        """Whole and fragmented echo replies, from any source, grow no list
        of a host that is not the probe's vantage."""
        sim, a, b = host_pair()
        lengths = lambda: {k: len(v) for k, v in vars(b).items() if isinstance(v, list)}
        before = lengths()
        for i, (src, ident, seq_no, padding) in enumerate(replies):
            sim.inject("a", Ipv4Datagram(src=src, dst="2.2.2.2", protocol=Protocol.ICMP,
                                         payload=EchoReply(ident, seq_no, padding), identification=i))
        sim.run()
        assert lengths() == before


class TestResetBehavior:
    def established(self, profile=None):
        sim, a, b = host_pair(profile_b=profile)
        b.listen(80)
        key = connect(sim, a, ("2.2.2.2", 80))
        a.send_data(sim, key, 300)
        sim.run()
        server_sock = next(iter(b.sockets.values()))
        return sim, a, b, key, server_sock

    def tcp_to(self, host, seg, src="9.9.9.9"):
        return Ipv4Datagram(src=src, dst=host.address, protocol=Protocol.TCP, payload=seg)

    def test_forged_rst_wrong_seq_dropped(self):
        sim, a, b, key, ssock = self.established()
        forged = TcpSegment(ssock.remote[1], ssock.local_port,
                            seq=(ssock.rcv_nxt + 1234) % 2**32, flags=TcpFlag.RST)
        b.on_datagram(sim, "b", self.tcp_to(b, forged, src="1.1.1.1"))
        assert ssock.state == TcpState.ESTABLISHED

    def test_rst_exact_seq_tears(self):
        sim, a, b, key, ssock = self.established()
        rst = TcpSegment(ssock.remote[1], ssock.local_port, seq=ssock.rcv_nxt, flags=TcpFlag.RST)
        b.on_datagram(sim, "b", self.tcp_to(b, rst, src="1.1.1.1"))
        assert ssock.state == TcpState.CLOSED
        tick, seq, rcv_nxt, src = ssock.reset_record
        assert seq == rcv_nxt

    @given(offset=st.integers(1, 2**32 - 1))
    @settings(max_examples=80)
    def test_rst_acceptance_is_exact_only(self, offset):
        sim, a, b, key, ssock = self.established()
        forged = TcpSegment(ssock.remote[1], ssock.local_port,
                            seq=(ssock.rcv_nxt + offset) % 2**32, flags=TcpFlag.RST | TcpFlag.ACK)
        b.on_datagram(sim, "b", self.tcp_to(b, forged, src="1.1.1.1"))
        assert ssock.state == TcpState.ESTABLISHED

    def test_stray_push_ack_leaks_rcv_nxt(self):
        sim, a, b, key, ssock = self.established()
        stray = TcpSegment(ssock.remote[1], ssock.local_port, seq=12345, ack=999,
                           flags=TcpFlag.PSH | TcpFlag.ACK, payload_length=1)
        b.on_datagram(sim, "b", self.tcp_to(b, stray, src="1.1.1.1"))
        assert b.dup_acks_sent == 1
        dup = [r.dgram.payload for r in sim.trace
               if r.node == "b" and r.action == "send"
               and isinstance(r.dgram.payload, TcpSegment)][-1]
        assert dup.ack == ssock.rcv_nxt
        assert ssock.last_dup_ack == ssock.rcv_nxt

    def test_stray_push_ack_flood_leaves_bounded_state(self):
        """Every stray PUSH/ACK is answered, but the host keeps only the
        last duplicate ACK: 10,000 of them grow none of its containers."""
        sim, a, b, key, ssock = self.established()
        sizes = lambda: sum(len(v) for v in vars(b).values() if isinstance(v, (list, dict, set)))

        def stray(n):
            seg = TcpSegment(ssock.remote[1], ssock.local_port, seq=(ssock.rcv_nxt + 5000 + n) % 2**32,
                             ack=999, flags=TcpFlag.PSH | TcpFlag.ACK, payload_length=1)
            b.on_datagram(sim, "b", self.tcp_to(b, seg, src="1.1.1.1"))

        stray(0)
        after_one = sizes()
        for n in range(1, 10_000):
            stray(n)
        assert b.dup_acks_sent == 10_000
        assert ssock.last_dup_ack == ssock.rcv_nxt
        assert sizes() == after_one

    def test_openbsd_profile_stays_silent(self):
        sim, a, b, key, ssock = self.established(profile=OPENBSD_LIKE)
        sent_before = sim.counters["b"].packets_sent
        stray = TcpSegment(ssock.remote[1], ssock.local_port, seq=12345, ack=999,
                           flags=TcpFlag.PSH | TcpFlag.ACK, payload_length=1)
        b.on_datagram(sim, "b", self.tcp_to(b, stray, src="1.1.1.1"))
        assert b.dup_acks_sent == 0
        assert sim.counters["b"].packets_sent == sent_before

    def test_closed_port_with_ack_reflects_ack_as_seq(self):
        sim, a, b = host_pair()
        seg = TcpSegment(5555, 80, seq=777, ack=424242,
                         flags=TcpFlag.PSH | TcpFlag.ACK, payload_length=3)
        b.on_datagram(sim, "b", Ipv4Datagram(src="9.9.9.9", dst=b.address,
                                             protocol=Protocol.TCP, payload=seg))
        out = [r.dgram.payload for r in sim.trace if r.node == "b" and r.action == "send"]
        assert len(out) == 1
        assert out[0].flags == TcpFlag.RST
        assert out[0].seq == 424242

    def test_closed_port_without_ack_acks_segment(self):
        sim, a, b = host_pair()
        seg = TcpSegment(5555, 80, seq=777, flags=TcpFlag.PSH, payload_length=3)
        b.on_datagram(sim, "b", Ipv4Datagram(src="9.9.9.9", dst=b.address,
                                             protocol=Protocol.TCP, payload=seg))
        out = [r.dgram.payload for r in sim.trace if r.node == "b" and r.action == "send"][0]
        assert out.flags == TcpFlag.RST | TcpFlag.ACK
        assert (out.seq, out.ack) == (0, 780)

    def test_rst_to_closed_port_silent(self):
        sim, a, b = host_pair()
        seg = TcpSegment(5555, 80, seq=777, flags=TcpFlag.RST)
        b.on_datagram(sim, "b", Ipv4Datagram(src="9.9.9.9", dst=b.address,
                                             protocol=Protocol.TCP, payload=seg))
        assert sim.counters["b"].packets_sent == 0

    @given(ack=st.integers(0, 2**32 - 1), payload=st.integers(0, 50))
    @settings(max_examples=60)
    def test_reflection_property(self, ack, payload):
        sim, a, b = host_pair()
        seg = TcpSegment(5555, 80, seq=777, ack=ack, flags=TcpFlag.ACK, payload_length=payload)
        b.on_datagram(sim, "b", Ipv4Datagram(src="9.9.9.9", dst=b.address,
                                             protocol=Protocol.TCP, payload=seg))
        out = [r.dgram.payload for r in sim.trace if r.node == "b" and r.action == "send"]
        assert len(out) == 1 and out[0].seq == ack and TcpFlag.RST in out[0].flags


class TestPathMtuReset:
    def test_restore_returns_to_default(self):
        sim, a, b = host_pair()
        a.pmtu.shrink("2.2.2.2", 600)
        a.pmtu.reset("2.2.2.2")
        a.on_datagram(sim, "a", Ipv4Datagram(src="2.2.2.2", dst="1.1.1.1",
                                             protocol=Protocol.ICMP,
                                             payload=EchoRequest(1, 1, 1472)))
        sizes = [r.dgram.total_length for r in sim.trace
                 if r.node == "a" and r.action == "send"]
        assert sizes == [1500]
