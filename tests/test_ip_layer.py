"""The IP layer Host and NatBox share: fragment reassembly, expiry and the
echo responder, run on both node types."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from natsim import wire
from natsim.wire import EchoReply, EchoRequest, Ipv4Datagram, Protocol

from helpers import host_pair, nat_triangle

PEER = "2.2.2.2"


def host_node():
    sim, a, _ = host_pair()
    return sim, a


def nat_node():
    sim, _, nat, _ = nat_triangle()
    return sim, nat


def vantage_node():
    sim, a = host_node()
    a.vantage = True
    return sim, a


NODES = pytest.mark.parametrize("make", [host_node, nat_node], ids=["host", "nat"])


def echo_request(sim, node, ident=42, padding=1472):
    return Ipv4Datagram(src=PEER, dst=sim.nodes[node.node_id].address, protocol=Protocol.ICMP,
                        payload=EchoRequest(11, 1, padding), identification=ident)


def echo_replies(sim, node):
    return [r.dgram for r in sim.trace if r.node == node.node_id and r.action == "send"
            and isinstance(r.dgram.payload, EchoReply)]


def drops(sim, node, reason):
    return [r for r in sim.trace
            if r.node == node.node_id and r.action == "drop" and r.reason == reason]


@NODES
def test_lone_fragments_expire(make):
    sim, node = make()
    for ident in range(200):
        node.on_datagram(sim, node.node_id, wire.fragment(echo_request(sim, node, ident), 600)[0])
    sim.run(until=sim.now + 10_000)
    assert node._frag_buffers == {}
    assert len(drops(sim, node, "reassembly-timeout")) == 200


@NODES
def test_duplicate_fragment_dropped_not_poisoning(make):
    sim, node = make()
    first, *rest = wire.fragment(echo_request(sim, node), 600)
    for piece in [first, first, *rest]:
        node.on_datagram(sim, node.node_id, piece)
    assert [d.total_length for d in echo_replies(sim, node)] == [1500]
    assert len(drops(sim, node, "duplicate-fragment")) == 1
    assert node._frag_buffers == {}


@NODES
def test_undecodable_reassembly_is_a_recorded_drop(make):
    """Two fragments that reassemble into ICMP type 42 end in one drop and
    free their group; the decode error never leaves the node."""
    sim, node = make()
    body = struct.pack(">BBHHH", 42, 0, 0, 0, 0) + bytes(16)
    dst = sim.nodes[node.node_id].address
    first, last = (
        Ipv4Datagram(src=PEER, dst=dst, protocol=Protocol.ICMP, payload=piece, identification=7,
                     more_fragments=mf, fragment_offset=off)
        for piece, mf, off in ((body[:16], True, 0), (body[16:], False, 2))
    )
    node.on_datagram(sim, node.node_id, first)
    node.on_datagram(sim, node.node_id, last)
    sim.run()
    assert [r.dgram for r in drops(sim, node, "malformed-reassembly")] == [first]
    assert node._frag_buffers == {}
    assert not drops(sim, node, "reassembly-timeout")


@pytest.mark.parametrize("decodes", [True, False], ids=["echo-request", "undecodable"])
@pytest.mark.parametrize("make", [host_node, vantage_node, nat_node], ids=["host", "vantage", "nat"])
def test_a_raw_body_that_is_no_fragment_is_a_group_of_one(make, decodes):
    """A datagram with a raw body, more-fragments clear and offset 0, is a
    complete group of one piece: decoded and dispatched whole, or one
    malformed-reassembly drop when its body does not decode."""
    sim, node = make()
    request = echo_request(sim, node, padding=36)
    body = wire.encode(request)[20:] if decodes else struct.pack(">BBHHH", 42, 0, 0, 0, 0)
    raw = dataclasses.replace(request, payload=body)
    node.on_datagram(sim, node.node_id, raw)
    sim.run()
    assert [d.payload for d in echo_replies(sim, node)] == [EchoReply(11, 1, 36)] * decodes
    assert [r.dgram for r in drops(sim, node, "malformed-reassembly")] == [raw] * (not decodes)
    assert not drops(sim, node, "reassembly-timeout")
    assert node._frag_buffers == {}


@NODES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_group_reassembles_or_expires(make, data):
    """Any permutation, duplication and loss of a fragment group either
    reassembles to the original request or expires, leaving no state."""
    sim, node = make()
    padding = data.draw(st.integers(1000, 1472), label="padding")
    mtu = data.draw(st.integers(68, 1000), label="mtu")
    request = echo_request(sim, node, padding=padding)
    pieces = wire.fragment(request, mtu)
    copies = data.draw(st.lists(st.integers(0, 2), min_size=len(pieces), max_size=len(pieces)),
                       label="copies")
    arrivals = data.draw(st.permutations([p for p, n in zip(pieces, copies) for _ in range(n)]),
                         label="order")
    gaps = data.draw(st.lists(st.integers(0, 1), min_size=len(arrivals), max_size=len(arrivals)),
                     label="gaps")
    tick = sim.now
    for piece, gap in zip(arrivals, gaps):
        tick += gap  # all arrivals land within the reassembly timeout
        sim.schedule_call(tick, lambda s, p=piece: node.on_datagram(s, node.node_id, p))
    sim.run()
    replies = echo_replies(sim, node)
    if all(copies):
        # a fully duplicated group may complete twice: IP does not dedupe datagrams
        assert replies
        assert all(d.payload == EchoReply(11, 1, padding) for d in replies)
    else:
        assert replies == []
        assert bool(drops(sim, node, "reassembly-timeout")) == bool(arrivals)
    assert node._frag_buffers == {}


@NODES
def test_group_over_16_bits_is_a_recorded_drop(make):
    """A complete group whose payload exceeds 65,515 octets cannot form a
    datagram: it ends in one drop and frees its group."""
    sim, node = make()
    request = echo_request(sim, node, padding=0xFFFF - 28)
    *head, last = wire.fragment(request, 1500)
    group = head + [dataclasses.replace(last, payload=last.payload + b"\x00")]
    for piece in group:
        node.on_datagram(sim, node.node_id, piece)
    sim.run()
    assert [r.dgram for r in drops(sim, node, "malformed-reassembly")] == [group[0]]
    assert node._frag_buffers == {}
    assert not echo_replies(sim, node)


@pytest.mark.parametrize("fragmented", [False, True], ids=["whole", "fragmented"])
@pytest.mark.parametrize("make, records, logged", [
    (nat_node, [("drop", "no-mapping")], 0),
    (host_node, [], 0),
    (vantage_node, [], 1),
], ids=["nat", "host", "vantage"])
def test_echo_reply_dispatch(make, records, logged, fragmented):
    """An echo reply to the NAT is one no-mapping drop; a Host records
    nothing for it, and a vantage logs each fragment as it takes it in,
    then the reassembled reply."""
    sim, node = make()
    reply = Ipv4Datagram(src=PEER, dst=sim.nodes[node.node_id].address, protocol=Protocol.ICMP,
                         payload=EchoReply(11, 1, 1472), identification=9)
    start = len(sim.trace)
    pieces = wire.fragment(reply, 600) if fragmented else []
    for piece in pieces or [reply]:
        node.on_datagram(sim, node.node_id, piece)
    sim.run()
    assert [(r.action, r.reason, r.dgram) for r in list(sim.trace)[start:]] == [
        (action, reason, reply) for action, reason in records]
    assert [d for _, d in getattr(node, "arrivals", [])] == [*pieces, reply] * logged
