"""Shared mini-topologies for unit tests, and the reference trace line."""

from __future__ import annotations

from natsim import wire
from natsim.endpoint import Host, StackProfile
from natsim.fabric import LinkSpec, Simulator, TraceRecord
from natsim.natbox import NatBox, NatPolicy
from natsim.wire import Ipv4Datagram, TcpFlag, TcpSegment


def host_pair(seed=1, profile_b: StackProfile | None = None, mtu=1500):
    """Two hosts joined by a symmetric link."""
    sim = Simulator(seed=seed)
    a = Host("a", "1.1.1.1", seed=seed)
    b = Host("b", "2.2.2.2", seed=seed, profile=profile_b or StackProfile())
    sim.add_node("a", a.address, handler=a)
    sim.add_node("b", b.address, handler=b)
    sim.add_link(LinkSpec("a", "b", mtu=mtu))
    sim.add_link(LinkSpec("b", "a", mtu=mtu))
    sim.finalize_routes()
    return sim, a, b


def chain(n=3, seed=1, opaque=None, hop=None, **link_kw):
    """n nodes in a line, n0 - n1 - ...; returns the sim.  Every node routes
    but the `opaque` one.  Every link takes link_kw, or with `hop` i only
    the link n<i> -> n<i+1>."""
    sim = Simulator(seed=seed)
    for i in range(n):
        sim.add_node(f"n{i}", f"10.1.0.{i + 1}", transit=i != opaque)
    for i in range(n - 1):
        kw = link_kw if hop in (None, i) else {}
        sim.add_link(LinkSpec(f"n{i}", f"n{i + 1}", **kw))
        sim.add_link(LinkSpec(f"n{i + 1}", f"n{i}", **(link_kw if hop is None else {})))
    sim.finalize_routes()
    return sim


def nat_triangle(policy: NatPolicy | None = None, seed=1):
    """client - nat - server, the smallest NAT-translation topology."""
    sim = Simulator(seed=seed)
    client = Host("client", "10.0.0.2", seed=seed)
    server = Host("server", "7.7.7.7", seed=seed)
    nat = NatBox("nat", "6.6.6.6", policy or NatPolicy(), {"10.0.0.2"}, seed=seed)
    sim.add_node("client", client.address, handler=client)
    sim.add_node("server", server.address, handler=server)
    sim.add_node("nat", nat.address, handler=nat, intercept=True)
    for a, b in (("client", "nat"), ("nat", "client"), ("nat", "server"), ("server", "nat")):
        sim.add_link(LinkSpec(a, b))
    sim.finalize_routes()
    server.listen(80)
    return sim, client, nat, server


def connect(sim, client, remote=("7.7.7.7", 80)):
    key = client.open_connection(sim, remote)
    sim.run(until=sim.now + 10)
    return key


def line(rec: TraceRecord) -> str:
    """The reference rendering of one trace record, without its newline:
    what `fabric.render_chunks` must produce for it."""
    return f"{rec.tick}\t{rec.node}\t{rec.action}\t{rec.reason}\t{packet_summary(rec.dgram)}"


# each TCP flag's letter in the trace column, lowest bit first
FLAG_LETTERS = ((TcpFlag.FIN, "F"), (TcpFlag.SYN, "S"), (TcpFlag.RST, "R"), (TcpFlag.PSH, "P"),
                (TcpFlag.ACK, "A"))


def packet_summary(d: Ipv4Datagram) -> str:
    """The reference packet column, `proto src:port>dst:port flags seq ack
    len df off`, built field by field from the datagram: the product builds
    a TCP column inline in `fabric.render_chunks`, and this function is not
    on its path."""
    p = d.payload
    df = "DF" if d.df else ("MF" if d.more_fragments else "-")
    if isinstance(p, TcpSegment):
        proto, sp, dp, seq, ack = "TCP", p.src_port, p.dst_port, p.seq, p.ack
        flags = "".join(letter for flag, letter in FLAG_LETTERS if flag in p.flags) or "-"
    elif isinstance(p, wire.EchoRequest):
        proto, flags, sp, dp, seq, ack = "ICMP", "EQ", 0, 0, p.seq_no, p.ident
    elif isinstance(p, wire.EchoReply):
        proto, flags, sp, dp, seq, ack = "ICMP", "EP", 0, 0, p.seq_no, p.ident
    elif isinstance(p, wire.FragNeeded):
        proto, flags, sp, dp, seq, ack = "ICMP", "FN", 0, 0, p.next_hop_mtu, 0
    else:
        proto = d.protocol.name
        flags, sp, dp, seq, ack = "-", 0, 0, 0, 0
    return f"{proto} {d.src}:{sp}>{d.dst}:{dp} {flags} {seq} {ack} {d.total_length} {df} {d.fragment_offset}"
