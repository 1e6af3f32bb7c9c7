"""Simulated host TCP/IP stack, and the IP layer it shares with the NAT.

IpNode is that shared layer: the one payload dispatch for a datagram
addressed to the node (RFC 1122 section 3.2.1), a per-destination path-MTU
cache, the IP identification counter, fragment reassembly with expiry, an
echo responder that fragments at the node's own path-MTU cache, and the
closed-socket reset reflection of RFC 793.  Host adds a minimal TCP
connection table and the duplicate-ACK reaction of RFC 5681.  OS quirks
are expressed via StackProfile: an openbsd-like profile stays silent on
stray PUSH/ACKs.

No congestion control, no retransmission timers, no SACK or options;
application protocols are reduced to "send N octets now".
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Container
from dataclasses import dataclass

from . import wire
from .fabric import Simulator, derive_rng
from .wire import (
    ACK_BIT,
    PSH_ACK,
    PSH_BIT,
    RST_ACK,
    RST_BIT,
    SYN_ACK,
    SYN_BIT,
    EchoReply,
    EchoRequest,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpFlag,
    TcpSegment,
    seq_add,
    seq_in_range,
    tcp_packet,
)

# Enum members read per packet: through the class, each read costs several times a global
_TCP = Protocol.TCP
_RST = TcpFlag.RST
_ACK = TcpFlag.ACK

REASSEMBLY_TIMEOUT_TICKS = 30
DEFAULT_EPHEMERAL_RANGE = (32768, 61000)  # linux-like; windows-like is 49152-65535
DEFAULT_RCV_WND = 65535


class StackError(Exception):
    pass


class PortsExhaustedError(StackError):
    """No free port remains in the configured ephemeral range."""


class ConnectionResetSimError(StackError):
    """The simulated application tried to use a closed connection."""


@dataclass(frozen=True)
class StackProfile:
    name: str = "linux-like"
    emits_dup_ack_on_stray_push_ack: bool = True


LINUX_LIKE = StackProfile()
OPENBSD_LIKE = StackProfile(name="openbsd-like", emits_dup_ack_on_stray_push_ack=False)


class PathMtuCache:
    """Per-destination path MTU; entries only shrink within a run."""

    def __init__(self):
        self.entries: dict[str, int] = {}

    def get(self, dst: str) -> int:
        return self.entries.get(dst, wire.DEFAULT_MTU)

    def shrink(self, dst: str, mtu: int) -> int:
        new = max(wire.MIN_MTU, min(mtu, self.get(dst)))
        self.entries[dst] = new
        return new


def pick_port(rng: random.Random, lo: int, hi: int, used: Container[int]) -> int | None:
    """A free port in [lo, hi]: up to 64 seeded draws, then the lowest
    free port; None when every port is in use."""
    for _ in range(64):
        port = lo + rng.randrange(hi - lo + 1)
        if port not in used:
            return port
    return lowest_free_port(used, lo, hi)


def lowest_free_port(used: Container[int], lo: int, hi: int, start: int | None = None) -> int | None:
    """The first port not in `used` in [start, hi], then in [lo, start);
    `start` defaults to lo.  None when every port in [lo, hi] is in use."""
    start = lo if start is None else max(start, lo)
    ports = itertools.chain(range(start, hi + 1), range(lo, start))
    return next((port for port in ports if port not in used), None)


class IpNode:
    """The IP layer under Host and NatBox.  on_datagram dispatches to the
    subclass's _on_tcp, _on_frag_needed and _on_echo_reply."""

    def __init__(self, node_id: str, address: str):
        self.node_id = node_id
        self.address = address
        self.pmtu = PathMtuCache()
        self._ip_ident = 0
        # each group's fragments in arrival order, keyed by (src, dst, protocol, identification)
        self._frag_buffers: dict[tuple, dict[Ipv4Datagram, None]] = {}

    def on_datagram(self, sim: Simulator, node: str, d: Ipv4Datagram) -> None:
        """Dispatch a datagram addressed to this node by its payload; a
        reassembled datagram comes back here through self.on_datagram."""
        p = d.payload
        if isinstance(p, bytes):
            self._on_fragment(sim, d)
        elif isinstance(p, TcpSegment):
            self._on_tcp(sim, d, p)
        elif isinstance(p, EchoRequest):
            self._echo(sim, d, p)
        elif isinstance(p, FragNeeded):
            self._on_frag_needed(sim, d, p)
        else:
            self._on_echo_reply(sim, d)

    def _on_fragment(self, sim: Simulator, d: Ipv4Datagram) -> None:
        key = (d.src, d.dst, d.protocol, d.identification)
        frags = self._frag_buffers.get(key)
        if frags is None:
            frags = self._frag_buffers[key] = {}
            sim.schedule_call(
                sim.now + REASSEMBLY_TIMEOUT_TICKS, lambda s, k=key: self._expire_group(s, k)
            )
        elif d in frags:
            # RFC 791/815 receivers drop exact duplicates; reassemble would
            # read one as an overlap and never complete the group
            sim.record(self.node_id, "drop", "duplicate-fragment", d)
            return
        frags[d] = None
        try:
            whole = wire.reassemble(frags)
        except wire.MalformedPacketError:
            # a complete group whose bytes do not decode: nothing to dispatch
            del self._frag_buffers[key]
            sim.record(self.node_id, "drop", "malformed-reassembly", next(iter(frags)))
            return
        if whole is not None:
            del self._frag_buffers[key]
            self.on_datagram(sim, self.node_id, whole)

    def _expire_group(self, sim: Simulator, key: tuple) -> None:
        frags = self._frag_buffers.pop(key, None)
        if frags is not None:
            sim.record(self.node_id, "drop", "reassembly-timeout", next(iter(frags)))

    def _echo(self, sim: Simulator, d: Ipv4Datagram, req: EchoRequest) -> None:
        """Answer a ping, fragmenting at this node's own path-MTU cache."""
        self._ip_ident = (self._ip_ident + 1) % 0x10000
        reply = Ipv4Datagram(
            src=self.address,
            dst=d.src,
            protocol=Protocol.ICMP,
            payload=EchoReply(req.ident, req.seq_no, req.padding_length),
            identification=self._ip_ident,
        )
        for piece in wire.fragment(reply, self.pmtu.get(d.src)):
            sim.send_from(self.node_id, piece)

    def _reflect_reset(self, sim: Simulator, d: Ipv4Datagram, seg: TcpSegment) -> None:
        """RFC 793 reset for a segment that matches no connection."""
        flags = seg.flags._value_
        if flags & RST_BIT:
            return  # never reset in response to a reset
        if flags & ACK_BIT:
            seq, ack, reply_flags = seg.ack, 0, _RST
        else:
            seq, ack, reply_flags = 0, seq_add(seg.seq, seg.seg_len), RST_ACK
        # the ports and numbers come from a checked segment: built store-only,
        # with the identification kept in 16 bits and DF on a whole datagram
        ident = self._ip_ident = (self._ip_ident + 1) % 0x10000
        sim.send_from(self.node_id, tcp_packet(self.address, d.src, seg.dst_port, seg.src_port, seq, ack,
                                               reply_flags, 0, ident, True))


class TcpState:
    SYN_SENT = "SYN_SENT"
    ESTABLISHED = "ESTABLISHED"
    CLOSED = "CLOSED"


ConnKey = tuple[int, str, int]  # (local port, remote addr, remote port)


@dataclass
class Socket:
    local_port: int
    remote: tuple[str, int]
    state: str
    snd_una: int
    snd_nxt: int
    rcv_nxt: int = 0
    # ground truth for assessors: (tick, rst seq, rcv_nxt at acceptance, src addr)
    reset_record: tuple[int, int, int, str] | None = None
    last_dup_ack: int | None = None  # ack value of the last duplicate ACK sent

    @property
    def key(self) -> ConnKey:
        return (self.local_port, self.remote[0], self.remote[1])


class Host(IpNode):
    """A host endpoint attached to one simulator node."""

    def __init__(
        self,
        node_id: str,
        address: str,
        *,
        seed: int = 0,
        profile: StackProfile = LINUX_LIKE,
        ephemeral_range: tuple[int, int] = DEFAULT_EPHEMERAL_RANGE,
        vantage: bool = False,
    ):
        super().__init__(node_id, address)
        self.profile = profile
        self.ephemeral_range = ephemeral_range
        # a vantage host logs each TCP segment, fragment and echo reply it takes
        # in as (tick, datagram) and leaves its data unacknowledged, for the probe
        self.vantage = vantage
        self.sockets: dict[ConnKey, Socket] = {}
        self.listeners: set[int] = set()
        self.dup_acks_sent = 0
        self.arrivals: list[tuple[int, Ipv4Datagram]] = []
        self._rng = derive_rng(seed, "host", node_id)
        self._used_ports: set[int] = set()

    # -- application surface ---------------------------------------------------

    def listen(self, port: int) -> None:
        self.listeners.add(port)

    def open_connection(self, sim: Simulator, remote: tuple[str, int]) -> ConnKey:
        """Start the three-way handshake toward remote; returns the
        connection key (ESTABLISHED only after the SYN/ACK round trip)."""
        return self._open(sim, self._alloc_ephemeral(), remote, TcpState.SYN_SENT, 0).key

    def send_data(self, sim: Simulator, key: ConnKey, length: int) -> None:
        """Send `length` octets split into segments no larger than the
        path MTU for the peer."""
        sock = self.sockets.get(key)
        if sock is None or sock.state != TcpState.ESTABLISHED:
            raise ConnectionResetSimError("connection-reset")
        # RFC 1191 section 3: the first estimate of a path's MTU is its first hop's
        route = sim.forwarding[self.node_id].get(sock.remote[0])
        mtu = min(self.pmtu.get(sock.remote[0]), route[1].mtu if route else wire.DEFAULT_MTU)
        mss = mtu - wire.IP_HEADER_LEN - wire.TCP_HEADER_LEN
        remaining = length
        while remaining > 0:
            chunk = min(remaining, mss)
            self._send(sim, sock, PSH_ACK, chunk)
            sock.snd_nxt = seq_add(sock.snd_nxt, chunk)
            remaining -= chunk

    # -- ICMP ---------------------------------------------------------------------

    def _on_frag_needed(self, sim: Simulator, d: Ipv4Datagram, msg: FragNeeded) -> None:
        # the outer source is never validated: any router may emit these
        quote = wire.parse_embedded(msg.embedded)
        if quote is None or quote.src != self.address or quote.protocol is not _TCP:
            sim.record(self.node_id, "drop", "icmp-validation-failed", d)
            return
        sock = self.sockets.get((quote.src_port, quote.dst, quote.dst_port))
        if (
            sock is None
            or sock.state == TcpState.CLOSED
            or not seq_in_range(quote.seq, sock.snd_una, sock.snd_nxt)
        ):
            sim.record(self.node_id, "drop", "icmp-validation-failed", d)
            return
        self.pmtu.shrink(quote.dst, msg.next_hop_mtu)

    def _on_echo_reply(self, sim: Simulator, d: Ipv4Datagram) -> None:
        if self.vantage:
            self.arrivals.append((sim.now, d))

    def _on_fragment(self, sim: Simulator, d: Ipv4Datagram) -> None:
        if self.vantage:
            self.arrivals.append((sim.now, d))
        super()._on_fragment(sim, d)

    # -- TCP -------------------------------------------------------------------------

    def _on_tcp(self, sim: Simulator, d: Ipv4Datagram, seg: TcpSegment) -> None:
        if self.vantage:
            self.arrivals.append((sim.now, d))
        sock = self.sockets.get((seg.dst_port, d.src, seg.src_port))
        flags = seg.flags._value_

        if sock is None or sock.state == TcpState.CLOSED:
            if sock is None and flags & SYN_BIT and not flags & ACK_BIT:
                if seg.dst_port in self.listeners:
                    remote = (d.src, seg.src_port)
                    self._open(sim, seg.dst_port, remote, TcpState.ESTABLISHED, seq_add(seg.seq, 1))
                    return
            self._reflect_reset(sim, d, seg)
            return

        if flags & RST_BIT:
            # exact-sequence acceptance only: a robust stack discards the rest
            if sock.state == TcpState.ESTABLISHED and seg.seq == sock.rcv_nxt:
                sock.reset_record = (sim.now, seg.seq, sock.rcv_nxt, d.src)
                sock.state = TcpState.CLOSED
            return

        if sock.state == TcpState.SYN_SENT:
            if flags & SYN_BIT and flags & ACK_BIT and seg.ack == sock.snd_nxt:
                sock.rcv_nxt = seq_add(seg.seq, 1)
                sock.snd_una = seg.ack
                sock.state = TcpState.ESTABLISHED
                self._send(sim, sock, _ACK)
            return

        if seg.seq == sock.rcv_nxt:
            if flags & ACK_BIT and seq_in_range(seg.ack, sock.snd_una, seq_add(sock.snd_nxt, 1)):
                sock.snd_una = seg.ack
            if seg.payload_length > 0:
                sock.rcv_nxt = seq_add(sock.rcv_nxt, seg.payload_length)
                if not self.vantage:
                    self._send(sim, sock, _ACK)
            return

        if flags & PSH_BIT and flags & ACK_BIT:
            # out-of-window PUSH/ACK: fast-retransmit style duplicate ACK,
            # whose ack field necessarily exposes rcv_nxt
            if self.profile.emits_dup_ack_on_stray_push_ack:
                self.dup_acks_sent += 1
                sock.last_dup_ack = sock.rcv_nxt
                self._send(sim, sock, _ACK)

    # -- helpers ------------------------------------------------------------------

    def _open(
        self, sim: Simulator, port: int, remote: tuple[str, int], state: str, rcv_nxt: int
    ) -> Socket:
        """Create a socket with a fresh ISN and send its SYN: a bare SYN
        for an active open, a SYN/ACK for an accepted one."""
        isn = self._rng.getrandbits(32)
        sock = Socket(port, remote, state, snd_una=isn, snd_nxt=seq_add(isn, 1), rcv_nxt=rcv_nxt)
        self.sockets[sock.key] = sock
        flags = TcpFlag.SYN if state == TcpState.SYN_SENT else SYN_ACK
        self._send(sim, sock, flags, seq=isn)
        return sock

    def _send(
        self, sim: Simulator, sock: Socket, flags: TcpFlag, length: int = 0, seq: int | None = None
    ) -> None:
        """Send one segment on sock, at snd_nxt unless seq is given; built
        store-only, from the socket's ports and its numbers modulo 2**32, as
        _reflect_reset builds its reset."""
        seq = sock.snd_nxt if seq is None else seq
        ident = self._ip_ident = (self._ip_ident + 1) % 0x10000
        sim.send_from(self.node_id, tcp_packet(self.address, sock.remote[0], sock.local_port, sock.remote[1],
                                               seq, sock.rcv_nxt, flags, length, ident, True))

    def _alloc_ephemeral(self) -> int:
        lo, hi = self.ephemeral_range
        # checked before any draw, so a failed open leaves the seeded stream alone
        if len(self._used_ports) > hi - lo:
            raise PortsExhaustedError("ports-exhausted")
        port = pick_port(self._rng, lo, hi, self._used_ports)
        self._used_ports.add(port)
        return port

    # -- queries used by orchestrators ---------------------------------------------

    def socket(self, key: ConnKey) -> Socket | None:
        return self.sockets.get(key)

    def state(self, key: ConnKey) -> str:
        """The socket's state; CLOSED when there is no such socket."""
        sock = self.sockets.get(key)
        return sock.state if sock else TcpState.CLOSED

    def observations_after(self, tick: int, src: str) -> list[tuple[int, Ipv4Datagram]]:
        """The logged arrivals from `src` after `tick`, fragments included, as (tick, datagram)."""
        return [(t, d) for t, d in self.arrivals if t > tick and d.src == src]
