"""The NAT device model.

A NatBox rewrites outbound client traffic to its public address, keeps a
session-mapping table keyed both by internal tuple and by external port,
translates inbound packets and ICMP errors back, and answers pings to the
public address itself.  A TCP segment addressed to the device goes
straight to _on_tcp, which translates it; the rest takes the IpNode
dispatch the device shares with Host: _on_frag_needed translates, and an
echo reply is a no-mapping drop.  The policy axes decide whether the
device is vulnerable: how it reacts to inbound RSTs, what it does with
unmapped inbound segments, how external ports are allocated, and whether
its own path-MTU cache follows translated Fragmentation Needed messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import wire
from .endpoint import DEFAULT_RCV_WND, IpNode, lowest_free_port, pick_port
from .fabric import Simulator, derive_rng
from .wire import (
    ACK_BIT,
    RST_BIT,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpSegment,
    seq_add,
    seq_in_range,
    tcp_packet,
)


class RstHandling(Enum):
    VULNERABLE_REMOVE = "vulnerable-remove"
    FORWARD_ONLY = "forward-only"
    STRICT_VALIDATE = "strict-validate"


class UnmappedInbound(Enum):
    RST_REPLY = "rst-reply"
    SILENT_DROP = "silent-drop"


class PortAllocation(Enum):
    PRESERVING = "preserving"
    SEQUENTIAL = "sequential"
    SEEDED_RANDOM = "seeded-random"


class PmtudSync(Enum):
    LEAKY_SIDE_CHANNEL = "leaky"
    SYNCHRONIZED = "synchronized"


@dataclass(frozen=True)
class NatPolicy:
    rst_handling: RstHandling = RstHandling.VULNERABLE_REMOVE
    require_ack_on_rst: bool = False
    unmapped_inbound: UnmappedInbound = UnmappedInbound.RST_REPLY
    port_allocation: PortAllocation = PortAllocation.SEQUENTIAL
    sequential_start: int = 1024
    pmtud_sync: PmtudSync = PmtudSync.LEAKY_SIDE_CHANNEL

    def __post_init__(self):
        wire.check_range("sequential_start", self.sequential_start, 0, 0x10000)

    def summary(self) -> str:
        bits = [
            self.rst_handling.value,
            self.unmapped_inbound.value,
            self.port_allocation.value,
            self.pmtud_sync.value,
        ]
        if self.require_ack_on_rst:
            bits.insert(1, "ack-checked")
        return "/".join(bits)


# Enum members read per packet: through the class, each read costs several times a global
_TCP = Protocol.TCP
_VULNERABLE_REMOVE = RstHandling.VULNERABLE_REMOVE
_FORWARD_ONLY = RstHandling.FORWARD_ONLY
_STRICT_VALIDATE = RstHandling.STRICT_VALIDATE
_SILENT_DROP = UnmappedInbound.SILENT_DROP


@dataclass
class NatMapping:
    internal: tuple[str, int]
    external_port: int
    remote: tuple[str, int]
    # acceptable server->client sequence window, tracked under strict
    # validation only
    inbound_seq_window: tuple[int, int] | None = None


class NatBox(IpNode):
    """Session-mapping NAT attached to one simulator node."""

    MIN_PORT = 1024

    def __init__(
        self,
        node_id: str,
        public_ip: str,
        policy: NatPolicy,
        internal_addrs: set[str],
        *,
        seed: int = 0,
    ):
        super().__init__(node_id, public_ip)
        self.policy = policy
        self.internal_addrs = set(internal_addrs)
        self.by_internal: dict[tuple, NatMapping] = {}
        self.by_external: dict[tuple, NatMapping] = {}
        self.mappings_removed_by_rst = 0
        self._rng = derive_rng(seed, "nat", node_id)
        self._next_sequential = policy.sequential_start
        self._used_ports: set[int] = set()

    # -- fabric handler (sees every packet crossing the node) --------------------

    def on_datagram(self, sim: Simulator, node: str, d: Ipv4Datagram) -> None:
        if d.dst == self.address:
            # a sweep's kind, TCP, skips the shared dispatch and its frame
            p = d.payload
            if type(p) is TcpSegment:
                self._on_tcp(sim, d, p)
            else:
                IpNode.on_datagram(self, sim, node, d)
        elif d.src in self.internal_addrs:
            self._outbound(sim, d)
        else:
            sim.record(self.node_id, "drop", "no-route", d)

    # -- outbound -----------------------------------------------------------------

    def _outbound(self, sim: Simulator, d: Ipv4Datagram) -> None:
        if d.protocol is not _TCP or not isinstance(d.payload, TcpSegment):
            sim.record(self.node_id, "drop", "unsupported-outbound", d)
            return
        seg = d.payload
        key = ((d.src, seg.src_port), (d.dst, seg.dst_port))
        mapping = self.by_internal.get(key)
        if mapping is None:
            port = self._allocate_port(seg.src_port)
            if port is None:
                sim.record(self.node_id, "drop", "nat-ports-exhausted", d)
                return
            mapping = NatMapping(
                internal=(d.src, seg.src_port),
                external_port=port,
                remote=(d.dst, seg.dst_port),
            )
            self._insert(mapping)
        if self.policy.rst_handling is _STRICT_VALIDATE and seg.flags._value_ & ACK_BIT:
            mapping.inbound_seq_window = (seg.ack, seq_add(seg.ack, DEFAULT_RCV_WND))
        self._translate(sim, d, seg, (self.address, mapping.external_port), (d.dst, seg.dst_port))

    # -- inbound ------------------------------------------------------------------

    def _on_tcp(self, sim: Simulator, d: Ipv4Datagram, seg: TcpSegment) -> None:
        mapping = self.by_external.get((seg.dst_port, (d.src, seg.src_port)))
        flags = seg.flags._value_
        if mapping is None:
            silent = self.policy.unmapped_inbound is _SILENT_DROP
            if flags & RST_BIT or silent:
                sim.record(self.node_id, "drop", "no-mapping", d)
            else:
                self._reflect_reset(sim, d, seg)
            return
        if flags & RST_BIT and not self._on_inbound_rst(sim, d, seg, mapping):
            return
        self._translate(sim, d, seg, (d.src, seg.src_port), mapping.internal)

    def _on_inbound_rst(
        self, sim: Simulator, d: Ipv4Datagram, seg: TcpSegment, mapping: NatMapping
    ) -> bool:
        """Apply the RST-handling policy; returns True when the segment
        should still be forwarded to the internal client."""
        policy = self.policy.rst_handling
        if policy is _FORWARD_ONLY:
            return True
        if policy is _VULNERABLE_REMOVE:
            if self.policy.require_ack_on_rst and not seg.flags._value_ & ACK_BIT:
                return True
            self._remove(mapping)
            return True
        # strict validation: only an in-window sequence number may remove
        window = mapping.inbound_seq_window
        if window is not None and seq_in_range(seg.seq, window[0], seq_add(window[1], 1)):
            self._remove(mapping)
            return True
        sim.record(self.node_id, "drop", "rst-out-of-window", d)
        return False

    def _translate(
        self, sim: Simulator, d: Ipv4Datagram, seg: TcpSegment, src: tuple, dst: tuple
    ) -> None:
        """Forward a TCP datagram rewritten to the (address, port) pairs
        src and dst, keeping everything else.  Only a whole datagram gets
        here (a fragment carries bytes), so the copy is built store-only
        from the checked d and seg and a mapping's ports."""
        sim.forward_from(self.node_id, tcp_packet(src[0], dst[0], src[1], dst[1], seg.seq, seg.ack,
                                                  seg.flags, seg.payload_length, d.identification, d.df))

    # -- ICMP ------------------------------------------------------------------------

    def _on_frag_needed(self, sim: Simulator, d: Ipv4Datagram, msg: FragNeeded) -> None:
        quote = wire.parse_embedded(msg.embedded)
        if quote is None or quote.src != self.address:
            sim.record(self.node_id, "drop", "icmp-no-mapping", d)
            return
        mapping = self.by_external.get((quote.src_port, (quote.dst, quote.dst_port)))
        if mapping is None:
            sim.record(self.node_id, "drop", "icmp-no-mapping", d)
            return
        if self.policy.pmtud_sync is PmtudSync.SYNCHRONIZED:
            # countermeasure: keep the device's own path MTU in step with
            # what the internal client is told
            self.pmtu.shrink(quote.dst, msg.next_hop_mtu)
        rewritten = wire.rewrite_embedded_source(
            msg.embedded, mapping.internal[0], mapping.internal[1]
        )
        sim.forward_from(
            self.node_id,
            Ipv4Datagram(
                src=d.src,
                dst=mapping.internal[0],
                protocol=Protocol.ICMP,
                payload=FragNeeded(next_hop_mtu=msg.next_hop_mtu, embedded=rewritten),
                identification=d.identification,
            ),
        )

    def _on_echo_reply(self, sim: Simulator, d: Ipv4Datagram) -> None:
        sim.record(self.node_id, "drop", "no-mapping", d)

    # -- table maintenance ---------------------------------------------------------

    def _insert(self, mapping: NatMapping) -> None:
        self.by_internal[(mapping.internal, mapping.remote)] = mapping
        self.by_external[(mapping.external_port, mapping.remote)] = mapping
        self._used_ports.add(mapping.external_port)

    def _remove(self, mapping: NatMapping) -> None:
        del self.by_internal[(mapping.internal, mapping.remote)]
        del self.by_external[(mapping.external_port, mapping.remote)]
        self._used_ports.discard(mapping.external_port)
        self.mappings_removed_by_rst += 1

    def _allocate_port(self, internal_port: int) -> int | None:
        alloc = self.policy.port_allocation
        if alloc is PortAllocation.PRESERVING:
            if internal_port >= self.MIN_PORT and internal_port not in self._used_ports:
                return internal_port
            return lowest_free_port(self._used_ports, self.MIN_PORT, 0xFFFF)
        if alloc is PortAllocation.SEQUENTIAL:
            port = lowest_free_port(self._used_ports, self.MIN_PORT, 0xFFFF, self._next_sequential)
            if port is not None:
                self._next_sequential = port + 1
            return port
        return pick_port(self._rng, self.MIN_PORT, 0xFFFF, self._used_ports)
