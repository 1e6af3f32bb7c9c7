"""Wire-level packet model: IPv4 datagrams carrying TCP or ICMP, with
RFC 791 fragmentation/reassembly and a canonical big-endian byte codec.

Everything in this module is a plain value: pure functions over frozen
dataclasses, safe to share across threads.  No checksums, no IP/TCP
options, no TTL handling; headers are fixed at 20 octets each.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import Enum, IntFlag
from ipaddress import IPv4Address
from typing import ClassVar

IP_HEADER_LEN = 20
TCP_HEADER_LEN = 20
ICMP_HEADER_LEN = 8
MIN_MTU = 68  # IPv4 floor
EMBEDDED_QUOTE_LEN = 28  # embedded IP header + first 8 transport octets
DEFAULT_MTU = 1500
SEQ_MOD = 1 << 32


class WireError(Exception):
    """Base class for packet-model errors."""


class NeedsFragmentationError(WireError):
    """DF-set datagram exceeds the given MTU; caller should drop and
    report ICMP Fragmentation Needed."""

    def __init__(self, mtu: int):
        super().__init__(f"needs-fragmentation: datagram exceeds mtu {mtu} with DF set")
        self.mtu = mtu


class IncompleteGroupError(WireError):
    """Fragment offsets leave a gap or overlap."""


class MixedGroupError(WireError):
    """Fragments from different datagrams were mixed."""


class MalformedPacketError(WireError):
    """Buffer is truncated or internally inconsistent."""


class Protocol(Enum):
    TCP = 6
    ICMP = 1


# the bits of the TCP flags octet, as plain ints: `int(seg.flags) & RST_BIT`
# costs a fraction of `TcpFlag.RST in seg.flags` on the per-packet paths
FIN_BIT = 0x01
SYN_BIT = 0x02
RST_BIT = 0x04
PSH_BIT = 0x08
ACK_BIT = 0x10


class TcpFlag(IntFlag):
    # values match the wire bit layout of the TCP flags octet
    FIN = FIN_BIT
    SYN = SYN_BIT
    RST = RST_BIT
    PSH = PSH_BIT
    ACK = ACK_BIT


# the flag pairs sent per segment, built once: an IntFlag `|` costs about
# as much as building the TcpSegment
PSH_ACK = TcpFlag.PSH | TcpFlag.ACK
RST_ACK = TcpFlag.RST | TcpFlag.ACK
SYN_ACK = TcpFlag.SYN | TcpFlag.ACK


def seq_add(a: int, b: int) -> int:
    return (a + b) % SEQ_MOD


def seq_in_range(seq: int, lo: int, hi: int) -> bool:
    """True when seq lies in the modular half-open interval [lo, hi)."""
    return (seq - lo) % SEQ_MOD < (hi - lo) % SEQ_MOD


def check_range(field: str, value: int, low: int, stop: int | None = None) -> None:
    """Raise ValueError, its message starting with `field`, unless
    low <= value, and value < stop when a stop is given."""
    if stop is None and value < low:
        raise ValueError(f"{field}: {value} is below the minimum {low}")
    if stop is not None and not low <= value < stop:
        raise ValueError(f"{field}: {value} is outside [{low}, {stop})")


def check_port_range(field: str, ports: tuple[int, int]) -> None:
    """Raise ValueError unless `ports` is a non-empty [lo, hi] of TCP ports."""
    lo, hi = ports
    if lo > hi or lo < 0 or hi > 0xFFFF:
        raise ValueError(f"{field}: range [{lo}, {hi}] empty or out of bounds")


# TcpSegment and Ipv4Datagram are built once per packet, so each has two
# constructors.  The hand-written __init__ checks its fields, then makes one
# store per field through the slot descriptor's __set__ (fetched once, below
# the class), where the generated frozen __init__ calls object.__setattr__
# per field.  The store-only tcp_segment and tcp_datagram (below
# Ipv4Datagram) make the same stores with no checks: use them only for
# fields that a checked object or a loaded AttackPlan already vouches for.
@dataclass(frozen=True, slots=True, init=False)
class TcpSegment:
    """A TCP segment; only the payload length is modeled, not its bytes."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: TcpFlag = TcpFlag(0)
    payload_length: int = 0

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int = 0,
        flags: TcpFlag = TcpFlag(0),
        payload_length: int = 0,
    ):
        if not 0 <= src_port <= 0xFFFF or not 0 <= dst_port <= 0xFFFF:
            raise ValueError("port out of range")
        if payload_length < 0:
            raise ValueError("negative payload length")
        _set_src_port(self, src_port)
        _set_dst_port(self, dst_port)
        _set_seq(self, seq)
        _set_ack(self, ack)
        _set_flags(self, flags)
        _set_payload_length(self, payload_length)

    @property
    def wire_payload_length(self) -> int:
        return TCP_HEADER_LEN + self.payload_length

    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload plus SYN/FIN."""
        n = self.payload_length
        flags = int(self.flags)
        if flags & SYN_BIT:
            n += 1
        if flags & FIN_BIT:
            n += 1
        return n


_set_src_port = TcpSegment.src_port.__set__
_set_dst_port = TcpSegment.dst_port.__set__
_set_seq = TcpSegment.seq.__set__
_set_ack = TcpSegment.ack.__set__
_set_flags = TcpSegment.flags.__set__
_set_payload_length = TcpSegment.payload_length.__set__


@dataclass(frozen=True, slots=True)
class Echo:
    """An ICMP echo; its subclass fixes the type (8 request, 0 reply), and
    a request and a reply with equal fields compare unequal."""

    ident: int
    seq_no: int
    padding_length: int = 0

    icmp_type: ClassVar[int]

    @property
    def wire_payload_length(self) -> int:
        return ICMP_HEADER_LEN + self.padding_length


class EchoRequest(Echo):
    __slots__ = ()
    icmp_type = 8


class EchoReply(Echo):
    __slots__ = ()
    icmp_type = 0


@dataclass(frozen=True, slots=True)
class FragNeeded:
    """ICMP type 3 / code 4 carrying the next-hop MTU and the first 28
    octets of the offending datagram."""

    next_hop_mtu: int
    embedded: bytes

    wire_payload_length: ClassVar[int] = ICMP_HEADER_LEN + EMBEDDED_QUOTE_LEN

    def __post_init__(self):
        if len(self.embedded) != EMBEDDED_QUOTE_LEN:
            raise ValueError("embedded quote must be exactly 28 octets")


IcmpMessage = Echo | FragNeeded
Payload = TcpSegment | Echo | FragNeeded | bytes
# for the datagram checks: reading an Enum member costs several times a global
_TCP = Protocol.TCP
_ICMP = Protocol.ICMP


@dataclass(frozen=True, slots=True, init=False)
class Ipv4Datagram:
    src: str
    dst: str
    protocol: Protocol
    payload: Payload
    identification: int = 0
    df: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-octet units

    def __init__(
        self,
        src: str,
        dst: str,
        protocol: Protocol,
        payload: Payload,
        identification: int = 0,
        df: bool = False,
        more_fragments: bool = False,
        fragment_offset: int = 0,
    ):
        if df and (more_fragments or fragment_offset):
            raise ValueError("DF datagram cannot be a fragment")
        if fragment_offset < 0:
            raise ValueError("negative fragment offset")
        if not 0 <= identification <= 0xFFFF:
            raise ValueError("identification out of range")
        if isinstance(payload, TcpSegment):
            if protocol is not _TCP:
                raise ValueError("TCP payload on non-TCP datagram")
        elif isinstance(payload, IcmpMessage) and protocol is not _ICMP:
            raise ValueError("ICMP payload on non-ICMP datagram")
        _set_src(self, src)
        _set_dst(self, dst)
        _set_protocol(self, protocol)
        _set_payload(self, payload)
        _set_identification(self, identification)
        _set_df(self, df)
        _set_more_fragments(self, more_fragments)
        _set_fragment_offset(self, fragment_offset)

    @property
    def total_length(self) -> int:
        # every payload class reports its own octet count; a fragment's
        # payload is its raw bytes
        p = self.payload
        if isinstance(p, bytes):
            return IP_HEADER_LEN + len(p)
        return IP_HEADER_LEN + p.wire_payload_length

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.fragment_offset > 0

    def group_key(self) -> tuple:
        return (self.src, self.dst, self.protocol, self.identification)


_set_src = Ipv4Datagram.src.__set__
_set_dst = Ipv4Datagram.dst.__set__
_set_protocol = Ipv4Datagram.protocol.__set__
_set_payload = Ipv4Datagram.payload.__set__
_set_identification = Ipv4Datagram.identification.__set__
_set_df = Ipv4Datagram.df.__set__
_set_more_fragments = Ipv4Datagram.more_fragments.__set__
_set_fragment_offset = Ipv4Datagram.fragment_offset.__set__
_new = object.__new__


def tcp_segment(
    src_port: int, dst_port: int, seq: int, ack: int, flags: TcpFlag, payload_length: int
) -> TcpSegment:
    """TcpSegment(src_port, dst_port, seq, ack, flags, payload_length),
    without its checks."""
    seg = _new(TcpSegment)
    _set_src_port(seg, src_port)
    _set_dst_port(seg, dst_port)
    _set_seq(seg, seq)
    _set_ack(seg, ack)
    _set_flags(seg, flags)
    _set_payload_length(seg, payload_length)
    return seg


def tcp_datagram(src: str, dst: str, seg: TcpSegment, identification: int, df: bool) -> Ipv4Datagram:
    """Ipv4Datagram(src, dst, Protocol.TCP, seg, identification, df), a
    whole datagram, without its checks."""
    d = _new(Ipv4Datagram)
    _set_src(d, src)
    _set_dst(d, dst)
    _set_protocol(d, _TCP)
    _set_payload(d, seg)
    _set_identification(d, identification)
    _set_df(d, df)
    _set_more_fragments(d, False)
    _set_fragment_offset(d, 0)
    return d


def frag_cap(mtu: int) -> int:
    """Largest 8-aligned fragment payload for an MTU (RFC 791 arithmetic)."""
    return ((mtu - IP_HEADER_LEN) // 8) * 8


def fragment(d: Ipv4Datagram, mtu: int) -> list[Ipv4Datagram]:
    """Split a datagram into fragments that each fit within mtu.

    A fitting datagram is returned unchanged as a one-element list.  All
    fragments except the last carry the maximal 8-octet-aligned payload
    frag_cap(mtu); offsets are contiguous and the identification is
    preserved, so the pieces reassemble to the original.  Fragments of
    fragments are supported: offsets accumulate and the final piece
    inherits the parent's more-fragments bit.
    """
    if mtu < MIN_MTU:
        raise ValueError(f"mtu {mtu} below IPv4 floor {MIN_MTU}")
    if d.total_length <= mtu:
        return [d]
    if d.df:
        raise NeedsFragmentationError(mtu)
    raw = encode_payload(d)
    _check_total(len(raw))
    cap = frag_cap(mtu)
    frags = []
    pos = 0
    while pos < len(raw):
        piece = raw[pos : pos + cap]
        last = pos + len(piece) >= len(raw)
        frags.append(
            replace(
                d,
                payload=piece,
                more_fragments=(not last) or d.more_fragments,
                fragment_offset=d.fragment_offset + pos // 8,
                df=False,
            )
        )
        pos += len(piece)
    return frags


def reassemble(frags: list[Ipv4Datagram]) -> Ipv4Datagram:
    """Reconstruct the original datagram from a complete fragment group.

    reassemble(fragment(d, m)) == d for every valid m.  Raises
    MixedGroupError when identifications differ, IncompleteGroupError
    on gaps, overlaps, or a missing final fragment, and
    MalformedPacketError when the whole does not fit or does not decode.
    """
    if not frags:
        raise IncompleteGroupError("empty fragment group")
    key = frags[0].group_key()
    for f in frags[1:]:
        if f.group_key() != key:
            raise MixedGroupError(f"mixed-group: {f.group_key()} vs {key}")
    if len(frags) == 1 and not frags[0].is_fragment:
        return frags[0]
    ordered = sorted(frags, key=lambda f: f.fragment_offset)
    finals = [f for f in ordered if not f.more_fragments]
    if len(finals) != 1 or finals[0] is not ordered[-1]:
        raise IncompleteGroupError("incomplete-group: final fragment missing or misplaced")
    pos = 0
    parts = []
    for f in ordered:
        if f.fragment_offset * 8 != pos:
            raise IncompleteGroupError(f"incomplete-group: hole or overlap at offset {pos}")
        raw = encode_payload(f)
        parts.append(raw)
        pos += len(raw)
    combined = b"".join(parts)
    _check_total(len(combined))
    # the first fragment carries MF, so it is not DF; the group shares its
    # addresses, protocol and identification
    first = ordered[0]
    return replace(first, payload=_decode_body(first.protocol, combined), more_fragments=False,
                   fragment_offset=0)


# --- codec -----------------------------------------------------------------

_ECHO_TYPES = {cls.icmp_type: cls for cls in (EchoRequest, EchoReply)}

_IP_STRUCT = struct.Struct(">BBHHHBBH4s4s")
_TCP_STRUCT = struct.Struct(">HHIIBBHHH")


def _check_total(body_length: int) -> int:
    """The total length of a datagram with this many octets after its
    header; MalformedPacketError when it does not fit the 16-bit field."""
    total = IP_HEADER_LEN + body_length
    if total > 0xFFFF:
        raise MalformedPacketError("total length exceeds 16 bits")
    return total


def encode_payload(d: Ipv4Datagram) -> bytes:
    p = d.payload
    if isinstance(p, bytes):
        return p
    if isinstance(p, TcpSegment):
        head = _TCP_STRUCT.pack(
            p.src_port,
            p.dst_port,
            p.seq,
            p.ack,
            0x50,  # data offset 5 words, no options
            int(p.flags),
            0,
            0,
            0,
        )
        return head + b"\x00" * p.payload_length
    if isinstance(p, Echo):
        head = struct.pack(">BBHHH", p.icmp_type, 0, 0, p.ident, p.seq_no)
        return head + b"\x00" * p.padding_length
    if isinstance(p, FragNeeded):
        # next-hop MTU sits in the low 16 bits of the second header word
        return struct.pack(">BBHHH", 3, 4, 0, 0, p.next_hop_mtu) + p.embedded
    raise TypeError(f"unsupported payload {type(p).__name__}")


def encode(d: Ipv4Datagram) -> bytes:
    """The datagram's octets; addresses take the grammar of
    ipaddress.IPv4Address, as the scenario loader's do."""
    body = encode_payload(d)
    flags_off = d.fragment_offset & 0x1FFF
    if d.df:
        flags_off |= 0x4000
    if d.more_fragments:
        flags_off |= 0x2000
    header = _IP_STRUCT.pack(
        0x45,
        0,
        _check_total(len(body)),
        d.identification,
        flags_off,
        64,
        d.protocol.value,
        0,
        IPv4Address(d.src).packed,
        IPv4Address(d.dst).packed,
    )
    return header + body


def decode(buf: bytes) -> Ipv4Datagram:
    if len(buf) < IP_HEADER_LEN:
        raise MalformedPacketError("malformed-packet: shorter than IP header")
    (ver_ihl, _tos, total, ident, flags_off, _ttl, proto, _cksum, src, dst) = _IP_STRUCT.unpack(
        buf[:IP_HEADER_LEN]
    )
    if ver_ihl != 0x45:
        raise MalformedPacketError("malformed-packet: only IPv4 with 20-octet header supported")
    if total != len(buf):
        raise MalformedPacketError(f"malformed-packet: total length {total} != buffer {len(buf)}")
    try:
        protocol = Protocol(proto)
    except ValueError:
        raise MalformedPacketError(f"malformed-packet: unknown protocol {proto}") from None
    df = bool(flags_off & 0x4000)
    mf = bool(flags_off & 0x2000)
    offset = flags_off & 0x1FFF
    if df and (mf or offset):
        raise MalformedPacketError("malformed-packet: DF datagram cannot be a fragment")
    body = buf[IP_HEADER_LEN:]
    return Ipv4Datagram(
        src=str(IPv4Address(src)),
        dst=str(IPv4Address(dst)),
        protocol=protocol,
        payload=body if mf or offset else _decode_body(protocol, body),
        identification=ident,
        df=df,
        more_fragments=mf,
        fragment_offset=offset,
    )


def _decode_body(protocol: Protocol, body: bytes) -> TcpSegment | IcmpMessage:
    return _decode_tcp(body) if protocol is _TCP else _decode_icmp(body)


def _decode_tcp(body: bytes) -> TcpSegment:
    if len(body) < TCP_HEADER_LEN:
        raise MalformedPacketError("malformed-packet: truncated TCP header")
    sp, dp, seq, ack, off, flags, _wnd, _ck, _urg = _TCP_STRUCT.unpack(body[:TCP_HEADER_LEN])
    if off != 0x50:
        raise MalformedPacketError("malformed-packet: TCP options not supported")
    return TcpSegment(
        src_port=sp,
        dst_port=dp,
        seq=seq,
        ack=ack,
        flags=TcpFlag(flags),
        payload_length=len(body) - TCP_HEADER_LEN,
    )


def _decode_icmp(body: bytes) -> IcmpMessage:
    if len(body) < ICMP_HEADER_LEN:
        raise MalformedPacketError("malformed-packet: truncated ICMP header")
    typ, code, _ck, w1, w2 = struct.unpack(">BBHHH", body[:ICMP_HEADER_LEN])
    rest = body[ICMP_HEADER_LEN:]
    if code == 0 and typ in _ECHO_TYPES:
        return _ECHO_TYPES[typ](ident=w1, seq_no=w2, padding_length=len(rest))
    if typ == 3 and code == 4:
        if w1 != 0:
            raise MalformedPacketError("malformed-packet: nonzero unused field in ICMP error")
        if len(rest) != EMBEDDED_QUOTE_LEN:
            raise MalformedPacketError("malformed-packet: embedded quote must be 28 octets")
        return FragNeeded(next_hop_mtu=w2, embedded=rest)
    raise MalformedPacketError(f"malformed-packet: unsupported ICMP type {typ}/{code}")


# --- embedded quote helpers -------------------------------------------------


@dataclass(frozen=True, slots=True)
class EmbeddedQuote:
    """The parsed view of the 28 octets carried inside a FragNeeded."""

    src: str
    dst: str
    protocol: Protocol
    src_port: int
    dst_port: int
    seq: int


def quote_of(d: Ipv4Datagram) -> bytes:
    """First 28 octets of a datagram as they appear on the wire."""
    return encode(d)[:EMBEDDED_QUOTE_LEN]


def parse_embedded(quote: bytes) -> EmbeddedQuote | None:
    """Decode an embedded quote; returns None when it is not a plausible
    IP header plus transport prefix."""
    if len(quote) != EMBEDDED_QUOTE_LEN:
        return None
    (ver_ihl, _tos, _total, _ident, _fl, _ttl, proto, _ck, src, dst) = _IP_STRUCT.unpack(
        quote[:IP_HEADER_LEN]
    )
    if ver_ihl != 0x45:
        return None
    try:
        protocol = Protocol(proto)
    except ValueError:
        return None
    sp, dp, seq = struct.unpack(">HHI", quote[IP_HEADER_LEN:])
    return EmbeddedQuote(
        src=str(IPv4Address(src)),
        dst=str(IPv4Address(dst)),
        protocol=protocol,
        src_port=sp,
        dst_port=dp,
        seq=seq,
    )


def rewrite_embedded_source(quote: bytes, src: str, src_port: int) -> bytes:
    """Rewrite the source address and port inside an embedded quote,
    preserving every other octet."""
    if len(quote) != EMBEDDED_QUOTE_LEN:
        raise ValueError("embedded quote must be 28 octets")
    return (
        quote[:12]
        + IPv4Address(src).packed
        + quote[16:IP_HEADER_LEN]
        + struct.pack(">H", src_port)
        + quote[22:]
    )
