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
from typing import ClassVar, Iterable

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


class MalformedPacketError(WireError):
    """Buffer is truncated or internally inconsistent."""


class Protocol(Enum):
    TCP = 6
    ICMP = 1


# the bits of the TCP flags octet, as plain ints.  A per-packet flag test reads
# the member's own int, `seg.flags._value_ & RST_BIT`: about a third of the
# cost of `int(seg.flags) & RST_BIT`, a tenth of `TcpFlag.RST in seg.flags`
# and a thirtieth of `seg.flags & RST_BIT`, an IntFlag operation.  A
# segment's flags are always a TcpFlag: the checked constructor coerces an int
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


# TcpSegment and Ipv4Datagram each have one checked constructor, the
# generated one, with its checks in __post_init__.  The store-only
# tcp_packet (below Ipv4Datagram) is the fast path, with no checks: it
# builds a whole TCP datagram in one call, filling a writable twin of each
# class, one with the same slots and no frozen __setattr__, by plain
# attribute stores, then setting its __class__ to the real one (CPython
# allows that between classes of one layout), so the results are ordinary
# frozen instances.  Use it only for fields that a checked object or a
# loaded AttackPlan already vouches for, with TcpFlag flags.
@dataclass(frozen=True, slots=True)
class TcpSegment:
    """A TCP segment; only the payload length is modeled, not its bytes."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: TcpFlag = TcpFlag(0)
    payload_length: int = 0

    def __post_init__(self):
        if not 0 <= self.src_port <= 0xFFFF or not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError("port out of range")
        if self.payload_length < 0:
            raise ValueError("negative payload length")
        # the flags octet, stored as a TcpFlag whatever int it came as
        check_range("flags", self.flags, 0, 0x100)
        object.__setattr__(self, "flags", TcpFlag(self.flags))

    @property
    def wire_payload_length(self) -> int:
        return TCP_HEADER_LEN + self.payload_length

    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload plus SYN/FIN."""
        n = self.payload_length
        flags = self.flags._value_
        if flags & SYN_BIT:
            n += 1
        if flags & FIN_BIT:
            n += 1
        return n


class _TcpSegmentFields:
    __slots__ = TcpSegment.__slots__


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


@dataclass(frozen=True, slots=True)
class Ipv4Datagram:
    src: str
    dst: str
    protocol: Protocol
    payload: Payload
    identification: int = 0
    df: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-octet units

    def __post_init__(self):
        if self.df and (self.more_fragments or self.fragment_offset):
            raise ValueError("DF datagram cannot be a fragment")
        if self.fragment_offset < 0:
            raise ValueError("negative fragment offset")
        if not 0 <= self.identification <= 0xFFFF:
            raise ValueError("identification out of range")
        if isinstance(self.payload, TcpSegment):
            if self.protocol is not _TCP:
                raise ValueError("TCP payload on non-TCP datagram")
        elif isinstance(self.payload, IcmpMessage) and self.protocol is not _ICMP:
            raise ValueError("ICMP payload on non-ICMP datagram")

    @property
    def total_length(self) -> int:
        # every payload class reports its own octet count; a fragment's
        # payload is its raw bytes
        p = self.payload
        if isinstance(p, bytes):
            return IP_HEADER_LEN + len(p)
        return IP_HEADER_LEN + p.wire_payload_length


class _Ipv4DatagramFields:
    __slots__ = Ipv4Datagram.__slots__


_new = object.__new__


def tcp_packet(
    src: str, dst: str, src_port: int, dst_port: int, seq: int, ack: int, flags: TcpFlag,
    payload_length: int, identification: int, df: bool,
) -> Ipv4Datagram:
    """Ipv4Datagram(src, dst, Protocol.TCP, TcpSegment(src_port, dst_port,
    seq, ack, flags, payload_length), identification, df), a whole
    datagram, without the checks."""
    seg = _new(_TcpSegmentFields)
    seg.src_port = src_port
    seg.dst_port = dst_port
    seg.seq = seq
    seg.ack = ack
    seg.flags = flags
    seg.payload_length = payload_length
    seg.__class__ = TcpSegment
    d = _new(_Ipv4DatagramFields)
    d.src = src
    d.dst = dst
    d.protocol = _TCP
    d.payload = seg
    d.identification = identification
    d.df = df
    d.more_fragments = False
    d.fragment_offset = 0
    d.__class__ = Ipv4Datagram
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


def reassemble(frags: Iterable[Ipv4Datagram]) -> Ipv4Datagram | None:
    """The original datagram of a fragment group (one source, destination,
    protocol and identification), or None while the group is incomplete.

    reassemble(fragment(d, m)) == d for every valid m.  The group is
    complete when its pieces, sorted by offset, tile the body with no hole
    or overlap and only the last one has more-fragments clear; a lone
    piece at offset 0 with it clear is a complete group of one.  Raises
    MalformedPacketError when the whole does not fit or does not decode.
    """
    ordered = sorted(frags, key=lambda f: f.fragment_offset)
    parts = []
    pos = 0
    more = True  # an empty group has no final piece
    for f in ordered:
        if not more or f.fragment_offset * 8 != pos:
            return None  # a hole, an overlap, or a piece past the final one
        raw = encode_payload(f)
        parts.append(raw)
        pos += len(raw)
        more = f.more_fragments
    if more:
        return None
    _check_total(pos)
    # the group shares the first piece's addresses, protocol and identification
    first = ordered[0]
    return replace(first, payload=_decode_body(first.protocol, b"".join(parts)), more_fragments=False,
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
            p.flags._value_,
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
        flags=flags,
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
