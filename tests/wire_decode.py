"""The whole-datagram decoder: the round-trip oracle of `wire.encode`.

natsim never parses a whole datagram from octets; reassembly decodes only
the transport body, through `wire._decode_body`.  The codec properties in
`test_wire.py` check `encode` against this decoder, and it rejects every
malformed header with `MalformedPacketError`.
"""

from __future__ import annotations

from ipaddress import IPv4Address

from natsim.wire import (
    _IP_STRUCT,
    IP_HEADER_LEN,
    Ipv4Datagram,
    MalformedPacketError,
    Protocol,
    _decode_body,
)


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
