"""Packet model: fragmentation, reassembly, and the byte codec."""

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from natsim import wire
from natsim.scenario import NodeSpec
from natsim.wire import (
    EchoReply,
    EchoRequest,
    FragNeeded,
    Ipv4Datagram,
    Protocol,
    TcpFlag,
    TcpSegment,
)

from frag_oracle import oracle_split, oracle_wire_sizes, reconcat
from wire_decode import decode


def tcp_datagram(payload=1440, src="1.1.1.1", dst="2.2.2.2", df=False, ident=7):
    return Ipv4Datagram(
        src=src,
        dst=dst,
        protocol=Protocol.TCP,
        payload=TcpSegment(4444, 80, seq=1000, ack=2000, flags=TcpFlag.PSH | TcpFlag.ACK,
                           payload_length=payload),
        identification=ident,
        df=df,
    )


def echo_datagram(padding=1472, df=False):
    return Ipv4Datagram(
        src="1.1.1.1",
        dst="2.2.2.2",
        protocol=Protocol.ICMP,
        payload=EchoReply(5, 1, padding),
        identification=9,
        df=df,
    )


class TestFragment:
    def test_1500_at_600(self):
        d = echo_datagram()
        assert d.total_length == 1500
        frags = wire.fragment(d, 600)
        assert [f.total_length for f in frags] == [596, 596, 348]
        assert [f.total_length for f in frags] == oracle_wire_sizes(1500, 600)
        assert [f.more_fragments for f in frags] == [True, True, False]
        assert [f.fragment_offset for f in frags] == [0, 72, 144]
        assert all(f.identification == d.identification for f in frags)

    def test_fitting_identity(self):
        d = echo_datagram()
        assert wire.fragment(d, 1500) == [d]

    def test_1500_at_1492(self):
        frags = wire.fragment(echo_datagram(), 1492)
        assert [f.total_length for f in frags] == [1492, 28]
        assert [f.total_length for f in frags] == oracle_wire_sizes(1500, 1492)

    def test_df_oversize_raises(self):
        with pytest.raises(wire.NeedsFragmentationError):
            wire.fragment(tcp_datagram(payload=1460, df=True), 600)

    def test_mtu_floor(self):
        with pytest.raises(ValueError):
            wire.fragment(echo_datagram(), 67)

    @given(payload=st.integers(0, 3000), mtu=st.integers(68, 1600))
    @settings(max_examples=150)
    def test_conservation_and_alignment(self, payload, mtu):
        d = echo_datagram(padding=payload)
        frags = wire.fragment(d, mtu)
        assert sum(f.total_length - 20 for f in frags) == d.total_length - 20
        assert all(f.total_length <= mtu for f in frags)
        for f in frags[:-1]:
            assert (f.total_length - 20) % 8 == 0
        if d.total_length <= mtu:
            assert frags == [d]
        # independent re-concatenation of the actual bytes
        payload_bytes = reconcat(
            [(f.fragment_offset * 8, wire.encode(f)[20:]) for f in frags]
        )
        assert payload_bytes == wire.encode(d)[20:]
        assert [(f.fragment_offset * 8, f.total_length - 20) for f in frags] == oracle_split(
            d.total_length, mtu
        )


class TestReassemble:
    def test_round_trip(self):
        d = echo_datagram()
        assert wire.reassemble(wire.fragment(d, 600)) == d

    def test_single_identity(self):
        d = tcp_datagram(payload=100)
        assert wire.reassemble([d]) == d

    def test_nested_refragmentation(self):
        d = echo_datagram()
        first = wire.fragment(d, 600)
        nested = wire.fragment(first[0], 576) + first[1:]
        assert wire.reassemble(nested) == d

    def test_gap_detected(self):
        frags = wire.fragment(echo_datagram(), 600)
        assert wire.reassemble([frags[0], frags[2]]) is None

    def test_missing_final(self):
        frags = wire.fragment(echo_datagram(), 600)
        assert wire.reassemble(frags[:-1]) is None

    def test_empty_group(self):
        assert wire.reassemble([]) is None

    def test_a_piece_past_the_final_one(self):
        """Pieces that tile the body but hold two final pieces, as two
        datagrams under one identification can, are no datagram."""
        first, *rest = wire.fragment(echo_datagram(), 600)
        assert wire.reassemble([dataclasses.replace(first, more_fragments=False), *rest]) is None

    @given(mtu1=st.integers(68, 1500), mtu2=st.integers(68, 1500))
    @settings(max_examples=80)
    def test_two_stage_round_trip(self, mtu1, mtu2):
        d = echo_datagram()
        stage1 = wire.fragment(d, mtu1)
        stage2 = [piece for f in stage1 for piece in wire.fragment(f, mtu2)]
        assert wire.reassemble(stage2) == d

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_subset_reassembles_exactly_when_it_tiles(self, data):
        """Any order of any duplicate-free subset of a datagram's fragments
        and of their refragmented pieces gives the datagram when its pieces
        tile the body, by the independent oracle, and None otherwise."""
        d = tcp_datagram(payload=data.draw(st.integers(0, 2000), label="payload"))
        mtu1, mtu2 = (data.draw(st.integers(68, 1500), label=label) for label in ("mtu1", "mtu2"))
        pieces = wire.fragment(d, mtu1)
        nested = [wire.fragment(f, mtu2) for f in pieces]
        pool = list(dict.fromkeys(pieces + [g for subs in nested for g in subs]))
        # a tiling, each piece whole or refragmented, with any pieces of the
        # pool toggled out of it or into it
        tiling = {g for f, subs in zip(pieces, nested)
                  for g in (subs if data.draw(st.booleans(), label="refragment") else [f])}
        toggled = data.draw(st.sets(st.sampled_from(pool)), label="toggled")
        subset = data.draw(st.permutations([g for g in pool if (g in tiling) != (g in toggled)]),
                           label="order")
        try:
            tiles = reconcat([(g.fragment_offset * 8, wire.encode(g)[20:]) for g in subset]) == \
                wire.encode(d)[20:]
        except AssertionError:  # a hole or an overlap
            tiles = False
        assert wire.reassemble(subset) == (d if tiles else None)


# every value of the flags octet, the five modeled bits and the three above them
flags_st = st.builds(TcpFlag, st.integers(0, 0xFF))
segment_st = st.builds(
    TcpSegment,
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(0, 2**32 - 1),
    flags=flags_st,
    payload_length=st.integers(0, 2000),
)
addr_st = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", *([st.integers(0, 255)] * 4))
icmp_payload_st = st.one_of(
    st.builds(EchoRequest, ident=st.integers(0, 0xFFFF), seq_no=st.integers(0, 0xFFFF),
              padding_length=st.integers(0, 2000)),
    st.builds(EchoReply, ident=st.integers(0, 0xFFFF), seq_no=st.integers(0, 0xFFFF),
              padding_length=st.integers(0, 2000)),
    st.builds(
        FragNeeded,
        next_hop_mtu=st.integers(0, 0xFFFF),
        embedded=st.binary(min_size=28, max_size=28),
    ),
)
payload_st = st.one_of(segment_st, icmp_payload_st)


@st.composite
def datagram_st(draw):
    payload = draw(payload_st)
    protocol = Protocol.TCP if isinstance(payload, TcpSegment) else Protocol.ICMP
    frag = draw(st.booleans())
    if frag:
        payload = draw(st.binary(min_size=0, max_size=256))
        protocol = draw(st.sampled_from(list(Protocol)))
        mf = draw(st.booleans())
        off = draw(st.integers(0, 500))
        if not mf and off == 0:
            off = 1
        return Ipv4Datagram(
            src=draw(addr_st), dst=draw(addr_st), protocol=protocol, payload=payload,
            identification=draw(st.integers(0, 0xFFFF)), more_fragments=mf, fragment_offset=off,
        )
    return Ipv4Datagram(
        src=draw(addr_st), dst=draw(addr_st), protocol=protocol, payload=payload,
        identification=draw(st.integers(0, 0xFFFF)), df=draw(st.booleans()),
    )


def damaged(d, start, end, octets):
    """d's octets with [start, end) replaced by `octets`, total length fixed up."""
    buf = bytearray(wire.encode(d))
    buf[start:end] = octets
    buf[2:4] = len(buf).to_bytes(2, "big")
    return bytes(buf)


FRAG_NEEDED = Ipv4Datagram("9.9.9.9", "6.6.6.6", Protocol.ICMP, FragNeeded(600, bytes(28)))


class TestCodec:
    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: wire.encode_payload(Ipv4Datagram("1.1.1.1", "2.2.2.2", Protocol.TCP, "data")),
                     TypeError, "unsupported payload str", id="unknown-payload"),
        pytest.param(lambda: decode(damaged(tcp_datagram(payload=0), 32, 33, b"\x60")),
                     wire.MalformedPacketError, "TCP options not supported", id="tcp-options"),
        pytest.param(lambda: decode(damaged(echo_datagram(padding=0), 24, 28, b"")),
                     wire.MalformedPacketError, "truncated ICMP header", id="short-icmp"),
        pytest.param(lambda: decode(damaged(FRAG_NEEDED, 24, 25, b"\x01")),
                     wire.MalformedPacketError, "nonzero unused field", id="unused-field"),
        pytest.param(lambda: decode(damaged(FRAG_NEEDED, 56, 56, b"\x00")),
                     wire.MalformedPacketError, "quote must be 28 octets", id="quote-length"),
        pytest.param(lambda: wire.rewrite_embedded_source(bytes(27), "1.1.1.1", 1),
                     ValueError, "quote must be 28 octets", id="rewrite-length"),
    ])
    def test_malformed_input_is_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    @given(datagram_st())
    @settings(max_examples=250)
    def test_round_trip(self, d):
        assert decode(wire.encode(d)) == d

    def test_below_minimum_header(self):
        with pytest.raises(wire.MalformedPacketError):
            decode(b"\x45" + b"\x00" * 9)

    def test_inconsistent_total_length(self):
        buf = bytearray(wire.encode(tcp_datagram(payload=10)))
        buf[2:4] = (9999).to_bytes(2, "big")
        with pytest.raises(wire.MalformedPacketError):
            decode(bytes(buf))

    def test_truncated_transport(self):
        d = tcp_datagram(payload=0)
        buf = wire.encode(d)[:30]
        patched = bytearray(buf)
        patched[2:4] = (30).to_bytes(2, "big")
        with pytest.raises(wire.MalformedPacketError):
            decode(bytes(patched))

    def test_frag_needed_reference_layout(self):
        # hand-built reference: IP header, then ICMP type 3/code 4 with the
        # MTU in the low half of the second word, then the 28-octet quote
        quote = wire.quote_of(tcp_datagram(payload=1440, src="6.6.6.6", dst="8.8.8.8"))
        d = Ipv4Datagram(
            src="9.9.9.9", dst="6.6.6.6", protocol=Protocol.ICMP,
            payload=FragNeeded(next_hop_mtu=600, embedded=quote), identification=3,
        )
        got = wire.encode(d)
        ref = bytes(
            [0x45, 0x00, 0x00, 0x38, 0x00, 0x03, 0x00, 0x00, 0x40, 0x01, 0x00, 0x00,
             9, 9, 9, 9, 6, 6, 6, 6,
             0x03, 0x04, 0x00, 0x00, 0x00, 0x00, 0x02, 0x58]
        ) + quote
        assert got == ref
        assert got[26:28] == (600).to_bytes(2, "big")

    def test_embedded_quote_always_28(self):
        for payload in (0, 5, 1460):
            assert len(wire.quote_of(tcp_datagram(payload=payload))) == 28

    def test_df_fragment_is_malformed(self):
        buf = bytes.fromhex(
            "4500002800005600400600000a0000010a000002000100020000000300000004505f00000000009e"
        )
        with pytest.raises(wire.MalformedPacketError, match="DF datagram cannot be a fragment"):
            decode(buf)

    @given(st.one_of(
        st.binary(max_size=80),
        st.tuples(datagram_st(), st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 255)),
                                          min_size=1, max_size=4)),
    ))
    @settings(max_examples=400)
    def test_decode_raises_only_malformed(self, case):
        # random bytes, or a valid encoding with a few octets overwritten
        if isinstance(case, bytes):
            buf = case
        else:
            d, edits = case
            buf = bytearray(wire.encode(d))
            for pos, value in edits:
                buf[pos % len(buf)] = value
            buf = bytes(buf)
        try:
            decode(buf)
        except wire.MalformedPacketError:
            pass


def largest_echo(padding_extra=0):
    """The fragments, at MTU 1500, of an echo request 65,535 octets long,
    the last one carrying `padding_extra` more octets."""
    d = Ipv4Datagram("1.1.1.1", "2.2.2.2", Protocol.ICMP, EchoRequest(3, 1, 0xFFFF - 28),
                     identification=5)
    *head, last = wire.fragment(d, 1500)
    return d, head + [dataclasses.replace(last, payload=last.payload + bytes(padding_extra))]


class TestTotalLength:
    """The 16-bit total-length field bounds what fragment splits and what
    reassemble puts back together."""

    def test_fragment_over_16_bits_raises(self):
        d = tcp_datagram(payload=0xFFFF - 40 + 1)
        assert d.total_length == 0x10000
        with pytest.raises(wire.MalformedPacketError, match="total length exceeds 16 bits"):
            wire.fragment(d, 1500)

    def test_reassemble_at_the_limit(self):
        d, frags = largest_echo()
        assert d.total_length == 0xFFFF
        assert wire.reassemble(frags) == d

    def test_reassemble_over_16_bits_raises(self):
        _, frags = largest_echo(padding_extra=1)
        assert sum(len(f.payload) for f in frags) == 0xFFFF - 20 + 1
        with pytest.raises(wire.MalformedPacketError, match="total length exceeds 16 bits"):
            wire.reassemble(frags)


# the loader's verdict on each address; the five after the first are
# spellings whose parts int() reads but ipaddress.IPv4Address rejects
ADDRESSES = [
    ("1.2.3.4", True), ("1.2.3.04", False), (" 1.2.3.4", False), ("+1.2.3.4", False),
    ("1_0.0.0.1", False), ("\u0661.2.3.4", False), ("0.0.0.0", True), ("255.255.255.255", True),
    ("10.0.0.1", True), ("1.2.3", False), ("1.2.3.4.5", False), ("256.0.0.1", False),
    ("1.2.3.-4", False), ("a.b.c.d", False), ("", False),
]


@pytest.mark.parametrize("address, valid", ADDRESSES)
def test_codec_takes_the_loader_address_grammar(address, valid):
    """encode, quote_of and rewrite_embedded_source raise ValueError exactly
    for the addresses a scenario's NodeSpec rejects."""
    try:
        NodeSpec("n", "client", address)
    except ValueError:
        assert not valid
    else:
        assert valid
    quote = wire.quote_of(tcp_datagram())
    calls = [
        lambda: decode(wire.encode(tcp_datagram(src=address))).src,
        lambda: decode(wire.encode(tcp_datagram(dst=address))).dst,
        lambda: wire.parse_embedded(wire.quote_of(tcp_datagram(src=address))).src,
        lambda: wire.parse_embedded(wire.rewrite_embedded_source(quote, address, 5555)).src,
    ]
    for call in calls:
        if valid:
            assert call() == address
        else:
            with pytest.raises(ValueError):
                call()


def test_echo_request_and_reply_stay_distinct():
    """The two echo classes share one base but never stand for each other:
    equal fields compare unequal, and the codec and reassembly keep each
    class."""
    request, reply = EchoRequest(5, 1, 1472), EchoReply(5, 1, 1472)
    assert request != reply
    assert not isinstance(request, EchoReply) and not isinstance(reply, EchoRequest)
    for payload in (request, reply):
        d = Ipv4Datagram("1.1.1.1", "2.2.2.2", Protocol.ICMP, payload, identification=4)
        for back in (decode(wire.encode(d)), wire.reassemble(wire.fragment(d, 600))):
            assert type(back.payload) is type(payload)
            assert back == d


class TestEmbedded:
    def test_parse_fields(self):
        d = tcp_datagram(payload=1440, src="6.6.6.6", dst="8.8.8.8")
        q = wire.parse_embedded(wire.quote_of(d))
        assert (q.src, q.dst) == ("6.6.6.6", "8.8.8.8")
        assert (q.src_port, q.dst_port, q.seq) == (4444, 80, 1000)

    def test_rewrite_source(self):
        quote = wire.quote_of(tcp_datagram(src="6.6.6.6", dst="8.8.8.8"))
        out = wire.parse_embedded(wire.rewrite_embedded_source(quote, "10.0.0.2", 5555))
        assert (out.src, out.src_port) == ("10.0.0.2", 5555)
        assert (out.dst, out.dst_port, out.seq) == ("8.8.8.8", 80, 1000)

    def test_garbage_rejected(self):
        assert wire.parse_embedded(b"\x00" * 28) is None
        assert wire.parse_embedded(b"\x45" + b"\x00" * 20) is None
        quote = bytearray(wire.quote_of(tcp_datagram()))
        quote[9] = 99  # no protocol the model knows
        assert wire.parse_embedded(bytes(quote)) is None


class TestSeqArithmetic:
    def test_in_range(self):
        assert wire.seq_in_range(5, 5, 10)
        assert not wire.seq_in_range(10, 5, 10)
        assert wire.seq_in_range(2, 2**32 - 5, 10)  # wraps
        assert not wire.seq_in_range(100, 7, 7)  # empty window

    def test_invariant_violations_raise(self):
        with pytest.raises(ValueError):
            Ipv4Datagram("1.1.1.1", "2.2.2.2", Protocol.ICMP, EchoReply(1, 1, 0),
                         df=True, more_fragments=True)
        with pytest.raises(ValueError):
            FragNeeded(600, b"\x00" * 27)

    def test_flags_are_stored_as_a_tcpflag(self):
        seg = TcpSegment(1, 2, 3, flags=20)
        assert type(seg.flags) is TcpFlag and seg.flags == TcpFlag.RST | TcpFlag.ACK
        assert type(TcpSegment(1, 2, 3, flags=0xFF).flags) is TcpFlag

    @pytest.mark.parametrize("flags", [-1, 0x100, TcpFlag(0x100), 0x10000])
    def test_flags_outside_the_octet_raise(self, flags):
        with pytest.raises(ValueError, match=r"^flags: "):
            TcpSegment(1, 2, 3, flags=flags)


class Reference:
    """TcpSegment and Ipv4Datagram as generated dataclasses, validated in
    __post_init__, with the isinstance chain for total_length and IntFlag
    membership for seg_len: the checks, messages, payload octet counts and
    flag bit tests that wire's classes must keep.  A segment's flags are
    stored as a TcpFlag, whatever int in the octet they came as."""

    @dataclass(frozen=True, slots=True)
    class TcpSegment:
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
            if not 0 <= self.flags < 0x100:
                raise ValueError(f"flags: {self.flags} is outside [0, 256)")
            object.__setattr__(self, "flags", TcpFlag(self.flags))

        @property
        def seg_len(self):
            n = self.payload_length
            if TcpFlag.SYN in self.flags:
                n += 1
            if TcpFlag.FIN in self.flags:
                n += 1
            return n

    @dataclass(frozen=True, slots=True)
    class Ipv4Datagram:
        src: str
        dst: str
        protocol: Protocol
        payload: object
        identification: int = 0
        df: bool = False
        more_fragments: bool = False
        fragment_offset: int = 0

        def __post_init__(self):
            if self.df and (self.more_fragments or self.fragment_offset):
                raise ValueError("DF datagram cannot be a fragment")
            if self.fragment_offset < 0:
                raise ValueError("negative fragment offset")
            if not 0 <= self.identification <= 0xFFFF:
                raise ValueError("identification out of range")
            if isinstance(self.payload, Reference.TcpSegment) and self.protocol is not Protocol.TCP:
                raise ValueError("TCP payload on non-TCP datagram")
            if isinstance(self.payload, (EchoRequest, EchoReply, FragNeeded)):
                if self.protocol is not Protocol.ICMP:
                    raise ValueError("ICMP payload on non-ICMP datagram")

        @property
        def total_length(self):
            p = self.payload
            if isinstance(p, Reference.TcpSegment):
                octets = wire.TCP_HEADER_LEN + p.payload_length
            elif isinstance(p, (EchoRequest, EchoReply)):
                octets = wire.ICMP_HEADER_LEN + p.padding_length
            elif isinstance(p, FragNeeded):
                octets = wire.ICMP_HEADER_LEN + wire.EMBEDDED_QUOTE_LEN
            else:
                octets = len(p)
            return wire.IP_HEADER_LEN + octets


def build(cls, args, kwargs):
    """(instance, None), or (None, (exception type, message)) when the
    constructor rejects its arguments."""
    try:
        return cls(*args, **kwargs), None
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return None, (type(e), str(e))


DEFAULT = object()  # an optional argument left out of the call
# each field's bounds and their neighbours, then anything
any_int = st.one_of(st.sampled_from([-1, 0, 1, 0xFFFF, 0x10000]), st.integers(-3, 0x10003),
                    st.integers(-(2**40), 2**40))


def optional(strategy):
    return st.one_of(st.just(DEFAULT), strategy)


def split_call(k, names, values):
    """(args, kwargs): the first k values positional, fewer when an
    earlier one is left out, and the rest by keyword; a DEFAULT value is
    left out of the call."""
    k = min([k] + [i for i, v in enumerate(values) if v is DEFAULT])
    return values[:k], {n: v for n, v in zip(names[k:], values[k:]) if v is not DEFAULT}


SEGMENT_FIELDS = ["src_port", "dst_port", "seq", "ack", "flags", "payload_length"]
DATAGRAM_FIELDS = ["src", "dst", "protocol", "payload", "identification", "df",
                   "more_fragments", "fragment_offset"]


@st.composite
def segment_call(draw):
    values = [
        draw(any_int),
        draw(any_int),
        draw(st.integers(0, 2**32 - 1)),
        draw(optional(st.integers(0, 2**32 - 1))),
        draw(optional(st.one_of(flags_st, any_int))),
        draw(optional(any_int)),
    ]
    return split_call(draw(st.integers(0, len(values))), SEGMENT_FIELDS, values)


@st.composite
def datagram_calls(draw):
    """The same datagram call for the reference and for the fast class, over
    every payload and protocol pairing, DF with MF or an offset, and
    out-of-range identifications and offsets."""
    kind = draw(st.sampled_from(["tcp", "icmp", "bytes"]))
    if kind == "tcp":
        seg = draw(segment_st)
        seg_args = [getattr(seg, n) for n in SEGMENT_FIELDS]
        payloads = (Reference.TcpSegment(*seg_args), TcpSegment(*seg_args))
    else:
        payload = draw(icmp_payload_st if kind == "icmp" else st.binary(max_size=64))
        payloads = (payload, payload)
    head = [draw(addr_st), draw(addr_st), draw(st.sampled_from(list(Protocol)))]
    tail = [
        draw(optional(any_int)),
        draw(optional(st.booleans())),
        draw(optional(st.booleans())),
        draw(optional(st.one_of(st.integers(-2, 3), any_int))),
    ]
    k = draw(st.integers(0, len(DATAGRAM_FIELDS)))
    return [split_call(k, DATAGRAM_FIELDS, head + [p] + tail) for p in payloads]


class TestFastConstructors:
    """wire's TcpSegment and Ipv4Datagram constructors accept and reject
    exactly what the reference does, with the same messages, and build
    objects with its fields, repr and hash, frozen."""

    @staticmethod
    def check_same(ref_cls, fast_cls, ref_call, fast_call):
        ref, ref_err = build(ref_cls, *ref_call)
        fast, fast_err = build(fast_cls, *fast_call)
        assert fast_err == ref_err
        if fast is None:
            return None, None
        # same fields, values, hash and repr; frozen
        assert repr(fast) == repr(ref).replace("Reference.", "")
        assert hash(fast) == hash(ref)
        assert dataclasses.astuple(fast) == dataclasses.astuple(ref)
        assert fast == build(fast_cls, *fast_call)[0]
        assert dataclasses.replace(fast) == fast
        for f in dataclasses.fields(fast):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fast, f.name, getattr(fast, f.name))
        return ref, fast

    def test_same_fields_slots_and_defaults(self):
        for ref_cls, fast_cls in ((Reference.TcpSegment, TcpSegment),
                                  (Reference.Ipv4Datagram, Ipv4Datagram)):
            assert [(f.name, f.default) for f in dataclasses.fields(fast_cls)] == [
                (f.name, f.default) for f in dataclasses.fields(ref_cls)]
            assert fast_cls.__slots__ == ref_cls.__slots__
        assert not hasattr(TcpSegment(1, 2, 3), "__dict__")
        assert not hasattr(Ipv4Datagram("1.1.1.1", "2.2.2.2", Protocol.ICMP, b""), "__dict__")

    @given(segment_call(), segment_call())
    @settings(max_examples=150)
    def test_segment(self, call, other):
        ref, fast = self.check_same(Reference.TcpSegment, TcpSegment, call, call)
        if fast is not None:
            assert fast.seg_len == ref.seg_len
            assert fast.wire_payload_length == wire.TCP_HEADER_LEN + ref.payload_length
            ref2, fast2 = build(Reference.TcpSegment, *other)[0], build(TcpSegment, *other)[0]
            assert (fast == fast2) == (ref == ref2)

    @given(datagram_calls(), datagram_calls())
    @settings(max_examples=200)
    def test_datagram(self, calls, others):
        ref, fast = self.check_same(Reference.Ipv4Datagram, Ipv4Datagram, *calls)
        if fast is not None:
            assert fast.total_length == ref.total_length
            ref2 = build(Reference.Ipv4Datagram, *others[0])[0]
            fast2 = build(Ipv4Datagram, *others[1])[0]
            assert (fast == fast2) == (ref == ref2)


def same_object(store_only, checked):
    """Equal by ==, hash, repr and fields; frozen, slotted, and rebuilt
    through the checked constructor unchanged."""
    assert store_only == checked and checked == store_only
    assert hash(store_only) == hash(checked)
    assert repr(store_only) == repr(checked)
    assert dataclasses.astuple(store_only) == dataclasses.astuple(checked)
    assert type(store_only) is type(checked) and not hasattr(store_only, "__dict__")
    assert dataclasses.replace(store_only) == store_only
    for f in dataclasses.fields(store_only):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(store_only, f.name, getattr(store_only, f.name))


class TestStoreOnlyConstructors:
    """For valid fields, wire.tcp_packet builds what the checked
    constructors build."""

    @given(segment_st, addr_st, addr_st, st.integers(0, 0xFFFF), st.booleans())
    @settings(max_examples=100)
    def test_same_as_checked(self, seg, src, dst, ident, df):
        fields = [getattr(seg, n) for n in SEGMENT_FIELDS]
        fast = wire.tcp_packet(src, dst, *fields, ident, df)
        same_object(fast, Ipv4Datagram(src, dst, Protocol.TCP, TcpSegment(*fields), ident, df))
        same_object(fast.payload, TcpSegment(*fields))
        assert fast.total_length == wire.IP_HEADER_LEN + seg.wire_payload_length
        assert decode(wire.encode(fast)) == fast
