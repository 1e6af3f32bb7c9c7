"""The per-packet paths read no Enum member through its class.

Reading `Protocol.TCP` or `RstHandling.FORWARD_ONLY` goes through the Enum
metaclass and costs several times a global read, and these functions run
once per packet or per hop; each module keeps the members they use as
module-level aliases instead.
"""

import builtins
import dis
import enum
import types

import pytest

from natsim import strike, wire
from natsim.endpoint import Host, IpNode
from natsim.fabric import MiddleboxFilter, Simulator
from natsim.natbox import NatBox
from natsim.wire import Protocol

PER_PACKET = (
    strike.craft_rst_sweep,
    strike.craft_push_ack_sweep,
    wire.tcp_segment,
    wire.tcp_datagram,
    IpNode._emit_tcp,
    IpNode._reflect_reset,
    NatBox.on_datagram,
    IpNode.on_datagram,
    NatBox._outbound,
    NatBox._on_tcp,
    NatBox._on_inbound_rst,
    NatBox._translate,
    Host.on_datagram,
    Host._on_tcp,
    Host._send,
    Simulator.inject,
    Simulator.run,
    Simulator.forward_from,
    Simulator._arrive,
    MiddleboxFilter.matches,
)


def _codes(code: types.CodeType):
    """`code` and every code object nested in it (comprehensions, lambdas)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def enum_member_reads(fn) -> list[str]:
    """`Class.member` for each attribute read of an Enum subclass that `fn`
    loads as a global, directly or as a module attribute (`wire.Protocol`)."""
    reads = []
    for code in _codes(fn.__code__):
        loaded = None  # what the instructions so far have put on the stack top
        for ins in dis.get_instructions(code):
            if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                loaded = fn.__globals__.get(ins.argval, getattr(builtins, ins.argval, None))
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and loaded is not None:
                if isinstance(loaded, type) and issubclass(loaded, enum.Enum):
                    reads.append(f"{loaded.__name__}.{ins.argval}")
                    loaded = None
                elif isinstance(loaded, types.ModuleType):
                    loaded = getattr(loaded, ins.argval, None)
                else:
                    loaded = None
            else:
                loaded = None
    return reads


def test_scanner_sees_enum_member_reads():
    def direct(d):
        return d.protocol is Protocol.TCP

    def through_module():
        return [wire.Protocol.ICMP for _ in range(2)]

    assert enum_member_reads(direct) == ["Protocol.TCP"]
    assert enum_member_reads(through_module) == ["Protocol.ICMP"]


@pytest.mark.parametrize("fn", PER_PACKET, ids=lambda fn: fn.__qualname__)
def test_per_packet_path_reads_no_enum_member(fn):
    assert enum_member_reads(fn) == []
