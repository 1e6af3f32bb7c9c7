"""Every drop the simulator records, one table row per recording site: each
row builds the smallest input that makes its drop, and the table is checked
against the source's `record(..., "drop", ...)` sites and the README's list."""

import ast
import pathlib
import re
import struct
from collections import Counter
from typing import Callable, NamedTuple

import pytest

from natsim import wire
from natsim.fabric import DropClass, LinkSpec, MiddleboxFilter, Simulator
from natsim.natbox import NatPolicy, RstHandling
from natsim.wire import EchoReply, EchoRequest, FragNeeded, Ipv4Datagram, Protocol, TcpFlag, TcpSegment

from helpers import chain, host_pair, nat_triangle

ROOT = pathlib.Path(__file__).resolve().parent.parent


def tcp(src, dst, flags=TcpFlag.SYN, sport=4444, dport=80, length=0, df=False):
    return Ipv4Datagram(src=src, dst=dst, protocol=Protocol.TCP, df=df,
                        payload=TcpSegment(sport, dport, seq=0, flags=flags, payload_length=length))


def icmp(src, dst, payload):
    return Ipv4Datagram(src=src, dst=dst, protocol=Protocol.ICMP, payload=payload)


def frag_needed(src, dst, quoted):
    return icmp(src, dst, FragNeeded(600, wire.quote_of(quoted)))


def injected(sim, d, at="n0"):
    sim.inject(at, d)
    sim.run()
    return sim


def at_nat(*datagrams, policy=None, prepare=None):
    sim, _, nat, _ = nat_triangle(policy)
    if prepare:
        prepare(nat)
    for d in datagrams:
        nat.on_datagram(sim, "nat", d)
    return sim


def at_host(*datagrams, run=False):
    sim, a, _ = host_pair()
    for d in datagrams:
        a.on_datagram(sim, "a", d)
    if run:
        sim.run()
    return sim


PING = icmp("2.2.2.2", "1.1.1.1", EchoRequest(11, 1, 1472))
# ICMP type 42: two fragments that complete a group whose bytes do not decode
UNDECODABLE = [
    Ipv4Datagram(src="2.2.2.2", dst="1.1.1.1", protocol=Protocol.ICMP, payload=piece,
                 identification=7, more_fragments=mf, fragment_offset=off)
    for piece, mf, off in ((struct.pack(">BBHHH", 42, 0, 0, 0, 0) + bytes(8), True, 0),
                           (bytes(8), False, 2))
]


class Row(NamedTuple):
    site: str  # the module and the reason literal of the recording site
    node: str
    reason: str
    make: Callable[[], Simulator]


ROWS = [
    # fabric: routing, middlebox filters, link MTU and loss
    Row('fabric.py "no-route"', "n0", "no-route",
        lambda: injected(chain(2), tcp("10.1.0.1", "99.99.99.99"))),
    *(Row('fabric.py f"filtered-{cls.value}"', "n0", f"filtered-{cls.value}",
          lambda cls=cls, d=d: injected(chain(2, filter=MiddleboxFilter(frozenset({cls}))), d))
      for cls, d in ((DropClass.ICMP_ERROR, icmp("10.1.0.1", "10.1.0.2", FragNeeded(600, bytes(28)))),
                     (DropClass.ICMP_ECHO, icmp("10.1.0.1", "10.1.0.2", EchoRequest(1, 1, 0))),
                     (DropClass.TCP_RST_INBOUND, tcp("10.1.0.1", "10.1.0.2", TcpFlag.RST)),
                     (DropClass.ALL, tcp("10.1.0.1", "10.1.0.2")))),
    Row('fabric.py "needs-fragmentation"', "n1", "needs-fragmentation",
        lambda: injected(chain(3, hop=1, mtu=576), tcp("10.1.0.1", "10.1.0.3", length=1000, df=True))),
    Row('fabric.py "loss"', "n0", "loss", lambda: injected(chain(2, loss=1.0), tcp("10.1.0.1", "10.1.0.2"))),
    # a node that is neither the destination nor a router
    Row('fabric.py "no-route"', "n1", "no-route",
        lambda: injected(chain(3, opaque=1), tcp("10.1.0.1", "10.1.0.3"))),
    # natbox: transit traffic, outbound translation, inbound segments and ICMP
    Row('natbox.py "no-route"', "nat", "no-route", lambda: at_nat(tcp("7.7.7.7", "10.0.0.9"))),
    Row('natbox.py "unsupported-outbound"', "nat", "unsupported-outbound",
        lambda: at_nat(icmp("10.0.0.2", "7.7.7.7", EchoRequest(1, 1, 0)))),
    Row('natbox.py "nat-ports-exhausted"', "nat", "nat-ports-exhausted",
        lambda: at_nat(tcp("10.0.0.2", "7.7.7.7"),
                       prepare=lambda nat: nat._used_ports.update(range(nat.MIN_PORT, 0x10000)))),
    Row('natbox.py "no-mapping"', "nat", "no-mapping",
        lambda: at_nat(tcp("7.7.7.7", "6.6.6.6", TcpFlag.RST, sport=80, dport=3333))),
    # strict validation: a SYN opens the mapping with no window, so any RST is out of it
    Row('natbox.py "rst-out-of-window"', "nat", "rst-out-of-window",
        lambda: at_nat(tcp("10.0.0.2", "7.7.7.7"), tcp("7.7.7.7", "6.6.6.6", TcpFlag.RST, sport=80, dport=1024),
                       policy=NatPolicy(rst_handling=RstHandling.STRICT_VALIDATE))),
    Row('natbox.py "icmp-no-mapping"', "nat", "icmp-no-mapping",  # a quote not from the NAT
        lambda: at_nat(frag_needed("203.0.113.7", "6.6.6.6", tcp("10.0.0.2", "7.7.7.7")))),
    Row('natbox.py "icmp-no-mapping"', "nat", "icmp-no-mapping",  # from the NAT, mapping no port
        lambda: at_nat(frag_needed("203.0.113.7", "6.6.6.6", tcp("6.6.6.6", "7.7.7.7")))),
    Row('natbox.py "no-mapping"', "nat", "no-mapping",
        lambda: at_nat(icmp("8.8.8.8", "6.6.6.6", EchoReply(1, 1, 0)))),
    # endpoint: the IP layer's reassembly, and the Host's ICMP validation
    Row('endpoint.py "duplicate-fragment"', "a", "duplicate-fragment",
        lambda: at_host(*[wire.fragment(PING, 600)[0]] * 2)),
    Row('endpoint.py "malformed-reassembly"', "a", "malformed-reassembly", lambda: at_host(*UNDECODABLE)),
    Row('endpoint.py "reassembly-timeout"', "a", "reassembly-timeout",
        lambda: at_host(wire.fragment(PING, 600)[0], run=True)),
    Row('endpoint.py "icmp-validation-failed"', "a", "icmp-validation-failed",  # a quote not from the Host
        lambda: at_host(frag_needed("203.0.113.7", "1.1.1.1", tcp("9.9.9.9", "2.2.2.2")))),
    Row('endpoint.py "icmp-validation-failed"', "a", "icmp-validation-failed",  # from it, on no socket
        lambda: at_host(frag_needed("203.0.113.7", "1.1.1.1", tcp("1.1.1.1", "2.2.2.2")))),
]


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r.site.split('.')[0]}-{r.reason}")
def test_each_drop_site_records_its_reason(row):
    sim = row.make()
    assert [(r.node, r.action, r.reason) for r in sim.trace if r.action == "drop"] == [
        (row.node, "drop", row.reason)]


def literal_values(node):
    """The strings an argument can be: a literal, or either arm of a
    conditional between literals; anything else fails."""
    if isinstance(node, ast.IfExp):
        return literal_values(node.body) | literal_values(node.orelse)
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), ast.dump(node)
    return {node.value}


def drop_sites(source):
    """The reason source text of each `record` call in `source` whose action
    can be "drop".  Every `record` call must pass node, action, reason and
    datagram by position, its action a literal (or a conditional between
    literals), and a drop's reason a string or f-string literal."""
    sites = []
    for call in ast.walk(ast.parse(source)):
        if not (isinstance(call, ast.Call) and getattr(call.func, "attr", getattr(call.func, "id", None)) == "record"):
            continue
        assert len(call.args) == 4 and not call.keywords, ast.get_source_segment(source, call)
        if "drop" in literal_values(call.args[1]):
            reason = call.args[2]
            assert isinstance(reason, (ast.Constant, ast.JoinedStr)), ast.get_source_segment(source, call)
            sites.append(ast.get_source_segment(source, reason))
    return sites


@pytest.mark.parametrize("source, sites", [
    ('sim.record(n, "drop", "a", d)', ['"a"']),
    ('self.record(\n    n,\n    "drop",\n    f"b-{x}",\n    d)', ['f"b-{x}"']),
    ('sim.record(n, "drop" if x else "send", "c", d)', ['"c"']),
    ('sim.record(n, "send", "", d)', []),
])
def test_drop_sites_are_found_across_lines_and_conditionals(source, sites):
    assert drop_sites(source) == sites


@pytest.mark.parametrize("source", [
    'sim.record(n, "drop", reason, d)',
    'sim.record(n, action, "a", d)',
    'sim.record(n, "drop", reason="a", d=d)',
    'sim.record(*args)',
])
def test_a_drop_site_the_table_cannot_name_fails(source):
    with pytest.raises(AssertionError):
        drop_sites(source)


def test_the_table_has_a_row_per_recording_site():
    """Each `record` call in src/ that can drop has its row; the one
    formatted site has a row per DropClass."""
    sites = Counter()
    for path in sorted((ROOT / "src" / "natsim").glob("*.py")):
        for literal in drop_sites(path.read_text()):
            sites[f"{path.name} {literal}"] += 1
    rows = Counter(r.site for r in ROWS)
    family = 'fabric.py f"filtered-{cls.value}"'
    assert {r.reason for r in ROWS if r.site == family} == {f"filtered-{c.value}" for c in DropClass}
    rows[family] = 1
    assert rows == sites


def test_readme_lists_every_drop_reason():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("**Drop reasons**", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^- `([a-z-]+)`", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {r.reason for r in ROWS}
