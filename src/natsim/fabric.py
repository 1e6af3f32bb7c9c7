"""Deterministic discrete-event topology simulator.

Nodes exchange Ipv4Datagrams over directed links with an MTU, a delay in
integer ticks, and optional seeded loss and middlebox filtering.  Any hop
forwarding a too-large DF datagram drops it and answers with an ICMP
Fragmentation Needed carrying the link MTU; DF-clear datagrams are split
per RFC 791 and forwarded in offset order.

Routing is static: `finalize_routes` gives each node one forwarding table,
`dst address -> (next hop, LinkSpec, loss stream or None, next hop's Node)`,
so a hop is one lookup, and each Node shares its Counters with
`Simulator.counters`.  Every run of a document shares its frozen LinkSpecs:
`set_link_mtu` swaps a copy with the new MTU into `links` and into each route
that held the old one.  Each lossy link has one loss stream, keyed on (seed,
from, to), whatever routes over it.

Time only moves forward: a call before `now` is an error, and each tick's
events run in one FIFO pass.  The queue holds one event per injected batch,
and one per group of datagrams that cross a link to the same next hop at
the same tick; each datagram of either runs in the order that one event per
datagram would give it.

A simulator instance is single-threaded and owns all of its state; for a
fixed seed two runs of the same scenario produce bit-identical traces.
One shape watches a run.  Every trace record is counted, and kept only when
asked (see `keep_traces`), inline in `record` as five slots of one flat list:
no call, and no object for the cyclic GC to track.  Two hook slots, empty
at build, are read where the simulator already branches: `on_drop[reason]`
is called with each datagram dropped for that reason (in `record`'s drop
branch, one dict lookup a drop), and a Node's `on_arrival` with what the
node takes in for its handler, deliveries and an intercepting node's
forwards (in `run`'s group branch).  A hook that returns True is
cleared; whoever fills a slot clears it.  A node may also log what it
takes in (only the vantage `Host` does: a reassembled datagram makes no
record), and counts are made inline where the node is in hand.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol as TypingProtocol

from . import wire
from .wire import IP_HEADER_LEN, RST_BIT, FragNeeded, Ipv4Datagram, Protocol, TcpSegment

_TCP_HEADERS = IP_HEADER_LEN + wire.TCP_HEADER_LEN  # of a whole TCP datagram
_ICMP = Protocol.ICMP  # the per-hop path reads no Enum member through its class


class FabricError(Exception):
    pass


class NoSuchNodeError(FabricError):
    pass


class TraceNotKeptError(FabricError):
    """The run counted its trace records but did not keep them."""


def derive_rng(seed: int, *tags) -> random.Random:
    """A process-independent RNG keyed on the scenario seed plus tags."""
    material = repr((seed,) + tags).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:8], "big"))


class DropClass(Enum):
    ICMP_ERROR = "icmp-error"
    ICMP_ECHO = "icmp-echo"
    TCP_RST_INBOUND = "tcp-rst-inbound"
    ALL = "all"


@dataclass(frozen=True)
class MiddleboxFilter:
    drop_classes: frozenset[DropClass]

    def __post_init__(self):
        # the four class tests, decided once: the class each payload kind is
        # dropped as, or None
        for name, cls in (("_all", DropClass.ALL), ("_frag_needed", DropClass.ICMP_ERROR),
                          ("_echo", DropClass.ICMP_ECHO), ("_tcp_rst", DropClass.TCP_RST_INBOUND)):
            object.__setattr__(self, name, cls if cls in self.drop_classes else None)

    def matches(self, d: Ipv4Datagram) -> DropClass | None:
        if self._all is not None:
            return self._all
        p = d.payload
        if isinstance(p, TcpSegment):
            return self._tcp_rst if p.flags._value_ & RST_BIT else None
        if isinstance(p, FragNeeded):
            return self._frag_needed
        if isinstance(p, wire.Echo):
            return self._echo
        return None


@dataclass(frozen=True)
class LinkSpec:
    frm: str
    to: str
    mtu: int = wire.DEFAULT_MTU
    delay: int = 1
    loss: float = 0.0
    filter: MiddleboxFilter | None = None

    def __post_init__(self):
        wire.check_range("mtu", self.mtu, wire.MIN_MTU)
        wire.check_range("delay", self.delay, 1)
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss: {self.loss} is outside [0, 1]")


class PacketHandler(TypingProtocol):
    def on_datagram(self, sim: "Simulator", node: str, d: Ipv4Datagram) -> None: ...


@dataclass(slots=True)
class Counters:
    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0


# called with each datagram its slot shows it; one that returns True is cleared
Hook = Callable[[Ipv4Datagram], bool]


@dataclass
class Node:
    node_id: str
    address: str
    handler: PacketHandler | None = None
    transit: bool = False  # router: forwards packets not addressed to it
    intercept: bool = False  # NAT: handler sees every arriving packet
    counters: Counters = field(default_factory=Counters)  # also Simulator.counters[node_id]
    on_arrival: Hook | None = field(default=None, repr=False, compare=False)  # what it takes in
    # its handler takes in every arrival; nothing sets handler or intercept later
    takes_all: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.takes_all = self.intercept and self.handler is not None


# a forwarding table entry: (next hop, the link to it, its loss stream or
# None, the next hop's Node)
Route = tuple[str, LinkSpec, random.Random | None, Node]


_FLAG_ORDER = "FSRPA"  # the letters of TcpFlag's bits, lowest first
# the flags column for every value of the TCP flags octet, built once: the
# TcpFlag itself is the key, with no int() call
_FLAG_COLUMN = {
    bits: "".join(ch for i, ch in enumerate(_FLAG_ORDER) if bits >> i & 1) or "-" for bits in range(256)
}


def other_summary(d: Ipv4Datagram) -> str:
    """The trace column of a datagram that carries no TcpSegment, as
    `render_chunks` builds a TCP one: `proto src:port>dst:port flags seq ack
    len df off`."""
    p = d.payload
    df = "DF" if d.df else ("MF" if d.more_fragments else "-")
    if isinstance(p, wire.EchoRequest):
        proto, flags, sp, dp, seq, ack = "ICMP", "EQ", 0, 0, p.seq_no, p.ident
    elif isinstance(p, wire.EchoReply):
        proto, flags, sp, dp, seq, ack = "ICMP", "EP", 0, 0, p.seq_no, p.ident
    elif isinstance(p, wire.FragNeeded):
        proto, flags, sp, dp, seq, ack = "ICMP", "FN", 0, 0, p.next_hop_mtu, 0
    else:
        proto = d.protocol.name
        flags, sp, dp, seq, ack = "-", 0, 0, 0, 0
    return (
        f"{proto} {d.src}:{sp}>{d.dst}:{dp} {flags} {seq} {ack} "
        f"{d.total_length} {df} {d.fragment_offset}"
    )


class TraceRecord(NamedTuple):
    tick: int
    node: str
    action: str  # send | forward | fragment | drop | deliver
    reason: str
    dgram: Ipv4Datagram


# `render_chunks` holds at most this many packet columns, in two generations
# of half as many.  Most records of a datagram fall within a few ticks of its
# first, but not all: a second attack round re-sends the first round's
# crafted datagrams, and their columns are rendered again
SUMMARY_CACHE_ENTRIES = 1024


def render_chunks(records: Iterable[tuple], lines: int) -> Iterator[str]:
    """The trace lines of (tick, node, action, reason, dgram) rows, `lines`
    of them joined into each chunk.  A line is the tick, node, action, reason
    and packet column, tab-separated, then a newline.  Each tick is formatted
    once per run of records that share it, and each datagram's column, with
    its tab and newline, once for all the records that carry it while it is
    cached: a TCP column in one f-string, any other by `other_summary`."""
    half = SUMMARY_CACHE_ENTRIES // 2
    young: dict[int, str] = {}  # id(d) -> d's column, for the newest datagrams
    old: dict[int, str] = {}  # the generation before
    # each generation's datagrams, so that no other object takes their ids
    held: list[Ipv4Datagram] = []
    held_old: list[Ipv4Datagram] = []
    rows = iter(records)
    last = tick_s = None
    while True:
        out = []
        append = out.append
        for tick, node, action, reason, d in itertools.islice(rows, lines):
            if tick != last:
                last, tick_s = tick, f"{tick}\t"
            key = id(d)
            column = young.get(key) or old.get(key)
            if column is None:
                if len(young) >= half:
                    old, held_old, young, held = young, held, {}, []
                p = d.payload
                # nearly every record; the length inline, as in forward_from
                if type(p) is TcpSegment:
                    column = (
                        f"\tTCP {d.src}:{p.src_port}>{d.dst}:{p.dst_port} {_FLAG_COLUMN[p.flags]} "
                        f"{p.seq} {p.ack} {_TCP_HEADERS + p.payload_length} "
                        f"{'DF' if d.df else 'MF' if d.more_fragments else '-'} {d.fragment_offset}\n"
                    )
                else:
                    column = f"\t{other_summary(d)}\n"
                young[key] = column
                held.append(d)
            append(f"{tick_s}{node}\t{action}\t{reason}{column}")
        if not out:
            return
        yield "".join(out)


# a TraceRecord from a (tick, node, action, reason, dgram) row, without its __new__
_as_record = functools.partial(tuple.__new__, TraceRecord)

_keep_traces = contextvars.ContextVar("natsim_keep_traces", default=False)


@contextlib.contextmanager
def keep_traces():
    """Inside the block, simulators built from scenarios keep their trace
    records; outside it they only count them."""
    token = _keep_traces.set(True)
    try:
        yield
    finally:
        _keep_traces.reset(token)


def traces_kept() -> bool:
    return _keep_traces.get()


class Trace:
    """The packet trace: len() counts every record; the records themselves
    are there only when the trace was kept, five flat slots each."""

    __slots__ = ("count", "records")

    def __init__(self, keep: bool = True):
        self.count = 0  # records made while not kept
        self.records: list | None = [] if keep else None

    def __len__(self) -> int:
        return self.count if self.records is None else len(self.records) // 5

    def rows(self) -> Iterator[tuple]:
        """The kept records as plain (tick, node, action, reason, dgram) rows."""
        if self.records is None:
            raise TraceNotKeptError(
                f"{self.count} trace records were counted, not kept; run inside fabric.keep_traces()"
            )
        slots = iter(self.records)
        return zip(slots, slots, slots, slots, slots)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_as_record, self.rows())


def route_plan(addresses: dict[str, str], links: Iterable[tuple]) -> dict[str, dict[str, list[str]]]:
    """node -> first hop -> the addresses it routes through that hop, by per-source BFS
    over out-neighbours in (from, to) `links` order, so routing is deterministic."""
    out: dict[str, list[str]] = {node: [] for node in addresses}
    for frm, to in links:
        out[frm].append(to)
    plan = {}
    for origin in addresses:
        groups = plan[origin] = {}
        reached = {origin: None}  # node -> the group of its first hop (never empty once read)
        queue = [origin]
        for cur in queue:  # the list grows as it is read, so it runs as a FIFO queue
            for nb in out[cur]:
                if nb not in reached:
                    group = reached[nb] = reached[cur] or groups.setdefault(nb, [])
                    group.append(addresses[nb])
                    queue.append(nb)
    return plan


class Simulator:
    """Event loop, topology, routing, and the packet trace."""

    def __init__(self, seed: int = 0, keep_trace: bool = True):
        self.seed = seed
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], LinkSpec] = {}
        self.forwarding: dict[str, dict[str, Route]] = {}  # node -> dst address -> route
        self.addr_to_node: dict[str, str] = {}
        self.trace = Trace(keep_trace)
        self.on_drop: dict[str, Hook] = {}  # drop reason -> its hook
        self.counters: dict[str, Counters] = {}
        # the event queue: a heap of the distinct pending ticks, and each
        # tick's events in a FIFO bucket (a one-level calendar queue)
        self._ticks: list[int] = []
        self._buckets: dict[int, deque] = {}

    # -- topology ------------------------------------------------------------

    def add_node(
        self,
        node_id: str,
        address: str,
        handler: PacketHandler | None = None,
        *,
        transit: bool = False,
        intercept: bool = False,
    ) -> Node:
        if node_id in self.nodes:
            raise FabricError(f"duplicate node {node_id}")
        if address in self.addr_to_node:
            raise FabricError(f"duplicate address {address}")
        node = Node(node_id, address, handler, transit, intercept)
        self.nodes[node_id] = node
        self.addr_to_node[address] = node_id
        self.counters[node_id] = node.counters
        self.forwarding[node_id] = {}
        return node

    def add_link(self, spec: LinkSpec) -> None:
        if spec.frm not in self.nodes or spec.to not in self.nodes:
            raise NoSuchNodeError(f"no-such-node: link {spec.frm}->{spec.to}")
        self.links[(spec.frm, spec.to)] = spec

    def set_link_mtu(self, frm: str, to: str, mtu: int) -> None:
        link = self.links.get((frm, to))
        if link is None:
            raise NoSuchNodeError(f"no-such-node: link {frm}->{to}")
        new = self.links[(frm, to)] = replace(link, mtu=mtu)
        table = self.forwarding[frm]  # only frm's own routes cross the link
        for dst, route in table.items():
            if route[1] is link:
                table[dst] = (to, new, route[2], route[3])

    def finalize_routes(self, plan: dict[str, dict[str, list[str]]] | None = None) -> None:
        """Install each node's forwarding table from `plan`, by default the links'
        `route_plan`, after the last add_link: each lossy link gets its one loss stream here."""
        if plan is None:
            plan = route_plan({n: node.address for n, node in self.nodes.items()}, self.links)
        for origin, groups in plan.items():
            table = self.forwarding[origin] = {}
            for hop, dsts in groups.items():
                link = self.links[(origin, hop)]
                rng = derive_rng(self.seed, "loss", origin, hop) if link.loss > 0.0 else None
                table.update(dict.fromkeys(dsts, (hop, link, rng, self.nodes[hop])))

    def path_min_mtu(self, from_node: str, dst_addr: str) -> int | None:
        """Smallest link MTU along the current route toward dst_addr.  Each
        hop is one step nearer along a BFS tree, so the walk ends."""
        node = from_node
        best: int | None = None
        while self.nodes[node].address != dst_addr:
            route = self.forwarding[node].get(dst_addr)
            if route is None:
                return None
            node, link, _, _ = route
            best = link.mtu if best is None else min(best, link.mtu)
        return best

    # -- event queue -----------------------------------------------------------

    def _schedule(self, tick: int, item: tuple) -> None:
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = deque()
            heapq.heappush(self._ticks, tick)
        bucket.append(item)

    def schedule_call(self, tick: int, fn: Callable[["Simulator"], None]) -> None:
        """Queue fn(sim) behind the events at `tick`; a tick before now is a ValueError."""
        if tick < self.now:
            raise ValueError(f"tick {tick} is before now ({self.now})")
        self._schedule(tick, ("call", fn))

    @property
    def idle(self) -> bool:
        return not self._ticks

    def run_until(self, done: Callable[[], bool], deadline: int) -> bool:
        """Run until done() holds; False once the deadline is reached or
        nothing is left to run before it does.  Each step runs to the next
        event's tick, at least one tick on: that stops where a tick-by-tick
        run would as long as done() reads only state that events change."""
        while not done():
            if self.now >= deadline or self.idle:
                return False
            self.run(until=min(max(self._ticks[0], self.now + 1), deadline))
        return True

    def inject(self, at: str, *batch: Ipv4Datagram) -> None:
        """Originate datagrams at a node, counted against its totals: each is
        recorded as a send now, and the batch is one event that routes them
        in order, as one event per datagram would."""
        node = self.nodes.get(at)
        if node is None:
            raise NoSuchNodeError(f"no-such-node: {at}")
        if not batch:
            return
        node.counters.packets_sent += len(batch)
        for d in batch:
            self.record(at, "send", "", d)
        self._schedule(self.now, ("emit", at, batch))

    def run(self, until: int | None = None) -> None:
        """Process events up to `until` inclusive (None = quiescence), in
        (tick, scheduling order) order.  Each tick's bucket runs to empty in
        one FIFO pass, so an event it queues at now runs in the same pass,
        and then the tick leaves the queue.  An injected batch is one event,
        and so is a group of arrivals, delivered datagram by datagram."""
        ticks, buckets = self._ticks, self._buckets
        while ticks and (until is None or ticks[0] <= until):
            tick = self.now = ticks[0]
            bucket = buckets[tick]
            while bucket:
                item = bucket.popleft()
                kind = item[0]
                if kind == "group":
                    # every datagram of a group arrives at this one node
                    node = item[1]
                    node_id, address, handler = node.node_id, node.address, node.handler
                    takes_all = node.takes_all
                    for d in item[2]:
                        local = d.dst == address
                        # an intercepting handler (the NAT) sees transit packets too
                        if local or takes_all:
                            if local:
                                node.counters.packets_delivered += 1
                            self.record(node_id, "deliver" if local else "forward", "", d)
                            hook = node.on_arrival  # a hook that returns True clears mid-group
                            if hook is not None and hook(d):
                                node.on_arrival = None
                            if handler is not None:
                                handler.on_datagram(self, node_id, d)
                        elif node.transit:
                            self.record(node_id, "forward", "", d)
                            self.forward_from(node_id, d)
                        else:
                            self.record(node_id, "drop", "no-route", d)
                elif kind == "emit":
                    at = item[1]
                    for d in item[2]:
                        self.forward_from(at, d)
                else:
                    item[1](self)
            heapq.heappop(ticks)
            del buckets[tick]
        if until is not None:
            self.now = max(self.now, until)

    # -- emission helpers used by node handlers --------------------------------

    def send_from(self, node: str, d: Ipv4Datagram) -> None:
        """Node-originated packet: counted, traced as a send, then routed."""
        self.counters[node].packets_sent += 1
        self.record(node, "send", "", d)
        self.forward_from(node, d)

    def forward_from(self, node: str, d: Ipv4Datagram) -> None:
        """Route a datagram out of `node`: the next step of a send, and of a
        transit packet a handler re-emits (e.g. after NAT rewrite)."""
        route = self.forwarding[node].get(d.dst)
        if route is None:
            self.record(node, "drop", "no-route", d)
            return
        _, link, rng, hop = route
        if link.filter is not None:
            cls = link.filter.matches(d)
            if cls is not None:
                self.record(node, "drop", f"filtered-{cls.value}", d)
                return
        # d.total_length, inline: this runs once a hop, and the property
        # calls would cost more than the sum
        p = d.payload
        if isinstance(p, TcpSegment):
            size = _TCP_HEADERS + p.payload_length
        else:
            size = IP_HEADER_LEN + (len(p) if isinstance(p, bytes) else p.wire_payload_length)
        if size > link.mtu:
            if d.df:
                self.record(node, "drop", "needs-fragmentation", d)
                self.send_from(node, Ipv4Datagram(
                    src=self.nodes[node].address, dst=d.src, protocol=_ICMP,
                    payload=FragNeeded(next_hop_mtu=link.mtu, embedded=wire.quote_of(d))))
                return
            self.record(node, "fragment", "", d)
            # each piece fits, and its raw payload passes any filter d passed
            for piece in wire.fragment(d, link.mtu):
                self.forward_from(node, piece)
            return
        # onto the link: the loss draw, then the arrival, which joins the
        # group at the tail of its tick when that group is bound for the
        # same hop (only a group holds a Node)
        if rng is not None and rng.random() < link.loss:
            self.record(node, "drop", "loss", d)
            return
        tick = self.now + link.delay
        bucket = self._buckets.get(tick)
        if bucket is None:  # _schedule's work, inline: the call costs a hop ~5%
            self._buckets[tick] = deque((("group", hop, [d]),))
            heapq.heappush(self._ticks, tick)
        elif bucket[-1][1] is hop:
            bucket[-1][2].append(d)
        else:
            bucket.append(("group", hop, [d]))

    def record(self, node: str, action: str, reason: str, d: Ipv4Datagram) -> None:
        records = self.trace.records
        if records is None:
            self.trace.count += 1
        else:
            records += (self.now, node, action, reason, d)
        if action == "drop":
            self.counters[node].packets_dropped += 1
            hook = self.on_drop.get(reason)
            if hook is not None and hook(d):
                del self.on_drop[reason]
