"""Simulator core: routing, link MTU handling, loss, determinism, trace."""

import gc
import heapq
import itertools
import re
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from natsim import scenario as sc
from natsim.fabric import (
    SUMMARY_CACHE_ENTRIES,
    DropClass,
    FabricError,
    LinkSpec,
    MiddleboxFilter,
    NoSuchNodeError,
    Simulator,
    TraceRecord,
    derive_rng,
    render_chunks,
)
from natsim.strike import craft_push_ack_sweep, craft_rst_sweep
from natsim.wire import EchoReply, EchoRequest, FragNeeded, Ipv4Datagram, Protocol, TcpFlag, TcpSegment

import helpers
from helpers import chain, connect, line, nat_triangle
from reference_fabric import ReferenceSimulator


def rst(length=0, src="10.1.0.1", dst="10.1.0.3"):
    return Ipv4Datagram(
        src=src, dst=dst, protocol=Protocol.TCP,
        payload=TcpSegment(80, 4444, seq=0, flags=TcpFlag.RST, payload_length=length),
    )


def big_echo(dst="10.1.0.3", size=1500, df=False):
    return Ipv4Datagram(
        src="10.1.0.1", dst=dst, protocol=Protocol.ICMP,
        payload=EchoReply(1, 1, size - 28), identification=77, df=df,
    )


class TestInject:
    def test_accounting(self):
        sim = chain()
        d = rst(length=20)
        assert d.total_length == 60
        sim.inject("n0", d)
        assert sim.counters["n0"].packets_sent == 1

    def test_unknown_node(self):
        sim = chain()
        with pytest.raises(NoSuchNodeError):
            sim.inject("ghost", rst())

    def test_total_loss_recorded(self):
        sim = chain(2, loss=1.0)
        sim.inject("n0", rst(dst="10.1.0.2"))
        sim.run()
        drops = [r for r in sim.trace if r.action == "drop"]
        assert len(drops) == 1 and drops[0].reason == "loss"

    def test_replay_identical(self):
        def run_once():
            sim = chain(3, seed=42, loss=0.3)
            for i in range(10):
                sim.inject("n0", rst(length=i))
            sim.run()
            return "\n".join(line(rec) for rec in sim.trace)

        assert run_once() == run_once()


def mixed_link_chain(seed):
    """Four nodes in a line whose first link, n0 -> n1, has MTU 600, loses a
    quarter of what it carries and filters inbound RSTs."""
    sim = Simulator(seed=seed)
    for i in range(4):
        sim.add_node(f"n{i}", f"10.1.0.{i + 1}", transit=True)
    first = dict(mtu=600, loss=0.25, filter=MiddleboxFilter(frozenset({DropClass.TCP_RST_INBOUND})))
    for i in range(3):
        sim.add_link(LinkSpec(f"n{i}", f"n{i + 1}", **(first if i == 0 else {})))
        sim.add_link(LinkSpec(f"n{i + 1}", f"n{i}", delay=2))
    sim.finalize_routes()
    return sim


def batch_member(kind, i):
    """A datagram injected at n0 whose first hop meets one of the first
    link's cases; `i` varies its size."""
    if kind == "df-too-big":  # n0 answers, mid-batch, toward n2 (the spoofed source)
        return Ipv4Datagram(src="10.1.0.3", dst="10.1.0.4", protocol=Protocol.ICMP,
                            payload=EchoRequest(1, i, 700 + i), df=True)
    if kind == "fragmenting":
        return big_echo(dst="10.1.0.4", size=700 + i)
    if kind == "lossy":
        return Ipv4Datagram(src="10.1.0.1", dst="10.1.0.4", protocol=Protocol.TCP,
                            payload=TcpSegment(80, 4444, seq=i, flags=TcpFlag.PSH | TcpFlag.ACK))
    if kind == "filtered":
        return rst(length=i, dst="10.1.0.4")
    return rst(length=i, dst="99.99.99.99")  # no-route


BATCH_KINDS = ("df-too-big", "fragmenting", "lossy", "filtered", "no-route")


def run_batches(sim, batches, batched):
    """Inject each (gap, datagrams) batch at n0, `gap` ticks after the last,
    as one call or one call per datagram; the state after every step."""
    seen = []
    for gap, batch in batches:
        sim.run(until=sim.now + gap)
        if batched:
            sim.inject("n0", *batch)
        else:
            for d in batch:
                sim.inject("n0", d)
        seen.append((sim.now, sim.idle, len(sim.trace)))
    sim.run()
    counters = {node: (c.packets_sent, c.packets_delivered, c.packets_dropped) for node, c in sim.counters.items()}
    return seen, list(sim.trace.rows()), counters, sim.now, sim.idle


class TestBatchedInject:
    @given(
        seed=st.integers(0, 3),
        batches=st.lists(
            st.tuples(st.integers(0, 3), st.lists(st.tuples(st.sampled_from(BATCH_KINDS), st.integers(0, 60)), max_size=8)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_batch_runs_as_one_inject_per_datagram(self, seed, batches):
        batches = [(gap, [batch_member(kind, i) for kind, i in members]) for gap, members in batches]
        expected = run_batches(mixed_link_chain(seed), batches, batched=False)
        assert run_batches(mixed_link_chain(seed), batches, batched=True) == expected

    def test_every_kind_meets_its_case(self):
        sim = mixed_link_chain(seed=1)
        sim.inject("n0", *[batch_member(kind, 0) for kind in BATCH_KINDS])
        sim.run()
        at_n0 = {(action, reason) for _, node, action, reason, _ in sim.trace.rows() if node == "n0"}
        assert {("drop", "needs-fragmentation"), ("fragment", ""), ("drop", "filtered-tcp-rst-inbound"),
                ("drop", "no-route")} <= at_n0
        assert any(action == "deliver" and isinstance(d.payload, FragNeeded) and node == "n2"
                   for _, node, action, _, d in sim.trace.rows())

    def test_an_empty_batch_records_and_queues_nothing(self):
        sim = chain()
        sim.inject("n0")
        assert len(sim.trace) == 0 and sim.idle and sim.counters["n0"].packets_sent == 0
        with pytest.raises(NoSuchNodeError):
            sim.inject("ghost")

    def test_a_batch_and_its_crossing_are_one_event_each(self):
        sim = chain(2, delay=3)
        sim.inject("n0", *[rst(length=i, dst="10.1.0.2") for i in range(5)])
        assert sim.counters["n0"].packets_sent == 5 and len(sim.trace) == 5
        assert [len(bucket) for bucket in sim._buckets.values()] == [1]
        sim.run(until=0)
        assert list(sim._buckets) == [3] and len(sim._buckets[3]) == 1
        sim.run()
        assert [r.tick for r in sim.trace if r.action == "deliver"] == [3] * 5


class TestRun:
    def test_empty_queue(self):
        sim = chain()
        sim.run()
        assert list(sim.trace) == [] and sim.now == 0

    def test_two_hop_delivery_tick(self):
        sim = chain(3)
        sim.inject("n0", rst())
        sim.run()
        deliver = [r for r in sim.trace if r.action == "deliver"]
        assert len(deliver) == 1
        assert deliver[0].tick == 2 and deliver[0].node == "n2"

    def test_run_until_bounds_time(self):
        sim = chain(3, delay=5)
        sim.inject("n0", rst())
        sim.run(until=4)
        assert sim.now == 4
        assert not any(r.action == "deliver" for r in sim.trace)
        sim.run()
        assert any(r.action == "deliver" for r in sim.trace)


class HeapQueue:
    """The event queue as one heap of (tick, seq, call): the order the
    simulator's per-tick buckets must keep."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule_call(self, tick, fn):
        if tick < self.now:
            raise ValueError(f"tick {tick} is before now ({self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (tick, self._seq, fn))

    @property
    def idle(self):
        return not self._heap

    def run(self, until=None):
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.now, _, fn = heapq.heappop(self._heap)
            fn(self)
        if until is not None:
            self.now = max(self.now, until)

    def run_until(self, done, deadline):
        """Tick by tick: where the simulator's event-to-event steps must stop."""
        while not done():
            if self.now >= deadline or self.idle:
                return False
            self.run(until=self.now + 1)
        return True


def schedule_numbered(queue, numbers, tick, body):
    """Schedule body(q, n) at `tick` under the next number n; returns n, or
    the rejected tick when it is before now."""
    n = next(numbers)
    try:
        queue.schedule_call(tick, lambda q: body(q, n))
    except ValueError:
        return ("rejected", tick)
    return n


def play(queue, first, spawn, stops):
    """Run a program of calls on `queue`: the calls scheduled at the ticks
    in `first`, then every call numbered n (the nth scheduled) schedules
    one more call at now + d for each d in spawn[n - 1], before now (which
    is rejected), at now or later.  Returns what each call saw
    (number, now), and now and idle after each run."""
    seen = []
    numbers = itertools.count(1)

    def schedule(tick):
        return schedule_numbered(queue, numbers, tick, body)

    def body(q, n):
        seen.append((n, q.now))
        for delta in spawn[n - 1] if n <= len(spawn) else ():
            seen.append(("scheduled", schedule(q.now + delta)))

    for tick in first:
        seen.append(("scheduled", schedule(tick)))
    for until in stops + [None]:
        queue.run(until=until)
        seen.append(("ran", until, queue.now, queue.idle))
    return seen


def wait_for_calls(queue, first, spawn, waits):
    """`play`'s program of calls, driven by run_until: each wait (k, span)
    runs until k calls have run in all, with its deadline span ticks on.
    Returns the calls' (number, now) in order, what each call scheduled
    and each wait's result and now."""
    seen, ran = [], []
    numbers = itertools.count(1)

    def schedule(tick):
        return schedule_numbered(queue, numbers, tick, body)

    def body(q, n):
        ran.append(n)
        seen.append((n, q.now))
        for delta in spawn[n - 1] if n <= len(spawn) else ():
            seen.append(("scheduled", schedule(q.now + delta)))

    for tick in first:
        schedule(tick)
    for k, span in waits:
        done = queue.run_until(lambda: len(ran) >= k, queue.now + span)
        seen.append(("waited", done, queue.now))
    return seen


def numbered(n):
    """A datagram from node a (10.1.0.1) to node h (10.1.0.2) that carries
    `n` as its identification."""
    return Ipv4Datagram(src="10.1.0.1", dst="10.1.0.2", protocol=Protocol.ICMP,
                        payload=EchoRequest(1, n, 8), identification=n)


class Recorder:
    """A node handler that passes each arriving datagram's identification
    to `on_arrival`."""

    def __init__(self, on_arrival):
        self.on_arrival = on_arrival

    def on_datagram(self, sim, node, d):
        self.on_arrival(sim, d.identification)


def recording_link(sim, on_arrival, delay):
    """Nodes a and h of `numbered`, and a link a -> h of `delay` ticks; h
    passes each arrival's number to `on_arrival`."""
    sim.add_node("a", "10.1.0.1")
    sim.add_node("h", "10.1.0.2", Recorder(on_arrival))
    sim.add_link(LinkSpec("a", "h", delay=delay))
    sim.finalize_routes()


def play_batches(queue, first, spawn, sizes, stops, delay):
    """`play`'s program, where the call or datagram numbered n also injects
    sizes[n - 1] datagrams, numbered as they are injected, at node a; each
    runs its part of the program on arriving at node h, `delay` ticks on.
    On a Simulator the datagrams cross a real link, batched; on a HeapQueue
    each injection is a call at now and each arrival a call of its own."""
    seen = []
    numbers = itertools.count(1)

    def schedule(tick):
        return schedule_numbered(queue, numbers, tick, body)

    def body(q, n):
        seen.append((n, q.now))
        for delta in spawn[n - 1] if n <= len(spawn) else ():
            seen.append(("scheduled", schedule(q.now + delta)))
        batch = [next(numbers) for _ in range(sizes[n - 1] if n <= len(sizes) else 0)]
        if batch:
            seen.append(("injected", batch))
            inject(q, batch)

    if isinstance(queue, Simulator):
        recording_link(queue, body, delay)

        def inject(sim, batch):
            sim.inject("a", *map(numbered, batch))
    else:
        def inject(heap, batch):
            def emit(q):
                for n in batch:
                    q.schedule_call(q.now + delay, lambda q, n=n: body(q, n))
            heap.schedule_call(heap.now, emit)

    for tick in first:
        seen.append(("scheduled", schedule(tick)))
    for until in stops + [None]:
        queue.run(until=until)
        seen.append(("ran", until, queue.now, queue.idle))
    return seen


def reject_call_before_now(sim, order):
    """Check that a call one tick before now is refused with an error that
    names both ticks, and that it queues nothing."""
    queued = (list(sim._ticks), {t: list(b) for t, b in sim._buckets.items()})
    with pytest.raises(ValueError, match=rf"tick {sim.now - 1} is before now \({sim.now}\)"):
        sim.schedule_call(sim.now - 1, lambda s: order.append("past"))
    assert (sim._ticks, {t: list(b) for t, b in sim._buckets.items()}) == queued


class TestEventOrder:
    @given(
        first=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        spawn=st.lists(st.lists(st.integers(-6, 12), max_size=3), max_size=40),
        waits=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 30)), max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_run_until_stops_where_tick_by_tick_steps_stop(self, first, spawn, waits):
        expected = wait_for_calls(HeapQueue(), first, spawn, waits)
        assert wait_for_calls(Simulator(keep_trace=False), first, spawn, waits) == expected

    @given(
        first=st.lists(st.integers(0, 12), min_size=1, max_size=8),
        spawn=st.lists(st.lists(st.integers(-6, 6), max_size=3), max_size=40),
        stops=st.lists(st.integers(0, 30), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_calls_run_in_reference_heap_order(self, first, spawn, stops):
        expected = play(HeapQueue(), first, spawn, stops)
        assert play(Simulator(keep_trace=False), first, spawn, stops) == expected

    @given(
        first=st.lists(st.integers(0, 12), min_size=1, max_size=6),
        spawn=st.lists(st.lists(st.integers(-6, 6), max_size=3), max_size=30),
        sizes=st.lists(st.integers(0, 4), max_size=30),
        stops=st.lists(st.integers(0, 30), max_size=4),
        delay=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_arrivals_run_in_reference_heap_order(self, first, spawn, sizes, stops, delay):
        expected = play_batches(HeapQueue(), first, spawn, sizes, stops, delay)
        assert play_batches(Simulator(keep_trace=False), first, spawn, sizes, stops, delay) == expected

    def test_call_into_the_past_leaves_the_bucket_it_interrupts(self):
        sim = Simulator()
        order = []

        def a(s):
            order.append(("a", s.now, s.idle))
            reject_call_before_now(s, order)
            s.schedule_call(s.now, lambda s: order.append(("at now", s.now, s.idle)))

        sim.schedule_call(5, a)
        sim.schedule_call(5, lambda s: order.append(("b", s.now, s.idle)))
        reject_call_before_now(sim, order)
        sim.run()
        # a tick stays queued until its last event has run
        assert order == [("a", 5, False), ("b", 5, False), ("at now", 5, False)]
        assert sim.now == 5 and sim.idle

    def test_call_into_the_past_from_mid_group_leaves_the_rest_in_front(self):
        sim = Simulator()
        order = []

        def on_arrival(s, n):
            order.append((n, s.now, s.idle))
            if n == 2:  # with datagram 3 still to come
                reject_call_before_now(s, order)
                s.schedule_call(s.now, lambda s: order.append(("at now", s.now, s.idle)))

        recording_link(sim, on_arrival, delay=5)
        sim.run(until=3)
        sim.inject("a", *map(numbered, (1, 2, 3)))  # arrives at 8
        # queued after the emit has run: behind the group at tick 8
        sim.schedule_call(3, lambda s: s.schedule_call(8, lambda s: order.append(("b", s.now, s.idle))))
        sim.run()
        assert order == [(1, 8, False), (2, 8, False), (3, 8, False), ("b", 8, False), ("at now", 8, False)]
        assert sim.now == 8 and sim.idle

def attack_cut_short():
    """A scenario-built simulator whose attack stops, by run(until=...), one
    tick into its first batch: forged packets are still in flight."""
    doc = sc.nat_scenario_doc("cut-short", with_probe=False, ephemeral_range=(40000, 40063),
                              port_range=(40000, 40063), interleave_batch=16)
    handles = sc.build(sc.load_scenario(doc), seed=1)
    sc.establish(handles)
    sim, plan = handles.sim, handles.plan
    for d in craft_rst_sweep(plan) + craft_push_ack_sweep(plan):
        sim.inject(handles.attacker_node, d)
    sim.run(until=sim.now + 1)
    return sim


def chain_cut_short():
    sim = chain()
    sim.inject("n0", big_echo())
    sim.schedule_call(50, lambda s: s.inject("n2", rst(dst="10.1.0.1")))
    sim.run(until=1)
    return sim


class TestQueueHoldsNoCycle:
    """No queued event refers back to its simulator (an event that held a
    bound method of it would), so a simulator dropped with events still
    queued is freed by reference counting alone."""

    @pytest.mark.parametrize("make", [chain_cut_short, attack_cut_short])
    def test_dropped_simulator_is_freed_without_the_collector(self, make):
        gc.collect()
        gc.disable()
        try:
            sim = make()
            assert not sim.idle
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()


class TestForwarding:
    def test_df_drop_emits_frag_needed(self):
        sim = chain(3)
        sim.set_link_mtu("n1", "n2", 600)
        sim.inject("n0", big_echo(df=True))
        sim.run()
        drop = [r for r in sim.trace if r.action == "drop"]
        assert drop and drop[0].reason == "needs-fragmentation" and drop[0].node == "n1"
        notices = [
            r for r in sim.trace
            if r.action == "deliver" and isinstance(r.dgram.payload, FragNeeded)
        ]
        assert len(notices) == 1
        assert notices[0].node == "n0"  # back at the source
        assert notices[0].dgram.payload.next_hop_mtu == 600
        assert notices[0].dgram.src == "10.1.0.2"  # emitted by the constraining hop

    def test_df_clear_fragments_in_offset_order(self):
        sim = chain(3)
        sim.set_link_mtu("n1", "n2", 1492)
        sim.inject("n0", big_echo())
        sim.run()
        arrived = [r.dgram for r in sim.trace if r.action == "deliver" and r.node == "n2"]
        assert [d.total_length for d in arrived] == [1492, 28]
        assert [d.fragment_offset for d in arrived] == [0, 184]

    @pytest.mark.parametrize("d", [
        rst(length=100, dst="10.1.0.2"),
        Ipv4Datagram(src="10.1.0.1", dst="10.1.0.2", protocol=Protocol.ICMP,
                     payload=EchoRequest(1, 1, 200), df=True),
        big_echo(dst="10.1.0.2", size=300),
        Ipv4Datagram(src="10.1.0.1", dst="10.1.0.2", protocol=Protocol.ICMP,
                     payload=bytes(96), identification=5, more_fragments=True),
    ], ids=["tcp", "echo-request", "echo-reply", "raw-fragment"])
    def test_mtu_test_reads_the_total_length(self, d):
        for mtu, whole in ((d.total_length, True), (d.total_length - 1, False)):
            sim = chain(2)
            sim.set_link_mtu("n0", "n1", mtu)
            sim.inject("n0", d)
            sim.run()
            arrived = [r.dgram for r in sim.trace if r.action == "deliver"]
            assert (arrived == [d]) is whole, mtu

    def test_fitting_passes_unchanged(self):
        sim = chain(3)
        sim.set_link_mtu("n1", "n2", 576)
        d = big_echo(size=400)
        sim.inject("n0", d)
        sim.run()
        arrived = [r.dgram for r in sim.trace if r.action == "deliver" and r.node == "n2"]
        assert arrived == [d]

    def test_no_route_drop(self):
        sim = chain(2)
        sim.inject("n0", rst(dst="99.99.99.99"))
        sim.run()
        assert any(r.action == "drop" and r.reason == "no-route" for r in sim.trace)

    def test_filter_drop_recorded(self):
        sim = Simulator(seed=1)
        sim.add_node("a", "1.1.1.1", transit=True)
        sim.add_node("b", "2.2.2.2", transit=True)
        sim.add_link(LinkSpec("a", "b", filter=MiddleboxFilter(
            frozenset({DropClass.TCP_RST_INBOUND}))))
        sim.finalize_routes()
        sim.inject("a", rst(dst="2.2.2.2", src="1.1.1.1"))
        sim.run()
        drops = [r for r in sim.trace if r.action == "drop"]
        assert drops and drops[0].reason == "filtered-tcp-rst-inbound"


def old_matches(drop_classes, d):
    """MiddleboxFilter.matches as it tested its classes on every call: the
    reference for the tests decided once at construction."""
    p = d.payload
    if DropClass.ALL in drop_classes:
        return DropClass.ALL
    if DropClass.ICMP_ERROR in drop_classes and isinstance(p, FragNeeded):
        return DropClass.ICMP_ERROR
    if DropClass.ICMP_ECHO in drop_classes and isinstance(p, (EchoRequest, EchoReply)):
        return DropClass.ICMP_ECHO
    if (
        DropClass.TCP_RST_INBOUND in drop_classes
        and isinstance(p, TcpSegment)
        and int(p.flags) & TcpFlag.RST
    ):
        return DropClass.TCP_RST_INBOUND
    return None


FILTERED_PAYLOADS = {
    "tcp-rst": rst(),
    "tcp-no-rst": Ipv4Datagram(src="10.1.0.1", dst="10.1.0.3", protocol=Protocol.TCP,
                               payload=TcpSegment(80, 4444, seq=0, flags=TcpFlag.PSH | TcpFlag.ACK)),
    "echo-request": Ipv4Datagram(src="10.1.0.1", dst="10.1.0.3", protocol=Protocol.ICMP,
                                 payload=EchoRequest(1, 1, 40)),
    "echo-reply": big_echo(size=100),
    "frag-needed": Ipv4Datagram(src="10.1.0.1", dst="10.1.0.3", protocol=Protocol.ICMP,
                                payload=FragNeeded(576, bytes(28))),
    "raw-fragment": Ipv4Datagram(src="10.1.0.1", dst="10.1.0.3", protocol=Protocol.ICMP,
                                 payload=bytes(64), identification=9, more_fragments=True),
}


class TestMiddleboxFilter:
    @pytest.mark.parametrize("kind", sorted(FILTERED_PAYLOADS))
    def test_every_class_subset_matches_as_the_per_call_tests_did(self, kind):
        d = FILTERED_PAYLOADS[kind]
        for n in range(len(DropClass) + 1):
            for subset in itertools.combinations(DropClass, n):
                classes = frozenset(subset)
                assert MiddleboxFilter(classes).matches(d) is old_matches(classes, d), classes


class TestConservation:
    def test_every_packet_has_one_fate(self):
        sim = chain(4, seed=5, loss=0.4)
        for i in range(30):
            sim.inject("n0", rst(length=i, dst="10.1.0.4"))
        sim.run()
        fates = [r for r in sim.trace if r.action in ("deliver", "drop")]
        assert len(fates) == 30  # nothing duplicated, nothing vanished

    def test_fragment_group_fate(self):
        sim = chain(3)
        sim.set_link_mtu("n1", "n2", 600)
        sim.inject("n0", big_echo())
        sim.run()
        frag_events = [r for r in sim.trace if r.action == "fragment"]
        delivered = [r for r in sim.trace if r.action == "deliver"]
        assert len(frag_events) == 1
        assert sum(d.dgram.total_length - 20 for d in delivered) == 1480


class TestTraceFormat:
    LINE = re.compile(
        r"^\d+\t\w+\t(send|forward|fragment|drop|deliver)\t[^\t]*\t"
        r"(TCP|ICMP) \d+\.\d+\.\d+\.\d+:\d+>\d+\.\d+\.\d+\.\d+:\d+ \S+ \d+ \d+ \d+ (DF|MF|-) \d+$"
    )

    def test_line_shape(self):
        sim = chain(3)
        sim.set_link_mtu("n1", "n2", 600)
        sim.inject("n0", big_echo())
        sim.inject("n0", rst())
        sim.run()
        for rec in sim.trace:
            assert self.LINE.match(line(rec)), line(rec)

    def test_flag_rendering(self):
        sim = chain(2)
        sim.inject("n0", rst(dst="10.1.0.2"))
        sim.run()
        first = line(next(iter(sim.trace)))
        assert "\tsend\t" in first and " R " in first


class TestKeptTrace:
    def test_a_kept_record_costs_its_five_slots(self):
        # the records share one datagram and one tick, so what each costs is
        # its place in the trace: five list slots, not a tuple of its own
        sim = chain(2)
        d = rst(dst="10.1.0.2")
        n = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(n):
                sim.record("n0", "send", "", d)
            per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(sim.trace) == n
        assert per_record < 48

    def test_records_read_back_as_they_were_made(self):
        sim = chain(3, seed=7, loss=0.2)
        sim.set_link_mtu("n1", "n2", 600)
        sent = []
        for i in range(4):
            for d in (big_echo(size=700 + i), rst(length=i)):
                sent.append(d)
                sim.inject("n0", d)
        sim.run()
        trace = sim.trace
        rows = list(trace.rows())
        assert len(trace) == len(rows) > 10
        assert list(trace) == rows
        assert all(type(rec) is TraceRecord for rec in trace)
        # each inject records its send at once, and the record holds the datagram itself
        sends = list(trace)[:len(sent)]
        assert {(rec.tick, rec.node, rec.action, rec.reason) for rec in sends} == {(0, "n0", "send", "")}
        assert all(rec.dgram is d for rec, d in zip(sends, sent))


def collecting(seen, until=lambda d: False):
    """A hook that appends each datagram it is shown to `seen` and returns until(d)."""
    def hook(d):
        seen.append(d)
        return until(d)

    return hook


def ids(datagrams):
    return [id(d) for d in datagrams]


class TestHookSlots:
    """`Simulator.on_drop` holds a hook per drop reason and `Node.on_arrival`
    one per node; each is called with the datagram, and one that returns
    True is cleared from its slot."""

    def test_a_fresh_simulator_has_no_hook(self):
        sim, _, _, _ = nat_triangle()
        assert sim.on_drop == {}
        assert all(node.on_arrival is None for node in sim.nodes.values())

    def test_a_drop_hook_sees_exactly_the_drops_of_its_reason(self):
        sim = chain(3, seed=7, loss=0.3)
        sim.set_link_mtu("n1", "n2", 600)
        lost = []
        sim.on_drop["loss"] = collecting(lost)
        for i in range(40):  # lost, unrouted, or too big to pass n1
            sim.inject("n0", rst(length=i), rst(dst="10.9.9.9"), big_echo(size=700 + i, df=True))
        sim.run()
        drops = [rec for rec in sim.trace if rec.action == "drop"]
        assert ids(lost) == ids(rec.dgram for rec in drops if rec.reason == "loss")
        assert lost and {rec.reason for rec in drops} == {"loss", "no-route", "needs-fragmentation"}
        assert list(sim.on_drop) == ["loss"]

    def test_an_arrival_hook_sees_what_its_node_takes_in_and_no_transit(self):
        sim, client, _, _ = nat_triangle()
        at_nat = []
        sim.nodes["nat"].on_arrival = collecting(at_nat)
        connect(sim, client)
        taken = [rec for rec in sim.trace if rec.node == "nat" and rec.action in ("deliver", "forward")]
        assert ids(at_nat) == ids(rec.dgram for rec in taken)
        assert {rec.action for rec in taken} == {"deliver", "forward"}
        # a router's transit hop is no intake: only the datagrams' last hop sees them
        sim = chain(3)
        at_router, at_end = [], []
        sim.nodes["n1"].on_arrival = collecting(at_router)
        sim.nodes["n2"].on_arrival = collecting(at_end)
        sent = [rst(length=i) for i in range(3)]
        sim.inject("n0", *sent)
        sim.run()
        assert at_router == [] and ids(at_end) == ids(sent)
        assert [rec.action for rec in sim.trace if rec.node == "n1"] == ["forward"] * 3

    def test_a_drop_hook_that_returns_true_is_cleared_others_stay(self):
        sim = chain(3, seed=7, loss=0.3)
        lost, unrouted = [], []
        sim.on_drop["loss"] = collecting(lost, until=lambda d: True)
        sim.on_drop["no-route"] = unrouted_hook = collecting(unrouted)
        for i in range(40):  # lost or unrouted
            sim.inject("n0", rst(length=i), rst(dst="10.9.9.9"))
        sim.run()
        drops = [rec.reason for rec in sim.trace if rec.action == "drop"]
        assert drops.count("loss") > 1 and len(lost) == 1
        assert len(unrouted) == drops.count("no-route") == 40
        assert sim.on_drop == {"no-route": unrouted_hook}

    def test_an_arrival_hook_that_returns_true_is_cleared_others_stay(self):
        sim, client, _, _ = nat_triangle()
        at_nat, at_server = [], []
        sim.nodes["nat"].on_arrival = collecting(at_nat, until=lambda d: True)
        sim.nodes["server"].on_arrival = server_hook = collecting(at_server)
        connect(sim, client)
        assert sim.nodes["nat"].on_arrival is None and sim.nodes["server"].on_arrival is server_hook
        # the SYN the NAT took in to forward, and none of its later arrivals
        taken = [rec for rec in sim.trace if rec.node == "nat" and rec.action in ("deliver", "forward")]
        assert ids(at_nat) == ids([taken[0].dgram]) and len(taken) > 2
        assert ids(at_server) == ids(rec.dgram for rec in sim.trace
                                     if rec.node == "server" and rec.action == "deliver")
        assert len(at_server) > 1

    def test_an_arrival_hook_cleared_mid_group_is_called_once(self):
        """A hook that returns True on a group's first datagram is called
        for that one alone, while the handler takes in the whole group."""
        taken = []

        class Taking:
            def on_datagram(self, sim, node, d):
                taken.append(d)

        sim = Simulator(seed=1)
        sim.add_node("a", "10.1.0.1")
        sim.add_node("x", "10.1.0.2", Taking(), intercept=True)
        sim.add_node("b", "10.1.0.3")
        sim.add_link(LinkSpec("a", "x"))
        sim.add_link(LinkSpec("x", "b"))
        sim.finalize_routes()
        seen = []
        sim.nodes["x"].on_arrival = collecting(seen, until=lambda d: True)
        sent = [rst(length=i) for i in range(4)]
        sim.inject("a", *sent)
        sim.run()
        # one group: every datagram crossed a -> x at the same tick
        assert [(rec.tick, rec.action) for rec in sim.trace if rec.node == "x"] == [(1, "forward")] * 4
        assert ids(seen) == ids(sent[:1])
        assert sim.nodes["x"].on_arrival is None
        assert ids(taken) == ids(sent)

    @pytest.mark.parametrize("topology", ["nat", "opaque-router"])
    def test_a_mixed_group_runs_as_the_reference(self, monkeypatch, topology):
        """A group that holds datagrams for the node and datagrams past it
        makes the records and counts of one arrival at a time."""

        def run():
            if topology == "nat":  # delivered to the NAT, and translated past it
                sim, _, _, _ = helpers.nat_triangle()
                ping = [Ipv4Datagram(src="10.0.0.2", dst="6.6.6.6", protocol=Protocol.ICMP,
                                     payload=EchoRequest(1, n, 8)) for n in range(2)]
                at, node, mix = "client", "nat", (ping[0], rst(src="10.0.0.2", dst="7.7.7.7"), ping[1])
            else:  # delivered to n1, and no route past it
                sim = helpers.chain(3, opaque=1)
                at, node, mix = "n0", "n1", (rst(dst="10.1.0.2"), rst(), rst(dst="10.1.0.2"))
            sim.inject(at, *mix)
            sim.run(until=20)
            taken = [rec.action for rec in sim.trace if rec.node == node and rec.tick == 1
                     and rec.action != "send"]
            return [line(rec) for rec in sim.trace], sim.counters, taken

        lines, counters, taken = run()
        assert taken == ["deliver", "forward" if topology == "nat" else "drop", "deliver"]
        monkeypatch.setattr(helpers, "Simulator", ReferenceSimulator)
        assert run() == (lines, counters, taken)


class Tracked(Ipv4Datagram):
    """A datagram a weak set can count: each one alive is held by the stream
    that made it or by the renderer."""

    __slots__ = ("__weakref__",)


def tracked(n: int) -> Tracked:
    """Datagram number n, whose packet column differs from its neighbours'."""
    if n % 5 == 0:
        return Tracked("10.1.0.1", "10.1.0.3", Protocol.ICMP, EchoReply(1, n % 0x10000, n % 50))
    return Tracked("10.1.0.1", "10.1.0.3", Protocol.TCP,
                   TcpSegment(80, 4444, seq=n, flags=TcpFlag.RST, payload_length=n % 7))


# a render plan step: (datagrams made, records each, kept for re-sending), or
# i: the kept datagram i (modulo how many are kept) once more
RENDER_STEP = st.one_of(st.tuples(st.integers(1, 1200), st.integers(1, 2), st.booleans()),
                        st.integers(0, 50))


class TestRenderLines:
    @staticmethod
    def reference(records):
        return "".join(line(rec) + "\n" for rec in records)

    def test_more_datagrams_than_the_cache_holds(self):
        dgrams = [rst(length=i % 7) if i % 3 else big_echo(size=100 + i)
                  for i in range(2 * SUMMARY_CACHE_ENTRIES + 5)]
        records = []
        for i, d in enumerate(dgrams):  # each datagram sent, then delivered
            records += [TraceRecord(i, "n0", "send", "", d), TraceRecord(i + 1, "n2", "deliver", "", d)]
        # and all of them once more, long after the cache was cleared
        records += [TraceRecord(9999, "n1", "drop", "loss", d) for d in reversed(dgrams)]
        assert "".join(render_chunks(records, 1024)) == self.reference(records)

    def test_every_field_of_a_tcp_column(self):
        # each flags value, with DF, MF and neither, at offsets 0 and 3
        dgrams = [
            Ipv4Datagram("10.1.0.1", "10.1.0.3", Protocol.TCP,
                         TcpSegment(1000 + bits, 80, seq=bits * 7, ack=bits * 11, flags=TcpFlag(bits),
                                    payload_length=bits % 9),
                         df=frag == "DF", more_fragments=frag == "MF", fragment_offset=offset)
            for bits in range(32) for frag in ("DF", "MF", "-")
            for offset in ((0,) if frag == "DF" else (0, 3))
        ]
        records = [TraceRecord(i, "n0", "send", "", d) for i, d in enumerate(dgrams)]
        assert "".join(render_chunks(records, 64)) == self.reference(records)

    def test_records_made_while_rendering(self):
        # each batch of datagrams is freed once its records are rendered, so
        # the next batch is allocated where it was, under the same ids
        def records():
            for b in range(3 * SUMMARY_CACHE_ENTRIES // 64):
                batch = [rst(length=64 * b + i) for i in range(64)]
                yield from [TraceRecord(b, "n0", "send", "", d) for d in batch]
                del batch

        assert "".join(render_chunks(records(), 1024)) == self.reference(records())

    @given(plan=st.lists(RENDER_STEP, max_size=6), lines=st.integers(1, 3000))
    @example(plan=[(1, 1, True), (SUMMARY_CACHE_ENTRIES + 100, 1, False), 0], lines=1024)
    @settings(max_examples=30, deadline=None)
    def test_chunks_are_the_reference_lines(self, plan, lines):
        # made datagrams that are not kept are freed once the renderer lets
        # them go, so later ones can take their ids
        live = weakref.WeakSet()
        expected = []

        def records():
            kept, made = [], 0

            def record(d, n):
                rec = TraceRecord(n // 3, f"n{n % 3}", ("send", "forward", "drop")[n % 3],
                                  "loss" if n % 3 == 2 else "", d)
                expected.append(line(rec) + "\n")
                # the stream holds the kept datagrams, `d` and the renderer's
                # last one; every other datagram alive is in its cache
                assert len(live) - len(kept) - 2 <= SUMMARY_CACHE_ENTRIES
                return rec

            for step in plan:
                if isinstance(step, int):
                    if kept:
                        yield record(kept[step % len(kept)], len(expected))
                    continue
                count, each, keep = step
                for _ in range(count):
                    d = tracked(made)
                    made += 1
                    live.add(d)
                    if keep:
                        kept.append(d)
                    for _ in range(each):
                        yield record(d, len(expected))
                    del d

        chunks = list(render_chunks(records(), lines))
        assert "".join(chunks) == "".join(expected)
        assert all(chunk.count("\n") == lines for chunk in chunks[:-1])
        assert not chunks or 0 < chunks[-1].count("\n") <= lines


class ParentWalkRoutes:
    """The routing that per-node forwarding tables replaced, kept as their
    reference: add_link appends a neighbour on its first link, and each
    source's BFS records every node's parent, then walks back from each
    destination to its first hop."""

    def __init__(self, addresses, links):
        self.addresses = addresses  # node -> address
        self.links, neighbors = {}, {node: [] for node in addresses}
        for frm, to, mtu in links:
            self.links[(frm, to)] = mtu
            if to not in neighbors[frm]:
                neighbors[frm].append(to)
        self.routes = {}
        for origin in addresses:
            parent = {origin: origin}
            queue = [origin]
            while queue:
                cur = queue.pop(0)
                for nb in neighbors[cur]:
                    if nb not in parent:
                        parent[nb] = cur
                        queue.append(nb)
            nxt = {}
            for dest in parent:
                if dest == origin:
                    continue
                hop = dest
                while parent[hop] != origin:
                    hop = parent[hop]
                nxt[addresses[dest]] = hop
            self.routes[origin] = nxt

    def path_min_mtu(self, node, dst_addr):
        best, seen = None, set()
        while self.addresses[node] != dst_addr:
            if node in seen:
                return None
            seen.add(node)
            hop = self.routes[node].get(dst_addr)
            if hop is None:
                return None
            mtu = self.links[(node, hop)]
            best = mtu if best is None else min(best, mtu)
            node = hop
        return best

    def fate(self, node, dst_addr):
        """(node, action, reason) of each record a datagram makes from
        `node` toward dst_addr when every node forwards transit packets."""
        hop = self.routes[node].get(dst_addr)
        if hop is None:
            return [(node, "drop", "no-route")]
        path = [hop]
        while self.addresses[path[-1]] != dst_addr:
            path.append(self.routes[path[-1]][dst_addr])
        return [(n, "forward", "") for n in path[:-1]] + [(path[-1], "deliver", "")]


MTUS = st.sampled_from([576, 600, 1280, 1492, 1500])


class TestRouting:
    @given(
        n=st.integers(1, 8),
        links=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), MTUS), max_size=20),
        again=st.lists(MTUS, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_forwarding_tables_route_as_the_parent_walk_did(self, n, links, again, data):
        # the first links are added once more with new MTUs, and every
        # add_link call comes in shuffled order
        calls = links + [(a, b, mtu) for (a, b, _), mtu in zip(links, again)]
        calls = [(f"n{a % n}", f"n{b % n}", mtu) for a, b, mtu in data.draw(st.permutations(calls))]
        addresses = {f"n{i}": f"10.1.0.{i + 1}" for i in range(n)}
        ref = ParentWalkRoutes(addresses, calls)
        sim = Simulator(keep_trace=True)
        for node, address in addresses.items():
            sim.add_node(node, address, transit=True)
        for frm, to, mtu in calls:
            sim.add_link(LinkSpec(frm, to, mtu=mtu))
        sim.finalize_routes()
        for origin in addresses:
            assert {dst: route[0] for dst, route in sim.forwarding[origin].items()} == ref.routes[origin]
            for dst in [*addresses.values(), "10.9.9.9"]:
                assert sim.path_min_mtu(origin, dst) == ref.path_min_mtu(origin, dst)
                mark = len(sim.trace)
                sim.forward_from(origin, rst(dst=dst))
                sim.run()
                fate = [(rec.node, rec.action, rec.reason) for rec in itertools.islice(sim.trace, mark, None)]
                assert fate == ref.fate(origin, dst)

    def test_destinations_sharing_a_lossy_link_share_its_stream(self):
        sim = Simulator(seed=3)
        for i in range(3):
            sim.add_node(f"n{i}", f"10.1.0.{i + 1}", transit=True)
        sim.add_link(LinkSpec("n0", "n1", loss=0.5))
        sim.add_link(LinkSpec("n1", "n2"))
        sim.finalize_routes()
        sent = [rst(length=i, dst=("10.1.0.2", "10.1.0.3")[i % 2]) for i in range(60)]
        for d in sent:
            sim.inject("n0", d)
        sim.run()
        stream = derive_rng(3, "loss", "n0", "n1")
        expected = [d for d in sent if stream.random() < 0.5]
        dropped = [r.dgram for r in sim.trace if r.action == "drop"]
        assert all(r.reason == "loss" and r.node == "n0" for r in sim.trace if r.action == "drop")
        assert 0 < len(dropped) < len(sent) and dropped == expected

    def test_path_min_mtu(self):
        sim = chain(4)
        sim.set_link_mtu("n1", "n2", 700)
        sim.set_link_mtu("n2", "n3", 900)
        assert sim.path_min_mtu("n0", "10.1.0.4") == 700
        assert sim.path_min_mtu("n3", "10.1.0.1") == 1500
        assert sim.path_min_mtu("n0", "8.8.8.8") is None

    def test_set_link_mtu_below_the_minimum_is_rejected(self):
        sim = chain(2)
        with pytest.raises(ValueError, match=r"^mtu: 67 is below the minimum 68$"):
            sim.set_link_mtu("n0", "n1", 67)
        assert sim.links[("n0", "n1")].mtu == 1500

    @pytest.mark.parametrize("change, error, message", [
        (lambda sim: sim.add_node("n0", "10.9.9.9"), FabricError, "duplicate node n0"),
        (lambda sim: sim.add_node("n9", "10.1.0.1"), FabricError, "duplicate address 10.1.0.1"),
        (lambda sim: sim.add_link(LinkSpec("n0", "ghost")), NoSuchNodeError, "no-such-node: link n0->ghost"),
        (lambda sim: sim.set_link_mtu("n0", "n2", 576), NoSuchNodeError, "no-such-node: link n0->n2"),
    ], ids=["node", "address", "link", "link-mtu"])
    def test_a_topology_error_changes_nothing(self, change, error, message):
        sim = chain()
        before = (dict(sim.nodes), dict(sim.addr_to_node), dict(sim.links))
        with pytest.raises(error, match=f"^{message}$"):
            change(sim)
        assert (sim.nodes, sim.addr_to_node, sim.links) == before

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("a", "b", mtu=60)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", delay=0)
        with pytest.raises(ValueError):
            LinkSpec("a", "b", loss=1.5)
