"""Evidence gathered while a run happens (the probe's from the vantage's
arrival log, the strike's from its drop and arrival hooks) equals what a
rescan of the kept trace finds afterwards, and a run that only counts its
trace records behaves exactly like one that keeps them."""

import dataclasses
from collections import Counter

import pytest

from natsim import assess, probe, strike
from natsim import scenario as sc
from natsim.fabric import DropClass, Simulator, TraceNotKeptError, keep_traces
from natsim.probe import VerdictReason
from natsim.strike import FailureDiagnosis
from natsim.wire import EchoRequest, Ipv4Datagram, Protocol, TcpFlag, TcpSegment

import evidence_oracle as oracle

SEEDS = range(24)
FAST = dict(ephemeral_range=(40000, 40063), port_range=(40000, 40063), interleave_batch=16)


def lossy_reply_doc(make, name):
    """A reply fragmented at a 576 re-dial, then a fifth of it lost on
    r1->vantage: some replies come in part, some sessions never open."""
    doc = make(name, pre_echo_mtu=576)
    for link in doc["links"]:
        if (link["from"], link["to"]) == ("r1", "vantage"):
            link["loss"] = 0.2
    return doc


LOSSY_REPLY_DOCS = [
    lossy_reply_doc(sc.nat_scenario_doc, "ev-lossy-reply-nat"),
    lossy_reply_doc(sc.host_scenario_doc, "ev-lossy-reply-host"),
]
IDENTIFY_DOCS = [
    sc.nat_scenario_doc("ev-leaky"),
    sc.nat_scenario_doc("ev-synchronized", pmtud_sync="synchronized"),
    sc.host_scenario_doc("ev-host"),
    sc.nat_scenario_doc("ev-576-nat", pre_echo_mtu=576),
    sc.host_scenario_doc("ev-576-host", pre_echo_mtu=576),
    sc.nat_scenario_doc("ev-icmp-filter", nat_inbound_filter=["icmp-error"]),
    *LOSSY_REPLY_DOCS,
]


def fast_attack_doc(name, **kw):
    return sc.nat_scenario_doc(name, with_probe=False, **FAST, **kw)


def unrouted_attack_doc(name):
    """No link leaves the attacker, so every forged packet drops as
    no-route where it was sent; the loader checks connectivity without
    direction, so the document still loads."""
    doc = fast_attack_doc(name)
    doc["links"] = [link for link in doc["links"] if link["from"] != "attacker"]
    return doc


ATTACK_DOCS = [
    fast_attack_doc("ev-remove-rst-reply"),
    fast_attack_doc("ev-remove-silent-drop", unmapped_inbound="silent-drop"),
    fast_attack_doc("ev-forward-only", rst_handling="forward-only"),
    fast_attack_doc("ev-strict-validate", rst_handling="strict-validate"),
    fast_attack_doc("ev-openbsd", server_profile="openbsd-like", port_allocation="preserving"),
    fast_attack_doc("ev-rst-filter", nat_inbound_filter=["tcp-rst-inbound"]),
    # forged RSTs both lost and filtered: the filter decides
    fast_attack_doc("ev-rst-filter-lossy", nat_inbound_filter=["tcp-rst-inbound"], loss=0.3),
    fast_attack_doc("ev-lossy", loss=0.3),
    fast_attack_doc("ev-all-lost", loss=1.0),
    # no forged RST leaves any evidence: the ladder's last rung
    unrouted_attack_doc("ev-no-route"),
    # the NAT's external ports lie outside both sweeps: no forged RST matches a mapping
    fast_attack_doc("ev-seeded-random", port_allocation="seeded-random"),
]


# the drop reasons the diagnosis reads
EVIDENCE_DROPS = {"loss", "rst-out-of-window", *(f"filtered-{cls.value}" for cls in DropClass)}


def holds_no_hook(sim) -> bool:
    """No drop reason and no node has a hook in its slot."""
    return sim.on_drop == {} and all(node.on_arrival is None for node in sim.nodes.values())


def count_hook_calls(monkeypatch, count):
    """Make every evidence hook of the attacks that follow call
    `count(slot, kind, seen)` first: `slot` is its drop reason or node id,
    `kind` the evidence it looks for, `seen` the evidence set so far."""
    make = strike._evidence_hooks

    def counted(handles, seen):
        on_drop, on_arrival = make(handles, seen)
        kind_at = {h.node_id: "rst-at-client" for h, _ in handles.victims}
        kind_at[handles.nat.node_id] = "rst-at-nat"
        kind_at[handles.server_host.node_id] = "push-at-server"

        def counting(slot, kind, hook):
            def call(d):
                count(slot, kind, seen)
                return hook(d)

            return call

        return ({reason: counting(reason, oracle._drop_kind(reason), hook)
                 for reason, hook in on_drop.items()},
                {node: counting(node, kind_at[node], hook) for node, hook in on_arrival.items()})

    monkeypatch.setattr(strike, "_evidence_hooks", counted)


@pytest.fixture
def attack_windows(monkeypatch):
    """Every attack run's (handles, window start, dup ACKs before)."""
    windows = []
    run = strike.run_dos_attack

    def recording(handles):
        windows.append((handles, handles.sim.now, handles.server_host.dup_acks_sent))
        return run(handles)

    monkeypatch.setattr(strike, "run_dos_attack", recording)
    return windows


def test_echo_reply_evidence_matches_trace_rescan():
    partial_replies = 0
    for doc in IDENTIFY_DOCS:
        scn = sc.load_scenario(doc)
        vantage = scn.probe.vantage
        for seed in SEEDS:
            try:
                with keep_traces():
                    verdict, handles = assess.identify_scenario(scn, seed=seed)
            except sc.EstablishError:
                assert doc in LOSSY_REPLY_DOCS, (doc["name"], seed)
                continue
            echoes = [r.tick for r in handles.sim.trace
                      if r.node == vantage and r.action == "send"
                      and isinstance(r.dgram.payload, EchoRequest)]
            frags = []
            if echoes:
                frags = oracle.reply_fragments(handles.sim, vantage, scn.target_addr, echoes[-1])
            ev = verdict.evidence
            assert ev.echo_reply_fragments == [total for total, _, _ in frags], (doc["name"], seed)
            assert ev.echo_reply_boundaries == frozenset(
                off * 8 for _, off, _ in frags if off > 0), (doc["name"], seed)
            assert holds_no_hook(handles.sim)
            partial_replies += verdict.reason is VerdictReason.NO_ECHO_REPLY and bool(frags)
    assert partial_replies


def test_identification_installs_no_hook(monkeypatch):
    """The probe reads what the vantage took in from its arrival log alone:
    no record made while it runs finds a hook in a slot."""
    unhooked_at_record, probing = [], []
    record, run = Simulator.record, probe.run_identification

    def checking_record(sim, *rec):
        if probing:
            unhooked_at_record.append(holds_no_hook(sim))
        record(sim, *rec)

    def flagged(handles):
        probing.append(True)
        try:
            return run(handles)
        finally:
            probing.pop()

    monkeypatch.setattr(Simulator, "record", checking_record)
    monkeypatch.setattr(probe, "run_identification", flagged)
    for doc in IDENTIFY_DOCS:
        assess.identify_scenario(sc.load_scenario(doc), seed=0)
    assert unhooked_at_record and all(unhooked_at_record)


def test_failure_diagnosis_matches_trace_rescan(attack_windows):
    diagnoses = Counter()
    for doc in ATTACK_DOCS:
        scn = sc.load_scenario(doc)
        for seed in SEEDS:
            with keep_traces():
                report, handles = assess.attack_scenario(scn, seed=seed)
            attacked, start, dup_acks_before = attack_windows.pop()
            assert attacked is handles and holds_no_hook(handles.sim)
            if report.success:
                continue
            want = oracle.diagnose(handles.sim, handles.plan, handles, report, start, dup_acks_before)
            assert report.failure_diagnosis is want, (doc["name"], seed)
            diagnoses[want] += 1
    assert set(diagnoses) == set(FailureDiagnosis), diagnoses


@pytest.mark.parametrize("doc", [ATTACK_DOCS[0], ATTACK_DOCS[3], ATTACK_DOCS[5], ATTACK_DOCS[7]],
                         ids=lambda d: d["name"])
def test_evidence_reads_only_watched_drops_and_arrivals(doc, attack_windows, monkeypatch):
    """At seed 1 the evidence test runs once per drop of a reason the
    diagnosis reads, and once per arrival at the NAT, a victim client or
    the server until that arrival's kind is seen; a hook on every record
    would run once per record of the window."""
    reads = []

    def count(slot, kind, seen):
        if kind not in seen:
            reads.append(kind)

    count_hook_calls(monkeypatch, count)
    with keep_traces():
        _, handles = assess.attack_scenario(sc.load_scenario(doc), seed=1)
    _, start, _ = attack_windows.pop()
    window = sum(rec.tick >= start for rec in handles.sim.trace)
    assert reads == oracle.evidence_reads(handles.sim, handles.plan, handles, start)
    assert 0 < len(reads) <= window // 10


@pytest.mark.parametrize("doc", [ATTACK_DOCS[5], ATTACK_DOCS[7], ATTACK_DOCS[8]], ids=lambda d: d["name"])
def test_each_watched_reason_and_node_retires_once_its_kind_is_seen(doc, monkeypatch):
    """At seed 1 an evidence hook is called at most once for a drop reason
    or a node after the kind it shows is seen: the call that is told so
    returns True, and the slot is cleared."""
    late = Counter()  # per drop reason or node: the calls after its kind was seen

    def count(slot, kind, seen):
        late[slot] += kind in seen

    count_hook_calls(monkeypatch, count)
    assess.attack_scenario(sc.load_scenario(doc), seed=1)
    assert set(late) & EVIDENCE_DROPS, late  # the window had drops the hooks read
    assert max(late.values()) <= 1, late


def test_only_a_forged_rst_counts():
    """A segment from the server's port with the forged sequence number
    counts only when it carries RST."""
    handles = sc.build(sc.load_scenario(ATTACK_DOCS[0]))
    sc.establish(handles)
    client = handles.victims[0][0]
    seen = set()
    _, on_arrival = strike._evidence_hooks(handles, seen)
    hook = on_arrival[client.node_id]
    server_addr, server_port = handles.plan.victim_server
    for flags in (TcpFlag.ACK, TcpFlag.PSH | TcpFlag.ACK, TcpFlag.RST | TcpFlag.ACK):
        seg = TcpSegment(server_port, 40000, seq=handles.plan.forged_seq, flags=flags)
        shown = hook(Ipv4Datagram(src=server_addr, dst=client.address, protocol=Protocol.TCP, payload=seg))
        assert shown == ("rst-at-client" in seen) == (TcpFlag.RST in flags)


def test_an_attack_that_raises_leaves_no_hook(monkeypatch):
    """The strike clears the slots it fills even when the run raises partway
    through the attack window."""
    handles = sc.build(sc.load_scenario(ATTACK_DOCS[0]))
    sc.establish(handles)
    run, start, hooked_at_raise = Simulator.run, handles.sim.now, []

    def failing(sim, until=None):
        if sim.now > start + 2:
            hooked_at_raise.append(not holds_no_hook(sim))
            raise RuntimeError("partway")
        run(sim, until)

    monkeypatch.setattr(Simulator, "run", failing)
    with pytest.raises(RuntimeError, match="partway"):
        strike.run_dos_attack(handles)
    assert hooked_at_raise == [True]
    assert handles.sim.on_drop == {}
    assert all(node.on_arrival is None for node in handles.sim.nodes.values())


@pytest.mark.parametrize("doc", [IDENTIFY_DOCS[0], IDENTIFY_DOCS[3], ATTACK_DOCS[2], ATTACK_DOCS[7]],
                         ids=lambda d: d["name"])
def test_unkept_run_counts_like_a_kept_one(doc):
    scn = sc.load_scenario(doc)
    run = assess.identify_scenario if scn.probe is not None else assess.attack_scenario
    for seed in range(3):
        with keep_traces():
            kept_result, kept = run(scn, seed=seed)
        result, counted = run(scn, seed=seed)
        assert result == kept_result
        assert len(counted.sim.trace) == len(kept.sim.trace) == len(list(kept.sim.trace)) > 0
        assert counted.sim.counters == kept.sim.counters
        assert counted.sim.now == kept.sim.now
        with pytest.raises(TraceNotKeptError):
            iter(counted.sim.trace)
        with pytest.raises(TraceNotKeptError):
            assess.TraceFile().add_section(scn, "attack", counted.sim)


def test_every_recorded_packet_passes_the_checked_constructors():
    """The attack's paths build packets store-only; at seed 1 every datagram
    an attack run records, and its TCP segment, is rebuilt by the checked
    constructor unchanged, so no store-only call builds a packet the
    checked path would reject."""
    for doc in ATTACK_DOCS:
        with keep_traces():
            _, handles = assess.attack_scenario(sc.load_scenario(doc), seed=1)
        # each datagram once, though most are recorded at several hops
        datagrams = {id(row[4]): row[4] for row in handles.sim.trace.rows()}.values()
        segments = [d.payload for d in datagrams if isinstance(d.payload, TcpSegment)]
        assert segments, doc["name"]
        for packet in [*datagrams, *segments]:
            again = dataclasses.replace(packet)
            assert again == packet and repr(again) == repr(packet), (doc["name"], packet)


def test_keep_traces_nests_and_restores():
    scn = sc.load_scenario(IDENTIFY_DOCS[2])
    with keep_traces():
        with keep_traces():
            assert sc.build(scn).sim.trace.records is not None
        assert sc.build(scn).sim.trace.records is not None
    assert sc.build(scn).sim.trace.records is None
