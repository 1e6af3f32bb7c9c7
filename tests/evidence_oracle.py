"""Trace-rescan oracles for the evidence that probe and strike gather
while a run happens: the probe from the vantage's arrival log, the strike
from the hooks it puts in `Simulator.on_drop` and `Node.on_arrival`.

Each function below reads a kept trace after the run, the way the two
orchestrators once did; the equivalence tests check the live evidence
against them.
"""

from natsim.strike import FailureDiagnosis
from natsim.wire import EchoReply, Protocol, TcpFlag, TcpSegment


def reply_fragments(sim, vantage_node: str, target: str, echo_tick: int):
    """(total length, fragment offset, more fragments) of every echo reply
    piece delivered at the vantage after the echo was sent."""
    out = []
    for rec in sim.trace:
        if (
            rec.tick > echo_tick
            and rec.node == vantage_node
            and rec.action == "deliver"
            and rec.dgram.protocol is Protocol.ICMP
            and rec.dgram.src == target
        ):
            d = rec.dgram
            if isinstance(d.payload, (EchoReply, bytes)):
                out.append((d.total_length, d.fragment_offset, d.more_fragments))
    return out


def _is_forged_rst(plan, d) -> bool:
    seg = d.payload
    return (
        isinstance(seg, TcpSegment)
        and TcpFlag.RST in seg.flags
        and seg.seq == plan.forged_seq
        and d.src == plan.victim_server[0]
        and seg.src_port == plan.victim_server[1]
    )


def _drop_kind(reason: str) -> str | None:
    if reason == "loss":
        return "rst-lost"
    if reason == "rst-out-of-window":
        return "rst-refused"
    return "rst-filtered" if reason.startswith("filtered-") else None


def evidence_reads(sim, plan, ctx, start: int) -> list[str]:
    """The kind the strike's evidence test reads each record for, in record
    order from tick `start` on: each drop the diagnosis reads, and each
    arrival at the NAT, a victim client or the server, until a record shows
    that kind."""
    kind_at = {h.node_id: "rst-at-client" for h, _ in ctx.victims}
    kind_at[ctx.nat.node_id] = "rst-at-nat"
    kind_at[ctx.server_host.node_id] = "push-at-server"
    seen, reads = set(), []
    for rec in sim.trace:
        if rec.tick < start:
            continue
        if rec.action == "drop":
            kind = _drop_kind(rec.reason)
        else:
            kind = kind_at.get(rec.node) if rec.action in ("deliver", "forward") else None
        if kind is None or kind in seen:
            continue
        reads.append(kind)
        d = rec.dgram
        if kind == "push-at-server":
            shown = (d.src == plan.nat_public_ip and isinstance(d.payload, TcpSegment)
                     and TcpFlag.PSH in d.payload.flags)
        else:
            shown = _is_forged_rst(plan, d)
        if shown:
            seen.add(kind)
    return reads


def diagnose(sim, plan, ctx, report, start: int, dup_acks_before: int) -> FailureDiagnosis:
    """The failure diagnosis from every trace record of tick `start` on."""
    client_nodes = {h.node_id for h, _ in ctx.victims}
    nat_node = ctx.nat.node_id if ctx.nat else None
    saw_rst_at_client = False
    rst_reached_nat = False
    rst_filtered = False
    rst_refused = False
    rst_lost = False
    any_loss = False
    push_delivered = False
    for rec in sim.trace:
        if rec.tick < start:
            continue
        forged = _is_forged_rst(plan, rec.dgram)
        if rec.action == "drop" and rec.reason == "loss":
            any_loss = True
            if forged:
                rst_lost = True
        if forged:
            if rec.action == "drop" and rec.reason.startswith("filtered"):
                rst_filtered = True
            if rec.node == nat_node and rec.action == "drop" and rec.reason == "rst-out-of-window":
                rst_refused = True
            if rec.node == nat_node and rec.action in ("deliver", "forward"):
                rst_reached_nat = True
            if rec.node in client_nodes and rec.action == "deliver":
                saw_rst_at_client = True
        if (
            rec.action == "deliver"
            and rec.node == ctx.server_host.node_id
            and isinstance(rec.dgram.payload, TcpSegment)
            and TcpFlag.PSH in rec.dgram.payload.flags
            and rec.dgram.src == plan.nat_public_ip
        ):
            push_delivered = True

    if report.mappings_removed == 0 and saw_rst_at_client:
        return FailureDiagnosis.FORWARDED_RST_NO_REMOVAL
    if not rst_reached_nat:
        if rst_filtered:
            return FailureDiagnosis.RST_BLOCKED_BY_MIDDLEBOX
        if rst_lost:
            return FailureDiagnosis.PACKET_LOSS
        return FailureDiagnosis.RST_NOT_ROUTED
    if report.mappings_removed == 0 and not rst_refused:
        return FailureDiagnosis.SWEEP_MISSED_MAPPINGS
    if push_delivered and ctx.server_host.dup_acks_sent == dup_acks_before:
        return FailureDiagnosis.NO_DUP_ACK_FROM_SERVER
    if any_loss:
        return FailureDiagnosis.PACKET_LOSS
    return FailureDiagnosis.NONE
