"""Remote NAT-device identification over the path-MTU side channel.

The engine runs two stages against a public address that already has a
TCP session with the vantage host.  Stage one plants a forged ICMP
Fragmentation Needed built from an observed segment and waits for the
target's TCP to shrink below the planted MTU.  Stage two pings the
address with a full-sized echo request and classifies the reply: a
NAT device answers from its own untouched path-MTU cache, so its reply
stays large, while a directly addressed host pre-fragments at the
planted value.

`run_identification` takes a built scenario's `Handles` and reads its
roles from them: the vantage host, the target address, the probe
config and the `pre_echo_mtu` re-dial between the stages.  Run one
probe per simulator instance at a time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING

from . import wire
from .endpoint import Host
from .fabric import derive_rng
from .wire import EchoReply, EchoRequest, FragNeeded, Ipv4Datagram, Protocol

if TYPE_CHECKING:  # `scenario` imports this module
    from .scenario import Handles

# spoofed source for the crafted ICMP error; any on-path router could
# legitimately have sent it, so targets cannot validate the outer source
ROUTER_LIKE_SRC = "203.0.113.99"
# the longest wait for an echo reply: one that never comes costs the whole
# wait, with the vantage session sending all the while
MAX_TIMEOUT_TICKS = 100_000


class NoBaselineError(Exception):
    """No TCP segment from the target has been observed yet."""


@dataclass(frozen=True)
class ProbeConfig:
    forged_mtu: int = 600
    baseline_size: int = 1500
    timeout_ticks: int = 200
    vantage: str = "vantage"

    def __post_init__(self):
        # the echo request is one datagram of baseline_size octets
        wire.check_range("baseline_size", self.baseline_size, wire.MIN_MTU, 0x10000)
        wire.check_range("forged_mtu", self.forged_mtu, wire.MIN_MTU, self.baseline_size)
        wire.check_range("timeout_ticks", self.timeout_ticks, 1)
        if self.timeout_ticks > MAX_TIMEOUT_TICKS:
            raise ValueError(f"timeout_ticks: {self.timeout_ticks} is above the maximum {MAX_TIMEOUT_TICKS}")


class VerdictKind(Enum):
    NAT_DEVICE = "nat-device"
    SEPARATE_HOST = "separate-host"
    UNKNOWN = "unknown"


class VerdictReason(Enum):
    SINGLE_LARGE_REPLY = "single-large-reply"
    FRAG_SIZE_MATCHES_MTU = "frag-size-matches-mtu"
    FRAG_SIZE_MISMATCH = "frag-size-mismatch"
    NO_PMTU_SHRINK = "no-pmtu-shrink"
    NO_ECHO_REPLY = "no-echo-reply"
    AMBIGUOUS_SIZES = "ambiguous-sizes"


_UNKNOWN_REASONS = {
    VerdictReason.NO_PMTU_SHRINK,
    VerdictReason.NO_ECHO_REPLY,
    VerdictReason.AMBIGUOUS_SIZES,
}


@dataclass
class Observation:
    baseline_tcp_size: int | None = None
    post_probe_tcp_size: int | None = None
    echo_reply_fragments: list[int] = field(default_factory=list)
    echo_reply_total: int | None = None
    # interior fragment boundaries in octets, for the classifier
    echo_reply_boundaries: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: VerdictReason
    evidence: Observation

    def __post_init__(self):
        unknown = self.kind is VerdictKind.UNKNOWN
        if unknown != (self.reason in _UNKNOWN_REASONS):
            raise ValueError(f"reason {self.reason} inconsistent with kind {self.kind}")

    def csv_row(self, target: str) -> str:
        ev = self.evidence
        frags = "+".join(str(s) for s in ev.echo_reply_fragments) or "-"
        base, post = ("-" if n is None else n for n in (ev.baseline_tcp_size, ev.post_probe_tcp_size))
        return f"{target},{self.kind.value},{self.reason.value},{base},{post},{frags}"


def craft_frag_needed(observed: Ipv4Datagram, forged_mtu: int) -> FragNeeded:
    """Build the forged ICMP error from a previously observed segment:
    the embedded quote is the segment's first 28 wire octets, so it names
    the live 4-tuple and an in-window sequence number."""
    if not isinstance(observed.payload, wire.TcpSegment):
        raise NoBaselineError("no-baseline")
    return FragNeeded(next_hop_mtu=forged_mtu, embedded=wire.quote_of(observed))


def run_identification(handles: Handles) -> Verdict:
    """Run both stages from the vantage host against the target and
    classify; every outcome is a Verdict."""
    sim, vantage, scn = handles.sim, handles.vantage_host, handles.scenario
    target_addr, cfg = scn.target_addr, scn.probe
    obs = Observation()

    first = _next_arrival(sim, vantage, target_addr, -1, sim.now + cfg.timeout_ticks, _carries_data)
    if first is None:
        return Verdict(VerdictKind.UNKNOWN, VerdictReason.NO_PMTU_SHRINK, obs)
    obs.baseline_tcp_size = first[1].total_length

    # stage 1: plant the forged next-hop MTU
    crafted = craft_frag_needed(first[1], cfg.forged_mtu)
    seen = sim.now  # what arrived by the probe's own tick predates it
    sim.send_from(
        vantage.node_id,
        Ipv4Datagram(
            src=ROUTER_LIKE_SRC,
            dst=target_addr,
            protocol=Protocol.ICMP,
            payload=crafted,
        ),
    )
    # the first segment after the probe, or one more if that was in flight
    deadline = sim.now + cfg.timeout_ticks
    for _ in range(2):
        nxt = _next_arrival(sim, vantage, target_addr, seen, deadline, _carries_data)
        if nxt is None:
            break
        seen, dgram = nxt
        obs.post_probe_tcp_size = dgram.total_length
        if obs.post_probe_tcp_size <= cfg.forged_mtu:
            break
    if obs.post_probe_tcp_size is None or obs.post_probe_tcp_size > cfg.forged_mtu:
        return Verdict(VerdictKind.UNKNOWN, VerdictReason.NO_PMTU_SHRINK, obs)

    if scn.pre_echo_mtu is not None:
        # re-dial a link, as a testbed operator would between experiments
        sim.set_link_mtu(*scn.pre_echo_mtu.link, scn.pre_echo_mtu.mtu)

    # stage 2: full-sized echo, classify the reply shape; ambiguity
    # depends on the reply path, where the router fragments
    target_node = sim.addr_to_node[target_addr]
    path_mtu = sim.path_min_mtu(target_node, vantage.address)
    echo_tick, sent = sim.now, len(vantage.arrivals)
    ident = derive_rng(sim.seed, "probe-echo", echo_tick).randrange(0x10000)
    sim.send_from(
        vantage.node_id,
        Ipv4Datagram(
            src=vantage.address,
            dst=target_addr,
            protocol=Protocol.ICMP,
            payload=EchoRequest(ident=ident, seq_no=1, padding_length=cfg.baseline_size - 28),
        ),
    )
    reply = _next_arrival(
        sim, vantage, target_addr, echo_tick, sim.now + cfg.timeout_ticks,
        lambda p: isinstance(p, EchoReply),
    )

    # the reply as the vantage took it in: its fragments, else the whole datagram
    pieces = [
        d for _, d in vantage.arrivals[sent:]
        if d.src == target_addr and d.protocol is Protocol.ICMP and isinstance(d.payload, bytes)
    ] or ([reply[1]] if reply else [])
    obs.echo_reply_fragments = [d.total_length for d in pieces]
    obs.echo_reply_boundaries = frozenset(d.fragment_offset * 8 for d in pieces if d.fragment_offset)
    if reply is None:
        return Verdict(VerdictKind.UNKNOWN, VerdictReason.NO_ECHO_REPLY, obs)
    obs.echo_reply_total = reply[1].total_length

    return _classify(obs, cfg, path_mtu)


def _classify(obs: Observation, cfg: ProbeConfig, path_mtu: int | None) -> Verdict:
    total = obs.echo_reply_total or 0
    frags = obs.echo_reply_fragments
    if len(frags) == 1 and frags[0] == total:
        return Verdict(VerdictKind.NAT_DEVICE, VerdictReason.SINGLE_LARGE_REPLY, obs)
    cap = wire.frag_cap(cfg.forged_mtu)
    if path_mtu is not None and path_mtu < total and wire.frag_cap(path_mtu) == cap:
        # en-route fragmentation at the planted value is indistinguishable
        # from host-level fragmentation
        return Verdict(VerdictKind.UNKNOWN, VerdictReason.AMBIGUOUS_SIZES, obs)
    payload_total = total - wire.IP_HEADER_LEN
    expected = set(range(cap, payload_total, cap))
    if expected and expected <= obs.echo_reply_boundaries:
        # the reply was split at the planted MTU before any router touched
        # it: the sender's own path MTU cache shrank
        return Verdict(VerdictKind.SEPARATE_HOST, VerdictReason.FRAG_SIZE_MATCHES_MTU, obs)
    return Verdict(VerdictKind.NAT_DEVICE, VerdictReason.FRAG_SIZE_MISMATCH, obs)


# -- helpers -------------------------------------------------------------------


def _carries_data(p) -> bool:
    """A segment with data: a pure ACK says nothing of the sender's path MTU."""
    return isinstance(p, wire.TcpSegment) and p.payload_length > 0


def _next_arrival(sim, vantage: Host, target: str, after_tick: int, deadline: int, wanted):
    """The first (tick, datagram) the vantage logs from `target` after
    `after_tick` whose payload `wanted` accepts, running the simulator to it
    (None by the deadline).  The log's ticks never decrease, so the wait
    bisects to its first entry after `after_tick`; each check reads only the
    arrivals since the last."""
    log, found = vantage.arrivals, []
    read = bisect.bisect_right(log, after_tick, key=itemgetter(0))

    def arrived() -> bool:
        nonlocal read
        while read < len(log) and not found:
            tick, d = log[read]
            read += 1
            if d.src == target and wanted(d.payload):
                found.append((tick, d))
        return bool(found)

    return found[0] if sim.run_until(arrived, deadline) else None
