"""A reference `Simulator` whose arrivals take the plain form.

`ReferenceSimulator.run` takes each datagram of an arrival group through its
own `_arrive` call, which reads the node's fields afresh every time: the
semantics the product's `run` must keep while it reads them once a group.
Build a scenario on it by patching `scenario.Simulator`, which
`scenario.build` instantiates.

`checked_tcp_packet` builds what `wire.tcp_packet` builds through the
checked constructors; patch it over the `tcp_packet` that `strike`,
`endpoint` and `natbox` import, so that the reference run also checks
every field of every TCP datagram the product builds store-only.
"""

from __future__ import annotations

import heapq

from natsim.fabric import Node, Simulator
from natsim.wire import Ipv4Datagram, Protocol, TcpFlag, TcpSegment


def checked_tcp_packet(
    src: str, dst: str, src_port: int, dst_port: int, seq: int, ack: int, flags: TcpFlag,
    payload_length: int, identification: int, df: bool,
) -> Ipv4Datagram:
    return Ipv4Datagram(src, dst, Protocol.TCP, TcpSegment(src_port, dst_port, seq, ack, flags, payload_length),
                        identification, df)


class ReferenceSimulator(Simulator):
    def run(self, until: int | None = None) -> None:
        ticks, buckets = self._ticks, self._buckets
        while ticks and (until is None or ticks[0] <= until):
            tick = self.now = ticks[0]
            bucket = buckets[tick]
            while bucket:
                item = bucket.popleft()
                kind = item[0]
                if kind == "group":
                    node = item[1]
                    for d in item[2]:
                        self._arrive(node, d)
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

    def _arrive(self, node: Node, d: Ipv4Datagram) -> None:
        node_id = node.node_id
        local = d.dst == node.address
        # an intercepting handler (the NAT) sees transit packets too
        if local or (node.intercept and node.handler is not None):
            if local:
                node.counters.packets_delivered += 1
            self.record(node_id, "deliver" if local else "forward", "", d)
            hook = node.on_arrival
            if hook is not None and hook(d):
                node.on_arrival = None
            if node.handler is not None:
                node.handler.on_datagram(self, node_id, d)
            return
        if node.transit:
            self.record(node_id, "forward", "", d)
            self.forward_from(node_id, d)
            return
        self.record(node_id, "drop", "no-route", d)
