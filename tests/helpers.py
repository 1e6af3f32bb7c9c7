"""Shared mini-topologies for unit tests."""

from __future__ import annotations

from natsim.endpoint import Host, StackProfile
from natsim.fabric import LinkSpec, Simulator
from natsim.natbox import NatBox, NatPolicy


def host_pair(seed=1, profile_b: StackProfile | None = None, mtu=1500):
    """Two hosts joined by a symmetric link."""
    sim = Simulator(seed=seed)
    a = Host("a", "1.1.1.1", seed=seed)
    b = Host("b", "2.2.2.2", seed=seed, profile=profile_b or StackProfile())
    sim.add_node("a", a.address, handler=a)
    sim.add_node("b", b.address, handler=b)
    sim.add_link(LinkSpec("a", "b", mtu=mtu))
    sim.add_link(LinkSpec("b", "a", mtu=mtu))
    sim.finalize_routes()
    return sim, a, b


def nat_triangle(policy: NatPolicy | None = None, seed=1):
    """client - nat - server, the smallest NAT-translation topology."""
    sim = Simulator(seed=seed)
    client = Host("client", "10.0.0.2", seed=seed)
    server = Host("server", "7.7.7.7", seed=seed)
    nat = NatBox("nat", "6.6.6.6", policy or NatPolicy(), {"10.0.0.2"}, seed=seed)
    sim.add_node("client", client.address, handler=client)
    sim.add_node("server", server.address, handler=server)
    sim.add_node("nat", nat.address, handler=nat, intercept=True)
    for a, b in (("client", "nat"), ("nat", "client"), ("nat", "server"), ("server", "nat")):
        sim.add_link(LinkSpec(a, b))
    sim.finalize_routes()
    server.listen(80)
    return sim, client, nat, server


def connect(sim, client, remote=("7.7.7.7", 80)):
    key = client.open_connection(sim, remote)
    sim.run(until=sim.now + 10)
    return key
