"""Scenario documents: a declarative topology + policy + workload +
probe/attack plan, loaded from JSON-compatible dicts into validated
Scenario objects, then built into a live simulator.

The document's top level and each of its blocks take exactly the fields
of a run object (Scenario, NodeSpec, LinkSpec, NatPolicy, ServerSpec,
WorkloadSpec, ProbeConfig, PreEchoSpec, AttackPlan, Expectation) that
the loader does not set itself, typed by their annotations, plus the
blocks and keys the loader reads by hand; any other key is a
ScenarioError.  A field with no default is required.  The run objects
hold the defaults and check their own values.  The loader checks the
references between blocks and the rules that span blocks.
"""

from __future__ import annotations

import functools
import ipaddress
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import EnumMeta

from .endpoint import DEFAULT_EPHEMERAL_RANGE, DEFAULT_RCV_WND, Host, LINUX_LIKE, OPENBSD_LIKE, TcpState
from .fabric import DropClass, LinkSpec, MiddleboxFilter, Simulator, traces_kept
from .natbox import NatBox, NatPolicy
from .probe import ProbeConfig, VerdictKind
from .strike import AttackPlan, FailureDiagnosis
from .wire import MIN_MTU, check_port_range, check_range

NODE_KINDS = ("client", "nat", "router", "server", "vantage", "attacker")
HOST_KINDS = ("client", "server", "vantage")  # the kinds that `build` gives a Host
PROFILES = {"linux-like": LINUX_LIKE, "openbsd-like": OPENBSD_LIKE}
SESSION_PAYLOAD = 1460  # guarantees one full-sized baseline segment
DOC_CLIENTS = 4  # the clients of a canonical NAT document


class ScenarioError(Exception):
    """A document violated the schema; the message names the field."""


def _enum_value(field_name: str, value: str, enum_cls):
    for member in enum_cls:
        if member.value == value:
            return member
    valid = ", ".join(m.value for m in enum_cls)
    raise ScenarioError(f"{field_name}: unknown value {value!r} (valid: {valid})")


def _require(doc: dict, key: str, typ, where: str, default=MISSING):
    """doc[key] as a `typ`, or `default` when the key is absent or null;
    with no default the key is required.  An Enum type takes one of its
    members' values, and `tuple` a [lo, hi] pair of ints."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(doc).__name__}")
    if default is not MISSING and doc.get(key) is None:
        return default
    if key not in doc:
        raise ScenarioError(f"{where}.{key}: required field missing")
    if isinstance(typ, EnumMeta):
        return _enum_value(f"{where}.{key}", _require(doc, key, str, where), typ)
    if typ is tuple:
        pair = _require(doc, key, list, where)
        if len(pair) != 2 or not all(type(x) is int for x in pair):
            raise ScenarioError(f"{where}.{key}: expected [lo, hi]")
        return tuple(pair)
    value = doc[key]
    # JSON true/false are Python ints too; only a bool field takes them
    if typ is float and type(value) is int:
        value = float(value)
    if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
        raise ScenarioError(f"{where}.{key}: expected {typ.__name__}, got {type(value).__name__}")
    return value


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, object]]:
    """The type a document gives each field of `cls`, and the field's
    default (MISSING for a required field): `X | None` reads as X and
    `tuple[...]` as tuple.  Cached, because resolving the annotations
    costs several times more than loading a document."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        if type(None) in args:
            hint = next(a for a in args if a is not type(None))
        types[f.name] = (typing.get_origin(hint) or hint, f.default)
    return types


def _known(doc: dict, where: str, keys) -> None:
    """Reject a `doc` that is not an object, or a key of it that is not one
    of `keys`: a misspelt field would otherwise leave its default in force
    without a word."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise ScenarioError(f"{where}.{key}: unknown field (valid: {', '.join(keys)})")


def _build(cls, doc: dict, where: str, extras: tuple[str, ...] = (), /, **given):
    """A `cls` from `given` and every other field of it, read from `doc`;
    `doc` may also hold the `extras` its caller reads.  The ValueError of
    a run object's check, whose message starts with the field, is raised
    as a ScenarioError under `where`."""
    types = _field_types(cls)
    _known(doc, where, extras + tuple(k for k in types if k not in given))
    for key, (typ, default) in types.items():
        if key not in given and (default is MISSING or doc.get(key) is not None):
            given[key] = _require(doc, key, typ, where)
    try:
        return cls(**given)
    except ValueError as e:
        raise ScenarioError(f"{where}.{e}") from None


def _busiest_client(clients: list[str], *dealt: int, first: int = 0) -> int:
    """The most connections one client opens when each count in `dealt` is
    dealt over `clients` in order and the first client opens `first` more;
    a client keeps the ephemeral port of every connection it opens."""
    k = len(clients)
    opened = dict.fromkeys(clients, 0)
    opened[clients[0]] += first
    for j, c in enumerate(clients):
        opened[c] += sum(n // k + (j < n % k) for n in dealt)
    return max(opened.values())


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str
    address: str

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"kind: unknown value {self.kind!r} (valid: {', '.join(NODE_KINDS)})")
        try:
            ipaddress.IPv4Address(self.address)
        except ValueError:
            raise ValueError(f"address: {self.address!r} is not an IPv4 address") from None


@dataclass(frozen=True)
class ServerSpec:
    node: str = "server"
    profile: str = "linux-like"  # a key of PROFILES
    port: int = 80

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"profile: unknown value {self.profile!r} (valid: {', '.join(PROFILES)})")
        check_range("port", self.port, 0, 0x10000)


def _check_connected(nodes, links) -> None:
    adjacency: dict[str, set[str]] = {n.id: set() for n in nodes}
    for link in links:
        adjacency[link.frm].add(link.to)
        adjacency[link.to].add(link.frm)
    seen = {nodes[0].id}
    queue = [nodes[0].id]
    while queue:
        for nb in adjacency[queue.pop()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    stranded = sorted(set(adjacency) - seen)
    if stranded:
        raise ScenarioError(f"links: topology not connected; unreachable nodes {stranded}")


@dataclass(frozen=True)
class WorkloadSpec:
    connections: int = 4
    send_period: int = 10
    payload: int = 512

    def __post_init__(self):
        check_range("connections", self.connections, 0)
        # a period of 0 would reschedule the session send at the same tick forever
        check_range("send_period", self.send_period, 1)
        # one receive window: the model has no flow control, and `establish`
        # sends each victim's payload in one burst
        check_range("payload", self.payload, 0, DEFAULT_RCV_WND + 1)


@dataclass(frozen=True)
class PreEchoSpec:
    """The MTU a link is set to between the probe stages, like re-dialing
    a testbed router."""

    link: list[str]  # [from, to]
    mtu: int

    def __post_init__(self):
        check_range("mtu", self.mtu, MIN_MTU)


@dataclass(frozen=True)
class Expectation:
    verdict: str | None = None
    attack_success: bool | None = None
    diagnosis: str | None = None

    def __post_init__(self):
        # strings, as graders compare them to `.value`, but refused at load
        # when misspelt: one would otherwise grade as a mismatch
        for name, kinds in (("verdict", VerdictKind), ("diagnosis", FailureDiagnosis)):
            if getattr(self, name) is not None:
                _enum_value(f"expect.{name}", getattr(self, name), kinds)


@dataclass(kw_only=True)
class Scenario:
    name: str
    seed: int = 1
    tick_duration: float = 0.001
    nodes: list[NodeSpec]
    links: list[LinkSpec]
    nat_policy: NatPolicy | None
    server: ServerSpec | None
    clients: list[str]
    ephemeral_range: tuple[int, int] = DEFAULT_EPHEMERAL_RANGE
    workload: WorkloadSpec
    probe: ProbeConfig | None
    pre_echo_mtu: PreEchoSpec | None
    # seeded with the document's seed; `build` reseeds it for each run
    attack: AttackPlan | None
    force_attack: bool = False
    expect: Expectation | None
    doc: dict
    # the public address the probe and the attack aim at: the NAT's, or,
    # for a probe of a document with no NAT, the first client's
    target_addr: str

    def __post_init__(self):
        # the characters that a CSV field must quote (RFC 4180 section 2)
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError(f"name: {self.name!r} holds a comma, double quote, CR or LF")
        if not self.tick_duration > 0:
            raise ValueError(f"tick_duration: {self.tick_duration} is not positive")
        check_port_range("ephemeral_range", self.ephemeral_range)

    def policy_summary(self) -> str:
        policy = self.nat_policy.summary() if self.nat_policy else "no-nat"
        profile = self.server.profile if self.server else LINUX_LIKE.name
        return f"{policy}/{profile}"


def load_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build its run objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected an object")
    nodes = []
    addresses: dict[str, str] = {}
    for i, nd in enumerate(_require(doc, "nodes", list, "scenario")):
        where = f"nodes[{i}]"
        node = _build(NodeSpec, nd, where)
        if node.id in addresses:
            raise ScenarioError(f"{where}.id: duplicate node id {node.id!r}")
        if node.address in addresses.values():
            raise ScenarioError(f"{where}.address: duplicate address {node.address!r}")
        addresses[node.id] = node.address
        nodes.append(node)
    if not nodes:
        raise ScenarioError("scenario.nodes: at least one node required")

    links = []
    for i, ld in enumerate(_require(doc, "links", list, "scenario")):
        where = f"links[{i}]"
        frm = _require(ld, "from", str, where)
        to = _require(ld, "to", str, where)
        for end in (frm, to):
            if end not in addresses:
                raise ScenarioError(f"{where}: unknown node {end!r}")
        raw_filter = _require(ld, "filter", list, where, None)
        filt = MiddleboxFilter(frozenset(
            _enum_value(f"{where}.filter[{j}]", c, DropClass) for j, c in enumerate(raw_filter)
        )) if raw_filter else None
        links.append(_build(LinkSpec, ld, where, ("from", "to", "filter"), frm=frm, to=to, filter=filt))

    nat_kind_nodes = [n.id for n in nodes if n.kind == "nat"]
    host_nodes = {n.id for n in nodes if n.kind in HOST_KINDS}
    if len(nat_kind_nodes) > 1:
        raise ScenarioError("nodes: at most one NAT node per scenario")
    if sum(n.kind == "attacker" for n in nodes) > 1:
        raise ScenarioError("nodes: at most one attacker node per scenario")
    _check_connected(nodes, links)

    nat_node = None
    nat_policy = None
    nat_doc = _require(doc, "nat", dict, "scenario", None)
    if nat_doc is not None:
        nat_node = _require(nat_doc, "node", str, "nat", "nat")
        if nat_node not in nat_kind_nodes:
            raise ScenarioError(f"nat.node: {nat_node!r} is not a node of kind nat")
        nat_policy = _build(NatPolicy, nat_doc, "nat", ("node",))
    elif nat_kind_nodes:
        raise ScenarioError(f"nat: node {nat_kind_nodes[0]!r} present but not configured")

    server = None
    server_doc = _require(doc, "server", dict, "scenario", None)
    if server_doc is not None:
        server = _build(ServerSpec, server_doc, "server")
        if server.node not in host_nodes:
            raise ScenarioError(f"server.node: {server.node!r} is not a host node")

    default_clients = [n.id for n in nodes if n.kind == "client"]
    clients = _require(doc, "clients", list, "scenario", default_clients)
    for c in clients:
        if not isinstance(c, str) or c not in host_nodes:
            raise ScenarioError(f"clients: {c!r} is not a host node")
    if not clients:
        raise ScenarioError("clients: at least one client node required")
    if server is not None and server.node in clients:
        raise ScenarioError(f"server.node: {server.node!r} is also one of clients")
    target_addr = addresses[nat_node or clients[0]]

    workload = _build(WorkloadSpec, _require(doc, "workload", dict, "scenario", {}), "workload")

    probe = pre_echo = None
    probe_doc = _require(doc, "probe", dict, "scenario", None)
    if probe_doc is not None:
        probe = _build(ProbeConfig, probe_doc, "probe", ("pre_echo_mtu",))
        if probe.vantage not in host_nodes:
            raise ScenarioError(f"probe.vantage: {probe.vantage!r} is not a host node")
        # the vantage host observes the session a client opens to it
        if server is not None and probe.vantage == server.node:
            raise ScenarioError(f"probe.vantage: {probe.vantage!r} is also server.node")
        if probe.vantage in clients:
            raise ScenarioError(f"probe.vantage: {probe.vantage!r} is also one of clients")
        pe_doc = _require(probe_doc, "pre_echo_mtu", dict, "probe", None)
        if pe_doc is not None:
            pre_echo = _build(PreEchoSpec, pe_doc, "probe.pre_echo_mtu")
            if pre_echo.link not in [[l.frm, l.to] for l in links]:
                raise ScenarioError("probe.pre_echo_mtu.link: expected [from, to] naming a link")

    exp_doc = _require(doc, "expect", dict, "scenario", None)
    expect = None if exp_doc is None else _build(Expectation, exp_doc, "expect")

    scn = _build(
        Scenario, doc, "scenario",
        ("nodes", "links", "nat", "server", "clients", "workload", "probe", "attack", "expect"),
        nodes=nodes, links=links, nat_policy=nat_policy, server=server, clients=clients,
        workload=workload, probe=probe, pre_echo_mtu=pre_echo, attack=None, expect=expect,
        doc=doc, target_addr=target_addr,
    )
    attack_doc = _require(doc, "attack", dict, "scenario", None)
    if attack_doc is not None:
        if server is None:
            raise ScenarioError("attack: an attack block requires a server block")
        if nat_policy is None:
            raise ScenarioError("attack: an attack block requires a nat block")
        scn.attack = _build(
            AttackPlan, attack_doc, "attack", nat_public_ip=target_addr,
            victim_server=(addresses[server.node], server.port), seed=scn.seed,
        )

    # the victims, then the vantage session on the first client, then the
    # attack's new connections, each take a port for good
    ports = scn.ephemeral_range[1] - scn.ephemeral_range[0] + 1
    vantage = int(probe is not None)
    if _busiest_client(clients, workload.connections, first=vantage) > ports:
        raise ScenarioError(
            f"workload.connections: {workload.connections} connections need more than "
            f"the {ports} ephemeral ports of a client in {clients}"
        )
    attempts = scn.attack.new_connection_attempts if scn.attack is not None else 0
    if _busiest_client(clients, workload.connections, attempts, first=vantage) > ports:
        raise ScenarioError(
            f"attack.new_connection_attempts: {attempts} attempts after "
            f"{workload.connections} connections need more than the {ports} "
            f"ephemeral ports of a client in {clients}"
        )
    return scn


@dataclass
class Handles:
    """A built scenario's simulator and the roles `build` gave its nodes;
    the probe and the attack read everything they need from it."""

    scenario: Scenario
    sim: Simulator
    hosts: dict[str, Host]
    nat: NatBox | None
    server_host: Host | None
    vantage_host: Host | None
    attacker_node: str | None
    victims: list[tuple[Host, tuple]] = field(default_factory=list)
    plan: AttackPlan | None = None


def build(scenario: Scenario, seed: int | None = None) -> Handles:
    """Construct the simulator for a scenario, without running anything; it
    keeps its trace records only inside `fabric.keep_traces()`."""
    seed = scenario.seed if seed is None else seed
    sim = Simulator(seed=seed, keep_trace=traces_kept())
    hosts: dict[str, Host] = {}
    nat: NatBox | None = None
    attacker_node = None
    internal_addrs = {n.address for n in scenario.nodes if n.id in scenario.clients}
    # a host's role follows the block that names it, never its node's kind
    vantage_id = scenario.probe.vantage if scenario.probe else None
    server = scenario.server
    profiles = {server.node: PROFILES[server.profile]} if server else {}

    for spec in scenario.nodes:
        if spec.kind == "router":
            sim.add_node(spec.id, spec.address, transit=True)
        elif spec.kind == "attacker":
            sim.add_node(spec.id, spec.address)
            attacker_node = spec.id
        elif spec.kind == "nat":
            nat = NatBox(
                spec.id,
                spec.address,
                scenario.nat_policy,
                internal_addrs,
                seed=seed,
            )
            sim.add_node(spec.id, spec.address, handler=nat, intercept=True)
        else:
            host = Host(
                spec.id,
                spec.address,
                seed=seed,
                profile=profiles.get(spec.id, LINUX_LIKE),
                ephemeral_range=scenario.ephemeral_range,
                vantage=spec.id == vantage_id,
            )
            hosts[spec.id] = host
            sim.add_node(spec.id, spec.address, handler=host)

    for link in scenario.links:
        sim.add_link(replace(link))
    sim.finalize_routes()

    server_host = hosts[server.node] if server else None
    if server_host is not None:
        server_host.listen(server.port)
    vantage_host = hosts.get(vantage_id)
    if vantage_host is not None:
        vantage_host.listen(80)

    return Handles(
        scenario=scenario,
        sim=sim,
        hosts=hosts,
        nat=nat,
        server_host=server_host,
        vantage_host=vantage_host,
        attacker_node=attacker_node,
        plan=replace(scenario.attack, seed=seed) if scenario.attack else None,
    )


class EstablishError(Exception):
    pass


def establish(handles: Handles) -> None:
    """Open the victim connections, push one round of data through each,
    and start the vantage session workload."""
    scn = handles.scenario
    sim = handles.sim

    if handles.server_host is not None and scn.workload.connections > 0:
        server_addr = handles.server_host.address
        for i in range(scn.workload.connections):
            client = handles.hosts[scn.clients[i % len(scn.clients)]]
            sim.schedule_call(
                sim.now + 1 + i,
                lambda s, c=client: handles.victims.append(
                    (c, c.open_connection(s, (server_addr, scn.server.port)))
                ),
            )
        established = lambda: len(handles.victims) == scn.workload.connections and all(
            h.state(k) == TcpState.ESTABLISHED for h, k in handles.victims
        )
        if not sim.run_until(established, sim.now + 40 + 4 * scn.workload.connections):
            raise EstablishError(f"{scn.name}: victim connections failed to establish")
        for host, key in handles.victims:
            host.send_data(sim, key, scn.workload.payload)
        sim.run(until=sim.now + 20)

    if handles.vantage_host is not None and scn.probe is not None:
        client = handles.hosts[scn.clients[0]]
        vantage_addr = handles.vantage_host.address
        key = client.open_connection(sim, (vantage_addr, 80))
        if not sim.run_until(lambda: client.state(key) == TcpState.ESTABLISHED, sim.now + 40):
            raise EstablishError(f"{scn.name}: vantage session failed to establish")
        horizon = sim.now + 4 * scn.probe.timeout_ticks

        def periodic(s: Simulator):
            if client.state(key) == TcpState.ESTABLISHED:
                client.send_data(s, key, SESSION_PAYLOAD)
            if s.now + scn.workload.send_period <= horizon:
                s.schedule_call(s.now + scn.workload.send_period, periodic)

        sim.schedule_call(sim.now + 1, periodic)


# -- canonical documents and the shipped default suite ---------------------------


def nat_scenario_doc(
    name: str,
    *,
    seed: int = 1,
    rst_handling: str = "vulnerable-remove",
    unmapped_inbound: str = "rst-reply",
    port_allocation: str = "sequential",
    pmtud_sync: str = "leaky",
    server_profile: str = "linux-like",
    router_vantage_mtu: int = 1500,
    pre_echo_mtu: int | None = None,
    nat_inbound_filter: list[str] | None = None,
    ephemeral_range: tuple[int, int] = (40000, 42047),
    port_range: tuple[int, int] = (40000, 42047),
    rounds: int = 2,
    interleave_batch: int = 64,
    loss: float = 0.0,
    with_probe: bool = True,
    force_attack: bool = False,
    expect: dict | None = None,
) -> dict:
    """The canonical NATed topology: clients - nat - router - {server,
    vantage, attacker}, all links 1500/delay 1 unless overridden."""
    nodes = [
        {"id": f"client{i + 1}", "kind": "client", "address": f"10.0.0.{i + 2}"}
        for i in range(DOC_CLIENTS)
    ]
    nodes += [
        {"id": "nat", "kind": "nat", "address": "6.6.6.6"},
        {"id": "r1", "kind": "router", "address": "198.51.100.1"},
        {"id": "server", "kind": "server", "address": "7.7.7.7"},
        {"id": "vantage", "kind": "vantage", "address": "8.8.8.8"},
        {"id": "attacker", "kind": "attacker", "address": "9.9.9.9"},
    ]
    links = []
    for i in range(DOC_CLIENTS):
        links += [
            {"from": f"client{i + 1}", "to": "nat"},
            {"from": "nat", "to": f"client{i + 1}"},
        ]
    links += [
        {"from": "nat", "to": "r1"},
        {"from": "r1", "to": "nat", "filter": nat_inbound_filter},
        {"from": "r1", "to": "server"},
        {"from": "server", "to": "r1"},
        {"from": "r1", "to": "vantage", "mtu": router_vantage_mtu},
        {"from": "vantage", "to": "r1"},
        {"from": "attacker", "to": "r1"},
        {"from": "r1", "to": "attacker"},
    ]
    if loss:
        for link in links:
            if link["from"] == "attacker":
                link["loss"] = loss
    doc = {
        "name": name,
        "seed": seed,
        "nodes": nodes,
        "links": links,
        "nat": {
            "node": "nat",
            "rst_handling": rst_handling,
            "require_ack_on_rst": False,
            "unmapped_inbound": unmapped_inbound,
            "port_allocation": port_allocation,
            "sequential_start": 40000,
            "pmtud_sync": pmtud_sync,
        },
        "server": {"node": "server", "profile": server_profile, "port": 80},
        "ephemeral_range": list(ephemeral_range),
        "workload": {"connections": DOC_CLIENTS, "send_period": 10, "payload": 512},
        "attack": {
            "dst_port_range": list(port_range),
            "push_ack_src_port_range": list(port_range),
            "interleave_batch": interleave_batch,
            "rounds": rounds,
        },
        "force_attack": force_attack,
        "expect": expect,
    }
    if with_probe:
        doc["probe"] = {"forged_mtu": ProbeConfig.forged_mtu, "vantage": "vantage"}
        if pre_echo_mtu is not None:
            doc["probe"]["pre_echo_mtu"] = {"link": ["r1", "vantage"], "mtu": pre_echo_mtu}
    return doc


def host_scenario_doc(
    name: str,
    *,
    seed: int = 1,
    router_vantage_mtu: int = 1500,
    pre_echo_mtu: int | None = None,
    expect: dict | None = None,
) -> dict:
    """A directly addressed host talking to the vantage: the probe's
    separate-host twin of the NATed topology."""
    doc = {
        "name": name,
        "seed": seed,
        "nodes": [
            {"id": "host", "kind": "client", "address": "5.5.5.5"},
            {"id": "r1", "kind": "router", "address": "198.51.100.1"},
            {"id": "vantage", "kind": "vantage", "address": "8.8.8.8"},
        ],
        "links": [
            {"from": "host", "to": "r1"},
            {"from": "r1", "to": "host"},
            {"from": "r1", "to": "vantage", "mtu": router_vantage_mtu},
            {"from": "vantage", "to": "r1"},
        ],
        "nat": None,
        "server": None,
        "workload": {"connections": 0, "send_period": 10, "payload": 512},
        "probe": {"forged_mtu": ProbeConfig.forged_mtu, "vantage": "vantage"},
        "expect": expect,
    }
    if pre_echo_mtu is not None:
        doc["probe"]["pre_echo_mtu"] = {"link": ["r1", "vantage"], "mtu": pre_echo_mtu}
    return doc


def default_suite() -> list[Scenario]:
    """The shipped assessment matrix: every RST-handling x unmapped-inbound
    policy under both server profiles, the three router-fragmentation
    identification scenarios (plus their separate-host twins), and the two
    observed failure classes."""
    docs = []
    profiles = (("linux-like", "sequential"), ("openbsd-like", "preserving"))
    for rst in ("vulnerable-remove", "forward-only", "strict-validate"):
        for unmapped in ("rst-reply", "silent-drop"):
            for profile, allocation in profiles:
                if rst == "forward-only":
                    diagnosis = "forwarded-rst-no-removal"
                else:
                    diagnosis = "none" if profile == "linux-like" else "no-dup-ack-from-server"
                vulnerable = rst == "vulnerable-remove" and profile == "linux-like"
                expect = {"verdict": "nat-device", "attack_success": vulnerable, "diagnosis": diagnosis}
                docs.append(nat_scenario_doc(
                    f"matrix-{rst}-{unmapped}-{profile}", rst_handling=rst, unmapped_inbound=unmapped,
                    port_allocation=allocation, server_profile=profile, expect=expect))
    for mtu in (1500, 1492, 576):
        pre_echo, static = (mtu, 1500) if mtu < 600 else (None, mtu)
        docs.append(nat_scenario_doc(
            f"frag-router-{mtu}-nat", router_vantage_mtu=static, pre_echo_mtu=pre_echo,
            expect={"verdict": "nat-device", "attack_success": True, "diagnosis": "none"}))
        docs.append(host_scenario_doc(
            f"frag-router-{mtu}-host", router_vantage_mtu=static, pre_echo_mtu=pre_echo,
            expect={"verdict": "separate-host"}))
    docs.append(nat_scenario_doc("failure-forwarding-wifi", rst_handling="forward-only", expect={
        "verdict": "nat-device", "attack_success": False, "diagnosis": "forwarded-rst-no-removal"}))
    docs.append(nat_scenario_doc(
        "failure-middlebox-cloud", nat_inbound_filter=["tcp-rst-inbound", "icmp-error"],
        force_attack=True, expect={
            "verdict": "unknown", "attack_success": False, "diagnosis": "rst-blocked-by-middlebox"}))
    return [load_scenario(d) for d in docs]
