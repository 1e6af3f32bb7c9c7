"""Scenario loading: schema validation, defaults, the shipped suite."""

import copy
import dataclasses
import json
import os
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from natsim import assess, strike
from natsim import scenario as sc
from natsim.cli import main
from natsim.fabric import keep_traces, render_chunks
from natsim.natbox import PmtudSync, PortAllocation, RstHandling, UnmappedInbound
from natsim.scenario import ScenarioError, load_scenario
from natsim.wire import TcpFlag, TcpSegment

WIFI = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "vulnerable-wifi.json")


def wifi_doc():
    with open(WIFI) as fh:
        return json.load(fh)


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def minimal_doc():
    return {
        "name": "mini",
        "nodes": [
            {"id": "c", "kind": "client", "address": "10.0.0.2"},
            {"id": "n", "kind": "nat", "address": "6.6.6.6"},
            {"id": "s", "kind": "server", "address": "7.7.7.7"},
        ],
        "links": [
            {"from": "c", "to": "n"}, {"from": "n", "to": "c"},
            {"from": "n", "to": "s"}, {"from": "s", "to": "n"},
        ],
        "nat": {"node": "n"},
        "server": {"node": "s"},
    }


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        scn = load_scenario(minimal_doc())
        assert scn.seed == 1
        assert scn.tick_duration == 0.001
        assert all(l.mtu == 1500 and l.delay == 1 for l in scn.links)
        p = scn.nat_policy
        assert p.rst_handling is RstHandling.VULNERABLE_REMOVE
        assert p.unmapped_inbound is UnmappedInbound.RST_REPLY
        assert p.port_allocation is PortAllocation.SEQUENTIAL
        assert p.pmtud_sync is PmtudSync.LEAKY_SIDE_CHANNEL
        assert scn.ephemeral_range == (32768, 61000)
        assert scn.server.port == 80
        assert scn.clients == ["c"]
        assert scn.attack is None and scn.probe is None

    def test_no_server_block(self):
        doc = minimal_doc()
        del doc["server"]
        scn = load_scenario(doc)
        assert scn.server is None
        assert scn.policy_summary().endswith("/linux-like")

    def test_attack_defaults(self):
        doc = minimal_doc()
        doc["attack"] = {}
        scn = load_scenario(doc)
        assert scn.attack.dst_port_range == (32768, 61000)
        assert scn.attack.push_ack_src_port_range == (32768, 61000)
        assert scn.attack.interleave_batch == 1024
        assert scn.attack.rounds == 1
        assert scn.attack.set_ack_flag_on_rst is True

    @pytest.mark.parametrize("seed", [1, 41])  # the shipped seed is also the default
    def test_plan_is_seeded_with_the_run_seed(self, seed):
        doc = wifi_doc()
        doc["seed"] = seed
        scn = load_scenario(doc)
        assert scn.attack.seed == doc["seed"]
        assert sc.build(scn, seed=7).plan.seed == 7
        assert sc.build(scn).plan.seed == scn.seed

    def test_probe_defaults(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "v", "kind": "vantage", "address": "8.8.8.8"})
        doc["links"] += [{"from": "n", "to": "v"}, {"from": "v", "to": "n"}]
        doc["probe"] = {"vantage": "v"}
        scn = load_scenario(doc)
        assert scn.probe.forged_mtu == 600
        assert scn.probe.baseline_size == 1500


class TestValidation:
    def test_unknown_enum_lists_valid_values(self):
        doc = minimal_doc()
        doc["nat"]["rst_handling"] = "drop-everything"
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        msg = str(e.value)
        assert "nat.rst_handling" in msg
        assert "vulnerable-remove" in msg and "strict-validate" in msg

    def test_forged_mtu_above_baseline(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "v", "kind": "vantage", "address": "8.8.8.8"})
        doc["links"] += [{"from": "n", "to": "v"}, {"from": "v", "to": "n"}]
        doc["probe"] = {"vantage": "v", "forged_mtu": 2000}
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "probe.forged_mtu" in str(e.value)

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["name"]
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "scenario.name" in str(e.value)

    def test_unknown_link_endpoint(self):
        doc = minimal_doc()
        doc["links"].append({"from": "c", "to": "ghost"})
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "ghost" in str(e.value)

    def test_duplicate_node_id(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "c", "kind": "client", "address": "10.0.0.9"})
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "duplicate" in str(e.value)

    def test_unknown_node_kind(self):
        doc = minimal_doc()
        doc["nodes"][0]["kind"] = "toaster"
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "toaster" in str(e.value) and "client" in str(e.value)

    def test_bad_mtu(self):
        doc = minimal_doc()
        doc["links"][0]["mtu"] = 40
        with pytest.raises(ScenarioError):
            load_scenario(doc)

    def test_bad_port_range(self):
        doc = minimal_doc()
        doc["attack"] = {"dst_port_range": [5000, 4000]}
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "dst_port_range" in str(e.value)

    def test_disconnected_topology(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "island", "kind": "router", "address": "3.3.3.3"})
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "island" in str(e.value)

    def test_second_nat_rejected(self):
        doc = minimal_doc()
        doc["nodes"].append({"id": "n2", "kind": "nat", "address": "6.6.6.7"})
        doc["links"] += [{"from": "n", "to": "n2"}, {"from": "n2", "to": "n"}]
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert "at most one NAT" in str(e.value)


    @pytest.mark.parametrize("path, value, field", [
        (("nodes", 0), 7, "nodes[0]"),
        (("links", 0), 5, "links[0]"),
        (("nat",), [], "scenario.nat"),
        (("workload",), "x", "scenario.workload"),
        (("probe", "pre_echo_mtu"), 576, "probe.pre_echo_mtu"),
        (("probe", "pre_echo_mtu"), {"link": [["r1"], "vantage"], "mtu": 576}, "probe.pre_echo_mtu"),
        (("clients",), [["client1"]], "clients"),
        (("attack", "interleave_batch"), 0, "attack.interleave_batch"),
        (("attack", "rounds"), 0, "attack.rounds"),
        (("nodes", 0, "address"), "10.0.0.999", "nodes[0].address"),
        (("links", 0, "mtu"), True, "links[0].mtu"),
        (("ephemeral_range",), [True, 40000], "scenario.ephemeral_range"),
        (("workload", "connections"), -3, "workload.connections"),
        (("workload", "send_period"), 0, "workload.send_period"),
        (("server", "port"), 70000, "server.port: 70000 is outside [0, 65536)"),
        (("server", "port"), -1, "server.port"),
        (("attack", "forged_seq"), 2**40, "attack.forged_seq: 1099511627776 is outside [0, 4294967296)"),
        (("attack", "forged_seq"), -5, "attack.forged_seq: -5 is outside [0, 4294967296)"),
        (("attack", "settle_ticks"), -60, "attack.settle_ticks: -60 is below the minimum 0"),
        (("attack", "new_connection_attempts"), -3, "attack.new_connection_attempts"),
        (("probe", "timeout_ticks"), -1, "probe.timeout_ticks: -1 is below the minimum 1"),
        (("probe", "timeout_ticks"), 0, "probe.timeout_ticks"),
        (("probe", "baseline_size"), 70000, "probe.baseline_size"),
        (("workload", "payload"), -1, "workload.payload"),
        (("nat", "sequential_start"), 70000, "nat.sequential_start: 70000 is outside [0, 65536)"),
        (("tick_duration",), 0, "scenario.tick_duration"),
        (("tick_duration",), True, "scenario.tick_duration"),
        (("probe", "pre_echo_mtu"), {"link": ["r1", "vantage"], "mtu": 10}, "probe.pre_echo_mtu.mtu"),
        (("probe", "pre_echo_mtu"), {"link": ["server", "vantage"], "mtu": 576}, "probe.pre_echo_mtu.link"),
        (("server",), None, "attack: an attack block requires a server block"),
        (("nodes", 1, "address"), "10.0.0.2", "nodes[1].address: duplicate address"),
        (("nat", "node"), "client1", "nat.node"),
        (("nat",), None, "nat: node 'nat' present but not configured"),
        (("clients",), ["nat"], "clients"),
        (("probe", "vantage"), "r1", "probe.vantage"),
        (("server", "node"), "attacker", "server.node"),
        # 4 clients x 2,048 ephemeral ports; the vantage session takes one
        # more port of client1, the attack's new connections one each
        (("workload", "connections"), 9000,
         "workload.connections: 9000 connections need more than the 2048 ephemeral ports"),
        (("workload", "connections"), 8189, "workload.connections"),
        (("attack", "new_connection_attempts"), 10**9, "attack.new_connection_attempts"),
        (("attack", "rounds"), 100000,
         "attack.rounds: 100000 rounds of 4096 forged packets exceed the bound of 1048576"),
        # a key that names no field, or a field the loader sets itself
        (("nat", "require_ack_flag_on_rst"), True, "nat.require_ack_flag_on_rst: unknown field"),
        (("attack", "round"), 99, "attack.round: unknown field"),
        (("attack", "seed"), 5, "attack.seed: unknown field"),
        (("attack", "nat_public_ip"), "6.6.6.7", "attack.nat_public_ip: unknown field"),
        (("links", 0, "frm"), "nat", "links[0].frm: unknown field (valid: from, to, filter, mtu"),
        (("nodes", 0, "name"), "c", "nodes[0].name: unknown field (valid: id, kind, address)"),
        (("server", "address"), "7.7.7.7", "server.address: unknown field"),
        (("probe", "pre_echo_mtu"), {"link": ["r1", "vantage"], "mtu": 576, "ttl": 1},
         "probe.pre_echo_mtu.ttl: unknown field"),
        (("probe", "vantage_node"), "vantage", "probe.vantage_node: unknown field"),
        (("workload", "conections"), 4, "workload.conections: unknown field"),
        (("expect", "verdicts"), "nat-device", "expect.verdicts: unknown field"),
        (("rounds",), 2, "scenario.rounds: unknown field"),
        (("nodes", 0, "kind"), "toaster",
         "nodes[0].kind: unknown value 'toaster' (valid: client, nat, router, server, vantage, attacker)"),
        (("server", "profile"), "bsd-like",
         "server.profile: unknown value 'bsd-like' (valid: linux-like, openbsd-like)"),
        (("probe", "pre_echo_mtu"), {"link": ["r1", "vantage"]}, "probe.pre_echo_mtu.mtu: required field missing"),
        (("workload", "payload"), 65536, "workload.payload: 65536 is outside [0, 65536)"),
        # the vantage host must be neither the victims' server nor a client
        (("server", "node"), "vantage", "probe.vantage: 'vantage' is also server.node"),
        (("probe", "vantage"), "client1", "probe.vantage: 'client1' is also one of clients"),
        # the top-level keys, read from the fields of Scenario
        (("name",), 5, "scenario.name: expected str, got int"),
        (("seed",), "1", "scenario.seed: expected int, got str"),
        (("seed",), True, "scenario.seed: expected int, got bool"),
        (("force_attack",), 1, "scenario.force_attack: expected bool, got int"),
        (("ephemeral_range",), [50000, 40000],
         "scenario.ephemeral_range: range [50000, 40000] empty or out of bounds"),
        (("ephemeral_range",), [1], "scenario.ephemeral_range: expected [lo, hi]"),
        (("tick_duration",), -0.5, "scenario.tick_duration: -0.5 is not positive"),
        (("tick_duration",), "fast", "scenario.tick_duration: expected float, got str"),
        (("expect",), [], "scenario.expect: expected dict, got list"),
        (("attack",), 7, "scenario.attack: expected dict, got int"),
        (("probe", "timeout_ticks"), 100001, "probe.timeout_ticks: 100001 is above the maximum 100000"),
        # the victims' server is not one of their clients
        (("server", "node"), "client1", "server.node: 'client1' is also one of clients"),
        # a second attacker node, like a second NAT, is refused
        (("nodes", 5, "kind"), "attacker", "nodes: at most one attacker node per scenario"),
        # no nodes, or no clients
        (("nodes",), [], "scenario.nodes: at least one node required"),
        (("clients",), [], "clients: at least one client node required"),
        # an expected verdict or diagnosis must be one the run can give
        (("expect", "verdict"), "nat-devise",
         "expect.verdict: unknown value 'nat-devise' (valid: nat-device, separate-host, unknown)"),
        (("expect", "diagnosis"), "nonee",
         "expect.diagnosis: unknown value 'nonee' (valid: none, forwarded-rst-no-removal, "
         "rst-blocked-by-middlebox, rst-not-routed, sweep-missed-mappings, no-dup-ack-from-server, "
         "packet-loss)"),
        # the CSV's first column and the trace header carry the name unquoted
        (("name",), "wifi,cafe", "scenario.name: 'wifi,cafe' holds a comma, double quote, CR or LF"),
        (("name",), 'wifi"cafe', "scenario.name: 'wifi\"cafe' holds a comma"),
        (("name",), "wifi\ncafe", "scenario.name: 'wifi\\ncafe' holds a comma"),
        (("name",), "wifi\rcafe", "scenario.name: 'wifi\\rcafe' holds a comma"),
    ])
    def test_malformed_shipped_document(self, path, value, field):
        doc = wifi_doc()
        set_path(doc, path, value)
        with pytest.raises(ScenarioError) as e:
            load_scenario(doc)
        assert field in str(e.value)

    @pytest.mark.parametrize("doc", [[], "x"])
    def test_document_that_is_not_an_object(self, doc):
        with pytest.raises(ScenarioError, match="^scenario: expected an object"):
            load_scenario(doc)

    def test_probe_may_wait_the_longest_timeout(self):
        doc = wifi_doc()
        doc["probe"]["timeout_ticks"] = 100000
        assert load_scenario(doc).probe.timeout_ticks == 100000

    def test_connections_may_use_every_ephemeral_port(self):
        doc = wifi_doc()
        doc["workload"]["connections"] = 8188
        doc["attack"]["new_connection_attempts"] = 0
        assert load_scenario(doc).workload.connections == 8188

    def test_payload_may_fill_one_receive_window(self):
        doc = wifi_doc()
        doc["workload"]["payload"] = 65535
        assert load_scenario(doc).workload.payload == 65535

    def test_forged_packet_bound_is_inclusive(self):
        # 16 rounds of two 32,768-port sweeps send exactly 2**20 packets
        doc = wifi_doc()
        doc["attack"].update(rounds=16, dst_port_range=[0, 32767],
                             push_ack_src_port_range=[0, 32767])
        assert load_scenario(doc).attack.rounds == 16
        doc["attack"]["dst_port_range"] = [0, 32768]
        with pytest.raises(ScenarioError, match=r"^attack\.rounds: 16 rounds of 65537 "):
            load_scenario(doc)

    def test_malformed_document_exits_1(self, tmp_path):
        doc = wifi_doc()
        doc["workload"]["connections"] = -3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["attack", str(path), "--quiet"]) == 1

    @pytest.mark.parametrize("path, value, message", [
        (("server", "port"), 70000, "configuration error: server.port"),
        (("attack", "forged_seq"), 2**40, "configuration error: attack.forged_seq"),
        (("attack", "forged_seq"), -5, "configuration error: attack.forged_seq"),
        (("workload", "connections"), 0, "attack error: nothing-to-attack"),
        (("attack", "settle_ticks"), -60, "configuration error: attack.settle_ticks"),
        (("nodes", 8, "kind"), "router", "configuration error: attack: scenario has no attacker node"),
        (("workload", "connections"), 9000, "configuration error: workload.connections"),
        (("attack", "rounds"), 100000, "configuration error: attack.rounds"),
        (("nat", "require_ack_flag_on_rst"), True,
         "configuration error: nat.require_ack_flag_on_rst: unknown field"),
        # every packet toward the server is filtered, so no victim connects
        (("links", 10, "filter"), ["all"],
         "scenario error: vulnerable-wifi: victim connections failed to establish"),
    ])
    def test_attack_cli_exits_1_with_one_line(self, tmp_path, capsys, path, value, message):
        doc = wifi_doc()
        set_path(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["attack", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("path, value, message", [
        (("probe", "pre_echo_mtu"), {"link": ["r1", "vantage"], "mtu": 10},
         "configuration error: probe.pre_echo_mtu.mtu"),
        (("probe", "pre_echo_mtu"), {"link": ["server", "vantage"], "mtu": 576},
         "configuration error: probe.pre_echo_mtu.link"),
        (("probe", "timeout_ticks"), -1, "configuration error: probe.timeout_ticks"),
        (("probe", "vantage"), "nat", "configuration error: probe.vantage"),
        (("probe", "timeout_ticks"), 100001, "configuration error: probe.timeout_ticks: 100001 is above"),
        # every packet toward the vantage is filtered, so its session never opens
        (("links", 12, "filter"), ["all"],
         "scenario error: vulnerable-wifi: vantage session failed to establish"),
    ])
    def test_identify_cli_exits_1_with_one_line(self, tmp_path, capsys, path, value, message):
        doc = wifi_doc()
        set_path(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["identify", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["identify", "attack", "assess"])
def test_an_attack_requires_a_nat(tmp_path, capsys, command):
    """The attack tears down connections through a NAT: a document with an
    attack block and no NAT fails at load, whatever the command."""
    doc = wifi_doc()
    doc["nat"] = None
    next(n for n in doc["nodes"] if n["kind"] == "nat")["kind"] = "router"
    path = tmp_path / "no-nat.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == "configuration error: attack: an attack block requires a nat block\n"
    del doc["attack"]
    assert load_scenario(doc).nat_policy is None


class TestExpectations:
    @pytest.mark.parametrize("command, rc", [("attack", 2), ("identify", 0), ("assess", 2)])
    def test_each_command_checks_the_expectations_of_its_runs(self, tmp_path, command, rc):
        # the attack succeeds, so a packet-loss diagnosis is a mismatch for
        # the commands that attack, and no concern of the one that does not
        doc = wifi_doc()
        doc["expect"]["diagnosis"] = "packet-loss"
        path = tmp_path / "wifi.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--quiet"]) == rc


@pytest.mark.parametrize("kind", ["server", "client", "vantage"])
def test_roles_follow_the_blocks_that_name_them(kind):
    """The server's stack profile follows `server.node` and the vantage
    behaviour `probe.vantage`, whatever kind the server's node is."""
    doc = sc.nat_scenario_doc("roles", server_profile="openbsd-like", port_allocation="preserving",
                              ephemeral_range=(40000, 40063), port_range=(40000, 40063),
                              interleave_batch=16)
    next(n for n in doc["nodes"] if n["id"] == "server")["kind"] = kind
    doc["clients"] = [f"client{i + 1}" for i in range(sc.DOC_CLIENTS)]
    scn = load_scenario(doc)
    handles = sc.build(scn)
    sc.establish(handles)
    for host, key in handles.victims:
        sock = host.socket(key)
        assert sock.snd_una == sock.snd_nxt, "the server ACKs its victims' data"
    report = strike.run_dos_attack(handles)
    assert (report.success, report.failure_diagnosis.value) == (False, "no-dup-ack-from-server")
    assert [n for n, h in handles.hosts.items() if h.vantage] == [scn.probe.vantage]
    assert [n for n, h in handles.hosts.items() if h.arrivals] == [scn.probe.vantage]


class TestSharedLinks:
    """Every run of a loaded document shares its frozen LinkSpecs, so a run
    that re-dials a link must swap in its own copy."""

    def test_set_link_mtu_changes_only_its_own_run(self):
        scn = load_scenario(sc.nat_scenario_doc("shared"))
        document = copy.deepcopy(scn.links)
        before, redialled = sc.build(scn, seed=1).sim, sc.build(scn, seed=2).sim
        redialled.set_link_mtu("r1", "vantage", 576)
        after = sc.build(scn, seed=3).sim
        assert scn.links == document
        for sim in (before, after):
            assert all(sim.links[(link.frm, link.to)] is link for link in scn.links)
            assert sim.path_min_mtu("client1", "8.8.8.8") == 1500
        # every origin whose route to the vantage crosses r1->vantage reads
        # the new MTU, and no other route changes
        for origin in redialled.nodes:
            for dst in redialled.addr_to_node:
                node, crossed = origin, []
                while redialled.nodes[node].address != dst:
                    hop = redialled.forwarding[node][dst][0]
                    crossed.append((node, hop))
                    node = hop
                expected = None if not crossed else 576 if ("r1", "vantage") in crossed else 1500
                assert redialled.path_min_mtu(origin, dst) == expected, (origin, dst)
        assert sum(redialled.path_min_mtu(o, "8.8.8.8") == 576 for o in redialled.nodes) == 8

    def test_a_link_is_frozen(self):
        link = load_scenario(sc.nat_scenario_doc("frozen")).links[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            link.mtu = 576

    def test_a_redialling_run_repeats_on_one_loaded_document(self):
        """frag-router-576-nat re-dials r1->vantage between the probe's
        stages: two identifications on one loaded Scenario, and one on a
        freshly loaded copy, give equal verdicts and trace text."""

        def identify(scn):
            with keep_traces():
                verdict, handles = assess.identify_scenario(scn)
            return verdict, "".join(render_chunks(handles.sim.trace.rows(), 1024))

        scn = next(s for s in sc.default_suite() if s.name == "frag-router-576-nat")
        first = identify(scn)
        assert first[0].kind.value == "nat-device"
        assert identify(scn) == first == identify(load_scenario(scn.doc))


SHIPPED = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SHIPPED_DOCS = [json.loads(p.read_text()) for p in sorted(pathlib.Path(SHIPPED).glob("*.json"))]


@pytest.mark.parametrize("doc", SHIPPED_DOCS, ids=lambda d: d["name"])
def test_shipped_runs_carry_tcpflag_flags(doc):
    """Every TCP segment an identify or attack run records has a TcpFlag,
    never a plain int, in its public flags field."""
    scn = load_scenario(doc)
    flag_types = set()
    for run, part in ((assess.identify_scenario, scn.probe), (assess.attack_scenario, scn.attack)):
        if part is None:
            continue
        with keep_traces():
            _, handles = run(scn)
        flag_types |= {type(rec.dgram.payload.flags) for rec in handles.sim.trace
                       if isinstance(rec.dgram.payload, TcpSegment)}
    assert flag_types == {TcpFlag}


# optional fields the shipped documents leave out
ABSENT_FIELDS = [
    ("seed",), ("tick_duration",), ("clients",), ("force_attack",),
    ("attack", "forged_seq"), ("attack", "set_ack_flag_on_rst"),
    ("attack", "new_connection_attempts"), ("attack", "settle_ticks"),
    ("probe", "baseline_size"), ("probe", "timeout_ticks"), ("probe", "pre_echo_mtu"),
    ("nat", "require_ack_on_rst"), ("links", 0, "loss"), ("links", 0, "delay"),
    ("links", 0, "mtu"), ("links", 0, "filter"),
]


def _paths(value, prefix=()):
    if prefix:
        yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _leaves(value):
    if isinstance(value, (dict, list)):
        for child in (value.values() if isinstance(value, dict) else value):
            yield from _leaves(child)
    else:
        yield value


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    path = draw(st.sampled_from(list(_paths(doc)) + ABSENT_FIELDS))
    # the document's own values make the mutations that pass the type checks
    own = st.sampled_from(sorted({json.dumps(v) for v in _leaves(doc)})).map(json.loads)
    parent = doc
    for key in path[:-1]:
        parent = parent.get(key) if isinstance(parent, dict) else parent[key]
    if parent is not None:  # a block the document leaves out stays out
        parent[path[-1]] = draw(own | json_values)
    return doc


class TestLoaderFuzz:
    @given(doc=mutated_documents())
    @settings(max_examples=200, deadline=None)
    def test_one_bad_field_is_a_scenario_error_or_builds(self, doc):
        try:
            scn = load_scenario(doc)
        except ScenarioError:
            return
        sc.build(scn)


class TestSuite:
    def test_suite_composition(self):
        suite = sc.default_suite()
        names = [s.name for s in suite]
        assert len(suite) == 20
        assert sum(1 for n in names if n.startswith("matrix-")) == 12
        assert sum(1 for n in names if n.startswith("frag-router-")) == 6
        assert "failure-forwarding-wifi" in names
        assert "failure-middlebox-cloud" in names
        for scn in suite:
            assert scn.expect is not None

    def test_builders_validate(self):
        scn = load_scenario(sc.nat_scenario_doc("b", router_vantage_mtu=1492))
        assert scn.nat_policy is not None
        assert scn.target_addr == "6.6.6.6"
        host = load_scenario(sc.host_scenario_doc("h"))
        assert host.nat_policy is None
        assert host.target_addr == "5.5.5.5"
