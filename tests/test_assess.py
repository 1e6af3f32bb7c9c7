"""Assessor, CSV formats, trace replay, and the CLI exit-code contract."""

import gc
import json
import os
import re
import tracemalloc
import weakref

import pytest

from natsim import assess
from natsim import scenario as sc
from natsim.cli import main
from natsim.fabric import Simulator, keep_traces, render_lines

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SHIPPED = sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json"))

# JSON nested too deep for the decoder's recursion limit
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def fast_doc(name, **kw):
    defaults = dict(ephemeral_range=(40000, 40063), port_range=(40000, 40063),
                    interleave_batch=16)
    defaults.update(kw)
    return sc.nat_scenario_doc(name, **defaults)


def small_set():
    return [
        sc.load_scenario(fast_doc("a-vuln", expect={"verdict": "nat-device",
                                                    "attack_success": True})),
        sc.load_scenario(fast_doc("b-strict", rst_handling="strict-validate",
                                  expect={"attack_success": False})),
    ]


class TestAssess:
    def test_csv_deterministic_across_invocations(self):
        _, csv1, _, _ = assess.assess(small_set())
        _, csv2, _, _ = assess.assess(small_set())
        assert csv1 == csv2

    def test_csv_columns_fixed(self):
        rows, csv, _, matched = assess.assess(small_set())
        lines = csv.strip().split("\n")
        assert lines[0] == assess.ASSESS_CSV_HEADER
        assert len(lines) == 3
        assert matched
        first = lines[1].split(",")
        assert first[0] == "a-vuln" and first[3] == "true"

    def test_rows_sorted_by_name(self):
        rows, _, _, _ = assess.assess(list(reversed(small_set())))
        assert [r.scenario for r in rows] == ["a-vuln", "b-strict"]

    def test_failing_scenario_becomes_row(self):
        doc = fast_doc("broken", force_attack=True)
        doc["workload"]["connections"] = 0
        rows, csv, _, matched = assess.assess([sc.load_scenario(doc)] + small_set())
        assert len(rows) == 3
        broken = [r for r in rows if r.scenario == "broken"][0]
        assert broken.error and "nothing-to-attack" in broken.error
        assert not matched  # the error counts against the suite
        assert "error" in csv

    def test_expectation_mismatch_detected(self):
        doc = fast_doc("wrong", expect={"attack_success": False})
        rows, _, _, matched = assess.assess([sc.load_scenario(doc)])
        assert not matched
        assert rows[0].expected_mismatch

    def test_packet_budget_identity_on_rows(self):
        rows, _, _, _ = assess.assess(small_set())
        for r in rows:
            if r.report is None:
                continue
            scn = {"a-vuln": 0, "b-strict": 1}[r.scenario]
            span = 40063 - 40000 + 1
            assert r.report.rst_packets_sent == 2 * span  # rounds=2
            assert r.report.push_ack_packets_sent == 2 * span


class TestReplay:
    def write_trace(self, tmp_path, doc, mode="attack"):
        scn = sc.load_scenario(doc)
        with keep_traces():
            if mode == "attack":
                _, handles = assess.attack_scenario(scn)
            else:
                _, handles = assess.identify_scenario(scn)
        sink = assess.TraceFile()
        sink.add_section(scn, mode, handles.sim)
        path = tmp_path / "run.trace"
        sink.write(str(path))
        return path

    def test_identical(self, tmp_path):
        path = self.write_trace(tmp_path, fast_doc("r1"))
        result = assess.replay(str(path))
        assert result.identical and not result.version_mismatch
        assert result.describe() == "identical"

    def test_identify_mode_replays(self, tmp_path):
        path = self.write_trace(tmp_path, fast_doc("r2"), mode="identify")
        assert assess.replay(str(path)).identical

    def test_altered_seed_diverges(self, tmp_path):
        path = self.write_trace(tmp_path, fast_doc("r3"))
        text = path.read_text().replace("#seed 1", "#seed 99")
        path.write_text(text)
        result = assess.replay(str(path))
        assert not result.identical
        assert "line" in result.divergence

    def test_altered_policy_diverges_at_rst_handling(self, tmp_path):
        path = self.write_trace(tmp_path, fast_doc("r4"))
        text = path.read_text().replace('"rst_handling": "vulnerable-remove"',
                                        '"rst_handling": "forward-only"')
        path.write_text(text)
        result = assess.replay(str(path))
        assert not result.identical

    def test_version_mismatch_flagged_but_compared(self, tmp_path):
        path = self.write_trace(tmp_path, fast_doc("r5"))
        lines = path.read_text().splitlines()
        lines[0] = "#natsim-trace 0.0.0"
        path.write_text("\n".join(lines) + "\n")
        result = assess.replay(str(path))
        assert result.version_mismatch
        assert result.identical  # comparison still attempted and clean

    def write_sections(self, tmp_path, runs):
        """A trace file with one section per (doc, mode) in `runs`."""
        sink = assess.TraceFile()
        for doc, mode in runs:
            scn = sc.load_scenario(doc)
            run = assess.attack_scenario if mode == "attack" else assess.identify_scenario
            with keep_traces():
                _, handles = run(scn)
            sink.add_section(scn, mode, handles.sim)
        path = tmp_path / "multi.trace"
        sink.write(str(path))
        return path

    def three_sections(self, tmp_path):
        return self.write_sections(tmp_path, [
            (fast_doc("m1"), "identify"), (fast_doc("m2"), "attack"), (fast_doc("m3"), "identify")])

    def test_divergence_in_middle_section_names_its_line(self, tmp_path):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines()
        second = [i for i, l in enumerate(lines) if l == "#name m2"][0]
        body = second + 4  # after #name, #mode, #seed and #scenario
        original = lines[body + 6]
        lines[body + 6] = original.replace("\tsend\t", "\tforward\t", 1)
        assert lines[body + 6] != original
        path.write_text("\n".join(lines) + "\n")
        result = assess.replay(str(path))
        assert not result.identical and not result.version_mismatch
        assert result.divergence == (
            f"section m2 line 7: recorded {lines[body + 6]!r} vs replayed {original!r}")

    def test_truncated_last_section_counts_lines(self, tmp_path):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines()
        body = len(lines) - ([i for i, l in enumerate(lines) if l == "#name m3"][0] + 4)
        path.write_text("\n".join(lines[:-3]) + "\n")
        result = assess.replay(str(path))
        assert result.divergence == f"section m3: recorded {body - 3} lines vs replayed {body}"

    def test_version_mismatch_in_last_header_alone(self, tmp_path):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines()
        last = max(i for i, l in enumerate(lines) if l.startswith("#natsim-trace "))
        lines[last] = "#natsim-trace 0.0.0"
        path.write_text("\n".join(lines) + "\n")
        result = assess.replay(str(path))
        assert result.identical and result.version_mismatch
        assert result.describe() == "identical (version mismatch noted)"
        # a divergence in the first section still reads the later headers
        path.write_text(path.read_text().replace("#seed 1", "#seed 99", 1))
        result = assess.replay(str(path))
        assert not result.identical and result.version_mismatch
        assert result.divergence.startswith("section m1 line ")

    def test_trace_file_holds_no_simulator(self, tmp_path):
        scn = sc.load_scenario(fast_doc("w1"))
        with keep_traces():
            _, handles = assess.attack_scenario(scn)
        sim = weakref.ref(handles.sim)
        sink = assess.TraceFile()
        sink.add_section(scn, "attack", handles.sim)
        del handles
        gc.collect()
        assert sim() is None
        sink.write(str(tmp_path / "w1.trace"))
        assert assess.replay(str(tmp_path / "w1.trace")).identical

    def test_blank_lines_in_a_body_are_skipped(self, tmp_path):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines()
        second = [i for i, l in enumerate(lines) if l == "#name m2"][0]
        for at in (len(lines) - 1, second + 900, second + 10, second + 5):
            lines[at:at] = [""] * 3
        path.write_text("\n".join(lines) + "\n\n")
        assert assess.replay(str(path)).describe() == "identical"

    def test_extra_lines_in_a_middle_section_are_counted(self, tmp_path):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines()
        second = [i for i, l in enumerate(lines) if l == "#name m2"][0]
        third = [i for i, l in enumerate(lines) if l == "#name m3"][0] - 1
        body = third - (second + 4)
        lines[third:third] = lines[third - 2 : third]
        path.write_text("\n".join(lines) + "\n")
        result = assess.replay(str(path))
        assert result.divergence == f"section m2: recorded {body + 2} lines vs replayed {body}"

    # the header takes five lines, so body lines 1,019 and 1,020 end and
    # start a 1,024-line block of the file
    @pytest.mark.parametrize("line", [1019, 1020, 1024, 1025])
    def test_divergence_at_a_block_edge_names_its_line(self, tmp_path, line):
        path = self.write_trace(tmp_path, fast_doc("e1"))
        lines = path.read_text().splitlines()
        assert len(lines) > line + 5
        original = lines[line + 4]
        lines[line + 4] = original + " "
        path.write_text("\n".join(lines) + "\n")
        result = assess.replay(str(path))
        assert result.divergence == (
            f"section e1 line {line}: recorded {original + ' '!r} vs replayed {original!r}")

    def test_replay_memory_follows_the_largest_section(self, tmp_path):
        one = self.write_trace(tmp_path, fast_doc("b1"))
        four = tmp_path / "four.trace"
        four.write_text(one.read_text() * 4)

        def peak(path):
            tracemalloc.start()
            try:
                assert assess.replay(str(path)).identical
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(one)  # first-use allocations are not the file's
        assert peak(four) < 1.5 * peak(one)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(sc.ScenarioError):
            assess.replay(str(path))


class TestTraceRendering:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_render_lines_matches_line_on_shipped_runs(self, name):
        with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
            scn = sc.load_scenario(json.load(fh))
        runs = [(scn.probe, assess.identify_scenario), (scn.attack, assess.attack_scenario)]
        for block, run in runs:
            if block is None:
                continue
            with keep_traces():
                _, handles = run(scn, seed=1)
            trace = handles.sim.trace
            assert len(trace) > 0
            assert "".join(render_lines(trace)) == "".join(rec.line() + "\n" for rec in trace)

    def test_add_section_memory_does_not_follow_its_length(self):
        # one run renders more datagrams than the summary cache holds; the
        # long section is four runs' records, with four times the datagrams
        scn = sc.load_scenario(fast_doc("m1", port_range=(40000, 40255)))
        sims = []
        for seed in range(1, 5):
            with keep_traces():
                sims.append(assess.attack_scenario(scn, seed=seed)[1].sim)
        one = sims[0]
        four = Simulator(seed=one.seed)
        for sim in sims:
            four.trace.records.extend(sim.trace.records)

        def peak(sim):
            sink = assess.TraceFile()
            tracemalloc.start()
            try:
                sink.add_section(scn, "attack", sim)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(one)  # first-use allocations are not the section's
        assert peak(four) < 1.5 * peak(one)


class TestCli:
    def scenario_file(self, tmp_path, doc):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identify_ok(self, tmp_path, capsys):
        rc = main(["identify", self.scenario_file(tmp_path, fast_doc("c1")), "--quiet"])
        assert rc == 0

    def test_attack_csv_and_trace(self, tmp_path):
        csv = tmp_path / "out.csv"
        trace = tmp_path / "out.trace"
        rc = main(["attack", self.scenario_file(tmp_path, fast_doc("c2")), "--quiet",
                   "--csv", str(csv), "--trace", str(trace)])
        assert rc == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == assess.STRIKE_CSV_HEADER
        assert lines[1].split(",")[2] == "true"
        rc = main(["replay", str(trace)])
        assert rc == 0

    def test_attack_repeat_rows(self, tmp_path):
        csv = tmp_path / "out.csv"
        rc = main(["attack", self.scenario_file(tmp_path, fast_doc("c3")), "--quiet",
                   "--repeat", "3", "--csv", str(csv)])
        assert rc == 0
        assert len(csv.read_text().strip().split("\n")) == 4

    def test_assess_exit_codes(self, tmp_path):
        good = self.scenario_file(tmp_path, fast_doc(
            "c4", expect={"attack_success": True}))
        assert main(["assess", good, "--quiet"]) == 0
        bad = self.scenario_file(tmp_path, fast_doc(
            "c5", expect={"attack_success": False}))
        assert main(["assess", bad, "--quiet"]) == 2

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_attack_repeat_below_one_exits_1(self, tmp_path, capsys, repeat):
        csv = tmp_path / "out.csv"
        rc = main(["attack", self.scenario_file(tmp_path, fast_doc("c11")), "--quiet",
                   "--repeat", repeat, "--csv", str(csv)])
        assert rc == 1 and not csv.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --repeat: ") and err.count("\n") == 1

    def test_every_command_runs_through_the_module_runners(self, tmp_path, monkeypatch):
        # the benchmark times runs by replacing these two module attributes,
        # so no command may hold its own reference to them
        calls = []
        for name in ("identify_scenario", "attack_scenario"):
            def counted(scn, seed=None, _run=getattr(assess, name), _name=name):
                calls.append(_name.partition("_")[0])
                return _run(scn, seed=seed)
            monkeypatch.setattr(assess, name, counted)
        path = self.scenario_file(tmp_path, fast_doc("c12", expect={"attack_success": True}))
        trace = tmp_path / "out.trace"
        assert main(["assess", path, "--quiet", "--trace", str(trace)]) == 0
        assert calls == ["identify", "attack"]
        assert main(["replay", str(trace)]) == 0
        assert calls == ["identify", "attack"] * 2
        assert main(["identify", path, "--quiet"]) == 0
        assert main(["attack", path, "--quiet", "--repeat", "2"]) == 0
        assert calls == ["identify", "attack"] * 2 + ["identify", "attack", "attack"]

    def test_config_error_exit_code(self, tmp_path):
        doc = fast_doc("c6")
        doc["nat"]["rst_handling"] = "nope"
        assert main(["identify", self.scenario_file(tmp_path, doc)]) == 1
        assert main(["identify", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("damage, message", [
        pytest.param(lambda b: b.replace(b"#seed 1", b"#seed one"),
                     "#seed: 'one' is not an integer", id="seed"),
        pytest.param(lambda b: b.replace(b"#scenario {", b"#scenario {{"),
                     "#scenario: invalid JSON", id="scenario-json"),
        pytest.param(None, "No such file or directory", id="missing"),
        pytest.param(lambda b: b.replace(b"#name c10", b"#name c10\xff\xfe"),
                     "can't decode byte 0xff", id="not-utf8"),
        pytest.param(lambda b: re.sub(rb"#scenario .*", b"#scenario " + DEEP_JSON, b),
                     "#scenario: invalid JSON: maximum recursion depth", id="scenario-nesting"),
    ])
    def test_malformed_trace_exits_1_with_one_line(self, tmp_path, capsys, damage, message):
        trace = tmp_path / "c10.trace"
        assert main(["attack", self.scenario_file(tmp_path, fast_doc("c10")), "--quiet",
                     "--trace", str(trace)]) == 0
        if damage is None:
            trace.unlink()
        else:
            trace.write_bytes(damage(trace.read_bytes()))
        capsys.readouterr()
        assert main(["replay", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {trace}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command, content, message", [
        pytest.param("identify", b"\xff\xfe{}", "can't decode byte 0xff", id="not-utf8"),
        pytest.param("assess", DEEP_JSON, "maximum recursion depth", id="nesting"),
        pytest.param("attack", b"{", "Expecting property name", id="truncated"),
    ])
    def test_unreadable_scenario_file_exits_1_with_one_line(self, tmp_path, capsys, command, content,
                                                            message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([command, str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: invalid JSON: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", ["identify", "attack", "assess"])
    @pytest.mark.parametrize("option", ["--csv", "--trace"])
    def test_unwritable_output_exits_1_with_one_line(self, tmp_path, capsys, command, option):
        scenario = self.scenario_file(tmp_path, fast_doc("c13"))
        path = tmp_path / "missing" / "out"
        assert main([command, scenario, "--quiet", option, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and err.count("\n") == 1
        assert "No such file or directory" in err

    def test_unwritable_trace_fails_before_any_section_runs(self, tmp_path, capsys, monkeypatch):
        sections = []
        monkeypatch.setattr(assess, "run_section", lambda *args: sections.append(args))
        path = tmp_path / "missing" / "x.trace"
        assert main(["assess", "--trace", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and err.count("\n") == 1
        assert sections == []

    def test_assess_directory(self, tmp_path):
        self.scenario_file(tmp_path, fast_doc("c7", expect={"attack_success": True}))
        self.scenario_file(tmp_path, fast_doc(
            "c8", rst_handling="forward-only", expect={"attack_success": False}))
        assert main(["assess", str(tmp_path), "--quiet"]) == 0

    def test_identify_csv_format(self, tmp_path):
        csv = tmp_path / "probe.csv"
        main(["identify", self.scenario_file(tmp_path, fast_doc("c9")), "--quiet",
              "--csv", str(csv)])
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == assess.PROBE_CSV_HEADER
        assert lines[1].startswith("6.6.6.6,nat-device,")
