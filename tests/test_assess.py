"""Assessor, CSV formats, trace replay, and the CLI exit-code contract."""

import functools
import gc
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replay_oracle
from natsim import assess
from natsim import scenario as sc
from natsim.cli import main
from natsim.fabric import Simulator, keep_traces, render_chunks

from helpers import line

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
        doc = fast_doc("wrong", expect={"verdict": "separate-host", "attack_success": False})
        rows, _, summary, matched = assess.assess([sc.load_scenario(doc)])
        assert not matched
        assert rows[0].expected_mismatch == ["verdict nat-device != separate-host", "success True != False"]
        assert "[MISMATCH: verdict nat-device != separate-host; success True != False]" in summary

    def test_a_scenario_with_nothing_to_run_is_a_no_op_row(self):
        doc = sc.host_scenario_doc("idle")
        del doc["probe"]
        rows, _, summary, matched = assess.assess([sc.load_scenario(doc)])
        assert matched and rows[0].verdict is None and rows[0].report is None
        assert summary.splitlines()[0].endswith(" no-op")

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
        assert result.describe() == f"divergent: {result.divergence}"

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

    # body lines 1,024 and 1,025 end and start a chunk of WRITE_LINES
    # (1,024) replayed lines
    @pytest.mark.parametrize("line", [1024, 1025])
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

    @staticmethod
    def replay_in_blocks(monkeypatch, path, text, edge):
        """Replay `text` from `path`, read in blocks of `edge` characters."""
        path.write_text(text)
        monkeypatch.setattr(assess, "READ_CHARS", edge)
        return assess.replay(str(path))

    # where the first read block ends, counted from the start of the line
    # that straddles or starts it
    @pytest.mark.parametrize("into", [0, 1, 30, -1],
                             ids=["starts", "second-char", "middle", "before-newline"])
    def test_divergent_line_across_a_read_block_edge_names_its_line(self, tmp_path, monkeypatch,
                                                                     into):
        path = self.write_trace(tmp_path, fast_doc("e2"))
        lines = path.read_text().splitlines(keepends=True)
        number = 200  # body line 200 is line 205 of the file
        original = lines[number + 4]
        assert original.endswith(" 0\n")
        lines[number + 4] = original[:-2] + "9\n"  # as long as it was, so the edge stays put
        start = sum(map(len, lines[: number + 4]))
        edge = start + (into if into >= 0 else len(original) + into)
        result = self.replay_in_blocks(monkeypatch, path, "".join(lines), edge)
        changed = lines[number + 4]
        assert result.divergence == (
            f"section e2 line {number}: recorded {changed[:-1]!r} vs replayed {original[:-1]!r}")

    # a section's first line starts a block, straddles its edge, or ends it
    @pytest.mark.parametrize("into", [0, 5, len("#natsim-trace ") + len(assess.VERSION) + 1],
                             ids=["starts", "straddles", "ends"])
    def test_a_section_mark_at_a_read_block_edge(self, tmp_path, monkeypatch, into):
        path = self.three_sections(tmp_path)
        text = path.read_text()
        edge = text.index("\n#natsim-trace", 1) + 1 + into
        assert self.replay_in_blocks(monkeypatch, path, text, edge).identical
        lines = text.splitlines(keepends=True)
        body = [i for i, l in enumerate(lines) if l == "#name m2\n"][0] + 4  # the first record line
        original = lines[body]
        lines[body] = original[:-2] + "9\n"
        result = self.replay_in_blocks(monkeypatch, path, "".join(lines), edge)
        assert result.divergence == (
            f"section m2 line 1: recorded {lines[body][:-1]!r} vs replayed {original[:-1]!r}")

    def test_extra_lines_across_a_read_block_edge_are_counted(self, tmp_path, monkeypatch):
        # the first block ends between the two extra lines: its piece of the
        # section has one more line than the replay, and the next none
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        second = [i for i, l in enumerate(lines) if l == "#name m2\n"][0]
        third = [i for i, l in enumerate(lines) if l == "#name m3\n"][0] - 1
        body = third - (second + 4)
        lines[third:third] = lines[third - 2 : third]
        edge = sum(map(len, lines[: third + 1]))
        result = self.replay_in_blocks(monkeypatch, path, "".join(lines), edge)
        assert result.divergence == f"section m2: recorded {body + 2} lines vs replayed {body}"

    # three blank lines after body line 100 of the second section, and after
    # its last: the first block ends before them, among them, or after them
    @pytest.mark.parametrize("into", [0, 1, 2, 3], ids=["before", "after-one", "after-two", "after"])
    @pytest.mark.parametrize("where", ["in-body", "before-next-mark"])
    def test_blank_lines_at_a_read_block_edge(self, tmp_path, monkeypatch, into, where):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        second = [i for i, l in enumerate(lines) if l == "#name m2\n"][0]
        third = [i for i, l in enumerate(lines) if l == "#name m3\n"][0] - 1
        at = second + 4 + 100 if where == "in-body" else third
        lines[at:at] = ["\n"] * 3
        edge = sum(map(len, lines[:at])) + into
        assert self.replay_in_blocks(monkeypatch, path, "".join(lines), edge).describe() == "identical"

    # the file's last line has no newline, and the first block ends where
    # that line starts, inside it, or at the end of the file
    @pytest.mark.parametrize("into", [0, 10, None], ids=["starts", "inside", "file-end"])
    def test_missing_final_newline_at_a_read_block_edge(self, tmp_path, monkeypatch, into):
        path = self.three_sections(tmp_path)
        text = path.read_text()[:-1]
        edge = len(text) if into is None else text.rindex("\n") + 1 + into
        assert self.replay_in_blocks(monkeypatch, path, text, edge).describe() == "identical"

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

    @pytest.mark.parametrize("edge", [1, 7, 69])
    def test_pieces_shorter_than_a_line(self, tmp_path, monkeypatch, edge):
        path = self.three_sections(tmp_path)
        text = path.read_text()
        assert self.replay_in_blocks(monkeypatch, path, text, edge).identical
        lines = text.splitlines(keepends=True)
        body = [i for i, l in enumerate(lines) if l == "#name m2\n"][0] + 4
        original = lines[body + 2]
        lines[body + 2] = original[:-2] + "9\n"
        result = self.replay_in_blocks(monkeypatch, path, "".join(lines), edge)
        assert result.divergence == (
            f"section m2 line 3: recorded {lines[body + 2][:-1]!r} vs replayed {original[:-1]!r}")

    def test_sections_after_a_divergence_are_read_for_their_versions(self, tmp_path, monkeypatch):
        path = self.three_sections(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        second = [i for i, l in enumerate(lines) if l == "#name m2\n"][0]
        third = [i for i, l in enumerate(lines) if l == "#name m3\n"][0]
        lines[second + 10] = lines[second + 10].replace("\tsend\t", "\tforward\t", 1)
        lines[third - 1] = "#natsim-trace 0.0.0\n"
        # re-simulated, the third section would fail to load
        lines[third + 3] = "#scenario {}\n"
        path.write_text("".join(lines))
        sections = []
        run_section = assess.run_section

        def counted(scn, mode, seed=None, sink=None):
            sections.append(scn.name)
            return run_section(scn, mode, seed, sink)

        monkeypatch.setattr(assess, "run_section", counted)
        result = assess.replay(str(path))
        assert sections == ["m1", "m2"]
        assert result.version_mismatch and result.divergence.startswith("section m2 line 7: ")


@functools.cache
def small_trace() -> str:
    """A three-section trace of a few hundred lines: identify, attack, identify."""
    sink = assess.TraceFile()
    for name, mode in (("s1", "identify"), ("s2", "attack"), ("s3", "identify")):
        scn = sc.load_scenario(fast_doc(name, ephemeral_range=(40000, 40003),
                                        port_range=(40000, 40003), interleave_batch=2))
        assess.run_section(scn, mode, sink=sink)
    with tempfile.TemporaryDirectory() as tmp:
        sink.write(os.path.join(tmp, "small.trace"))
        with open(os.path.join(tmp, "small.trace"), encoding="utf-8") as fh:
            return fh.read()


RUN_SECTION = assess.run_section
EDITS = ("char", "insert", "delete", "duplicate", "blank", "final-newline", "crlf", "version",
         "truncate")


def edit_trace(data, text: str, edit: str) -> str:
    """`text` with one `edit` made where `data` draws it."""
    lines = text.splitlines(keepends=True)
    body = [i for i, l in enumerate(lines) if not l.startswith("#") and l.strip()]
    marks = [i for i, l in enumerate(lines) if l.startswith(assess.TRACE_MARK)]
    if edit == "char" and body:
        i = data.draw(st.sampled_from(body))
        at = data.draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:at] + data.draw(st.sampled_from("09 \tT#\n\r")) + lines[i][at + 1 :]
    elif edit == "insert":
        copy = lines[body[0]] if body else "x\n"
        new = data.draw(st.sampled_from(["junk\n", "1\tn0\tsend\t\tTCP\n", copy]))
        lines.insert(data.draw(st.integers(0, len(lines))), new)
    elif edit in ("delete", "duplicate") and body:
        i = data.draw(st.sampled_from(body))
        lines[i : i + 1] = [] if edit == "delete" else [lines[i]] * 2
    elif edit == "blank":
        lines.insert(data.draw(st.integers(0, len(lines))), "\n" * data.draw(st.integers(1, 3)))
    elif edit == "final-newline" and lines and lines[-1].endswith("\n"):
        lines[-1] = lines[-1][:-1]
    elif edit == "crlf":  # on every line, or on every `step`-th from `first`
        first, step = data.draw(st.integers(0, 20)), data.draw(st.integers(1, 20))
        lines = [l[:-1] + "\r\n" if l.endswith("\n") and i >= first and (i - first) % step == 0 else l
                 for i, l in enumerate(lines)]
    elif edit == "version" and marks:
        i = data.draw(st.sampled_from(marks))
        lines[i] = data.draw(st.sampled_from([f"{assess.TRACE_MARK} 0.0.0\n", f"{assess.TRACE_MARK}\n"]))
    elif edit == "truncate" and marks:
        end = data.draw(st.sampled_from(marks[1:] + [len(lines)]))
        cut = data.draw(st.integers(1, 40))
        lines[max(0, end - cut) : end] = [l for l in lines[max(0, end - cut) : end] if l.startswith("#")]
    return "".join(lines)


class TestReplayOracle:
    """`assess.replay` returns what the block-reading replay of the parent
    design returns (`tests/replay_oracle.py`) on edited traces."""

    runs = {}  # each section's run, made once for every example and both replays

    @classmethod
    def run_once(cls, scn, mode, seed=None, sink=None):
        key = (json.dumps(scn.doc, sort_keys=True), mode, seed)
        if key not in cls.runs:
            cls.runs[key] = RUN_SECTION(scn, mode, seed, sink)
        return cls.runs[key]

    @staticmethod
    def outcome(replay, path):
        try:
            return replay(path)
        except sc.ScenarioError as e:
            return f"ScenarioError: {e}"

    @given(data=st.data(), edits=st.lists(st.sampled_from(EDITS), min_size=1, max_size=3),
           read_chars=st.integers(1, 20_000), write_lines=st.integers(1, 600))
    @settings(max_examples=30, deadline=None)
    def test_replay_returns_the_oracles_result(self, tmp_path_factory, data, edits, read_chars,
                                               write_lines):
        text = small_trace()
        for edit in edits:
            text = edit_trace(data, text, edit)
        path = tmp_path_factory.getbasetemp() / "edited.trace"
        path.write_bytes(text.encode())
        saved = (assess.READ_CHARS, assess.WRITE_LINES, assess.run_section, replay_oracle.READ_CHARS,
                 replay_oracle.run_section)
        assess.READ_CHARS = replay_oracle.READ_CHARS = read_chars
        assess.WRITE_LINES = write_lines
        assess.run_section = replay_oracle.run_section = self.run_once
        try:
            expected = self.outcome(replay_oracle.replay, str(path))
            assert self.outcome(assess.replay, str(path)) == expected
        finally:
            (assess.READ_CHARS, assess.WRITE_LINES, assess.run_section, replay_oracle.READ_CHARS,
             replay_oracle.run_section) = saved


class TestReplayChunkEdges:
    """`assess.replay` returns the oracle's result where a section body
    meets the edge of a rendered chunk, at a small `WRITE_LINES`."""

    @staticmethod
    def replay_in_chunks(tmp_path, monkeypatch, text, write_lines):
        """`assess.replay` of `text`, rendered `write_lines` lines a chunk;
        it must be the oracle's result."""
        path = tmp_path / "edited.trace"
        path.write_text(text)
        monkeypatch.setattr(assess, "WRITE_LINES", write_lines)
        result = assess.replay(str(path))
        assert result == replay_oracle.replay(str(path))
        return result

    @pytest.mark.parametrize("write_lines", [1, 3, 64])
    def test_first_difference_starts_the_second_chunk(self, tmp_path, monkeypatch, write_lines):
        lines = small_trace().splitlines(keepends=True)
        at = lines.index("#name s2\n") + 4 + write_lines  # body line write_lines + 1
        original = lines[at]
        lines[at] = original[:-2] + "9\n"
        assert lines[at] != original
        result = self.replay_in_chunks(tmp_path, monkeypatch, "".join(lines), write_lines)
        assert result.divergence == (
            f"section s2 line {write_lines + 1}: recorded {lines[at][:-1]!r} vs replayed {original[:-1]!r}")

    # the last section's body, 118 lines, fills its last chunk
    @pytest.mark.parametrize("write_lines", [1, 2, 59])
    def test_body_ending_at_a_chunk_edge_without_its_final_newline(self, tmp_path, monkeypatch,
                                                                   write_lines):
        text = small_trace()
        lines = text.splitlines()
        assert (len(lines) - (lines.index("#name s3") + 4)) % write_lines == 0
        result = self.replay_in_chunks(tmp_path, monkeypatch, text[:-1], write_lines)
        assert result.describe() == "identical"


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
            assert "".join(render_chunks(trace.rows(), assess.WRITE_LINES)) == "".join(
                line(rec) + "\n" for rec in trace)

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

    def test_identify_prints_missing_sizes_as_csv_does(self, tmp_path, capsys):
        doc = fast_doc("c-dash")
        doc["probe"]["timeout_ticks"] = 50
        doc["workload"]["send_period"] = 60
        csv = tmp_path / "out.csv"
        assert main(["identify", self.scenario_file(tmp_path, doc), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "  baseline=1500 post-probe=-"
        assert out[2] == "  echo reply fragments=- wire octets (payloads -), total=-"
        assert csv.read_text().split("\n")[1] == "6.6.6.6,unknown,no-pmtu-shrink,1500,-,-"

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

    def test_csv_is_utf8_under_an_ascii_locale(self, tmp_path):
        # the C locale without coercion or UTF-8 mode: the locale's encoding
        # is ASCII, and the name holds a character outside it
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(fast_doc("wifi-café")), encoding="utf-8")
        csv = tmp_path / "out.csv"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-m", "natsim.cli", "attack", str(doc_path), "--csv", str(csv), "--quiet"],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert csv.read_bytes().decode("utf-8").split("\n")[1].startswith("wifi-café@1,")

    @pytest.mark.parametrize("command", ["identify", "attack", "assess"])
    def test_report_under_an_ascii_locale(self, tmp_path, capsys, command):
        # the report names the scenario, which stdout's ASCII cannot show: the
        # run exits as a UTF-8 run does, prints the same report with the name
        # escaped, and writes its CSV as UTF-8
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(fast_doc("wifi-café")), encoding="utf-8")
        utf8_csv, ascii_csv = tmp_path / "utf8.csv", tmp_path / "ascii.csv"
        rc = main([command, str(doc_path), "--csv", str(utf8_csv)])
        report = capsys.readouterr().out
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-m", "natsim.cli", command, str(doc_path), "--csv", str(ascii_csv)],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == rc, done.stderr
        assert b"Traceback" not in done.stderr
        escaped = report.encode("ascii", "backslashreplace").decode()
        if command == "assess":  # the name is escaped, then padded: its row keeps its columns
            escaped = escaped.replace("wifi-caf\\xe9" + " " * 31, "wifi-caf\\xe9" + " " * 28)
            assert escaped.index("vulnerable-remove/") == report.index("vulnerable-remove/") == 41
        assert done.stdout.decode("ascii") == escaped
        assert ascii_csv.read_bytes() == utf8_csv.read_bytes()

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
        pytest.param(lambda b: b.replace(b"#mode attack", b"#mode probe"),
                     "unknown trace mode 'probe'", id="mode"),
        pytest.param(lambda b: b"junk\n" + b, "malformed trace header", id="first-header"),
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

    def test_assess_without_paths_grades_the_default_suite(self, capsys, monkeypatch):
        # a one-document suite stands in for the 20 of the default one
        suite = [sc.load_scenario(fast_doc("d1", expect={"attack_success": True}))]
        monkeypatch.setattr(sc, "default_suite", lambda: suite)
        assert main(["assess"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("d1 ") and " VULNERABLE\n" in out
        assert out.endswith(assess.FIELD_CONTEXT_NOTE + "\n")

    def test_assess_directory_without_scenarios_exits_1(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no scenario here")
        assert main(["assess", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "configuration error: no scenario files found\n"

    @pytest.mark.filterwarnings("ignore:'natsim.cli' found in sys.modules:RuntimeWarning")
    def test_module_runs_as_a_script(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["natsim", "replay", str(tmp_path / "missing.trace")])
        with pytest.raises(SystemExit) as e:
            runpy.run_module("natsim.cli", run_name="__main__")
        assert e.value.code == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

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
