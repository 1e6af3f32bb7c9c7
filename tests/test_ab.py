"""tools/ab.py: the summary of alternating benchmark pairs, and runs that give no result."""

import importlib.util
import json
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "sim_pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def run(wall, pkts=100.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "sim_pkts_per_s": {"value": pkts, "unit": "1/s"}}}


def test_medians_spread_and_wins_follow_the_better_direction():
    parent = [run(1.0, 10), run(1.2, 12), run(1.1, 11), run(1.3, 13)]
    change = [run(0.9, 11), run(1.2, 12), run(1.0, 10), run(1.4, 14)]
    wall, pkts = ab.summarize(parent, change, METRICS)
    assert (wall.name, wall.unit, wall.parent, wall.change) == ("wall_s", "s", 1.15, 1.1)
    assert round(wall.delta_pct, 6) == round(100 * (1.1 - 1.15) / 1.15, 6)
    # statistics.quantiles (exclusive) of 1.0, 1.1, 1.2, 1.3: 1.025 and 1.275
    assert round(wall.spread_pct, 6) == round(100 * 0.25 / 1.15, 6)
    # pair 1 is a tie and counts for neither side
    assert (wall.change_wins, wall.parent_wins) == (2, 1)
    # higher is better: the change wins pairs 0 and 3, loses pair 2
    assert (pkts.parent, pkts.change, pkts.change_wins, pkts.parent_wins) == (11.5, 11.5, 2, 1)


def test_one_pair_has_no_spread():
    (wall, _) = ab.summarize([run(2.0)], [run(1.0)], METRICS)
    assert (wall.spread_pct, wall.delta_pct, wall.change_wins, wall.parent_wins) == (0.0, -50.0, 1, 0)


def test_beyond_bound_is_worse_than_the_bound_in_the_worse_direction():
    # lower is better: 1.0 -> 1.25 is exactly the bound, 1.26 beyond it; a faster change never is
    for wall, beyond in ((1.25, False), (1.26, True), (0.5, False)):
        (row, _) = ab.summarize([run(1.0)], [run(wall)], METRICS)
        assert row.beyond_bound is beyond, wall
    # higher is better: 100 -> 75 is exactly the bound, 74 beyond it; a gain never is
    for pkts, beyond in ((75.0, False), (74.0, True), (200.0, False)):
        (_, row) = ab.summarize([run(1.0, 100.0)], [run(1.0, pkts)], METRICS)
        assert row.beyond_bound is beyond, pkts


def test_main_marks_the_rows_beyond_bound_and_names_them_last(monkeypatch, tmp_path, capsys):
    def fake_run(cmd, cwd=None, **kwargs):
        if "compileall" in cmd:
            return subprocess.CompletedProcess(cmd, 0, "", "")
        result = run(1.5, 70.0) if cwd.endswith("change") else run(1.0, 100.0)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "sweep",
            "--seed", "1", "--pairs", "2", "--seconds", "1"]
    assert ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    marked = [line.split()[0] for line in lines if line.endswith("  beyond bound")]
    assert marked == ["wall_s", "sim_pkts_per_s"]
    assert lines[-1] == "beyond bound: wall_s, sim_pkts_per_s"

    monkeypatch.setattr(ab.subprocess, "run", lambda cmd, cwd=None, **kw: fake_run(cmd, "parent"))
    assert ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "beyond bound: none" and not any(line.endswith("  beyond bound") for line in lines)


def test_bad_runs_are_the_missing_the_incorrect_and_the_failed():
    runs = [run(1.0), None, run(1.0, correct=False), run(1.0, failed=1), run(1.0)]
    assert ab.bad_runs(runs) == [1, 2, 3]


def test_a_run_whose_last_line_is_not_json_is_a_bad_run(monkeypatch, tmp_path, capsys):
    """The change's run prints a traceback and no result line: it counts as
    a bad run, its stderr tail is printed, --json is still written and the
    tool exits 1."""
    good = json.dumps(run(1.0))

    def fake_run(cmd, cwd=None, **kwargs):
        if "compileall" in cmd:
            return subprocess.CompletedProcess(cmd, 0, "", "")
        if cwd.endswith("change"):
            return subprocess.CompletedProcess(cmd, 0, "starting\nnot json\n", "ValueError: boom")
        return subprocess.CompletedProcess(cmd, 0, "starting\n" + good + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    out = tmp_path / "runs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "sweep",
            "--seed", "1", "--pairs", "2", "--seconds", "1", "--json", str(out)]
    assert ab.main(argv) == 1
    assert json.loads(out.read_text()) == {"parent": [run(1.0)] * 2, "change": [None, None]}
    captured = capsys.readouterr()
    assert captured.err.count("ValueError: boom") == 2
    assert "'change': [0, 1]" in captured.out
