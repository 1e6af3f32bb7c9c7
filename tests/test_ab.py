"""tools/ab.py: the pure summary of alternating benchmark pairs."""

import importlib.util
import pathlib

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


def test_bad_runs_are_the_missing_the_incorrect_and_the_failed():
    runs = [run(1.0), None, run(1.0, correct=False), run(1.0, failed=1), run(1.0)]
    assert ab.bad_runs(runs) == [1, 2, 3]
