"""``scripts/ab.py``: the summary of alternating runs, and its refusal of unequal tree paths."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_summary_counts_the_pairs_each_side_won_in_the_metric_direction():
    parent = [{"wall_s": w, "points_per_s": 1 / w} for w in (1.0, 1.2, 1.1, 1.3, 1.0)]
    change = [{"wall_s": w, "points_per_s": 1 / w} for w in (0.9, 1.2, 0.9, 1.4, 0.8)]
    summary = ab.summarize(METRICS, parent, change)
    for name in ("wall_s", "points_per_s"):
        s = summary[name]
        assert (s["change_won"], s["parent_won"]) == (3, 1)        # one tie
        assert s["parent_q"][1] == pytest.approx(1.1 if name == "wall_s" else 1 / 1.1)
        assert s["relative_worse"] < 0 and s["within_bound"]
    assert summary["wall_s"]["change_q"] == [0.9, 0.9, 1.2]
    assert summary["wall_s"]["within_parent_iqr"] is False


def _runs(walls):
    return [{"wall_s": w, "points_per_s": 1 / w} for w in walls]


def test_a_gain_is_claimed_only_past_the_parent_iqr_in_nine_tenths_of_the_pairs():
    parent = [1.0 + 0.02 * i for i in range(10)]         # q1 1.045, median 1.09, q3 1.135
    # 10/10 pairs won and the median (1.04) just outside [q1, q3], but the
    # gain of 0.05 is less than the parent's q3 - q1 of 0.09
    near = ab.summarize(METRICS, _runs(parent), _runs([w - 0.05 for w in parent]))
    assert near["wall_s"]["change_won"] == 10 and not near["wall_s"]["within_parent_iqr"]
    assert not near["wall_s"]["claim_met"] and not near["points_per_s"]["claim_met"]
    far = ab.summarize(METRICS, _runs(parent), _runs([w - 0.2 for w in parent]))
    assert far["wall_s"]["claim_met"] and far["points_per_s"]["claim_met"]
    # the same gain with 2 of 10 pairs lost: 8 < ceil(0.9 * 10)
    mixed = [w - 0.2 for w in parent[:8]] + [w + 0.01 for w in parent[8:]]
    lost = ab.summarize(METRICS, _runs(parent), _runs(mixed))
    assert lost["wall_s"]["change_won"] == 8 and not lost["wall_s"]["claim_met"]
    assert lost["wall_s"]["parent_q"][1] - lost["wall_s"]["change_q"][1] > 0.09


def test_the_pair_ratios_resolve_a_gain_that_drift_hides_from_the_run_medians():
    # the machine slows by half over the runs: the medians' middle halves
    # overlap and the claim fails, yet the change is 3-7% faster in every pair
    parent = [1.0 + 0.1 * i for i in range(10)]
    ratios = [0.93, 0.95, 0.97, 0.94, 0.96] * 2
    summary = ab.summarize(METRICS, _runs(parent), _runs([w * r for w, r in zip(parent, ratios)]))
    s = summary["wall_s"]
    assert s["parent_q"][0] <= s["change_q"][1] <= s["parent_q"][2]
    assert s["change_won"] == 10 and not s["claim_met"]
    assert s["ratio_q"] == pytest.approx([0.94, 0.95, 0.96])
    assert summary["points_per_s"]["ratio_q"] == pytest.approx([1 / 0.96, 1 / 0.95, 1 / 0.94])


def test_a_metric_past_its_bound_is_reported():
    parent = [{"wall_s": 1.0, "points_per_s": 1.0}] * 3
    change = [{"wall_s": 1.3, "points_per_s": 0.7}] * 3
    summary = ab.summarize(METRICS, parent, change)
    assert summary["wall_s"]["relative_worse"] == pytest.approx(0.3)
    assert summary["points_per_s"]["relative_worse"] == pytest.approx(0.3)
    assert not summary["wall_s"]["within_bound"] and not summary["points_per_s"]["within_bound"]


def test_trees_at_paths_of_different_length_are_refused(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "a"), str(tmp_path / "bb"),
                           "--workload", "sim-desk-m1-gauss-n100"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "paths of different length" in done.stderr


FAKE_RUN = """import json, sys
wall = {wall}
print("human-readable lines first")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}},
    "cpu_s_per_call": {{"value": wall / 4, "unit": "s"}},
    "points_per_s": {{"value": 1 / wall, "unit": "1/s"}}}}}}))
"""


def test_alternating_runs_are_read_from_each_trees_runner(tmp_path):
    for tree, wall in (("p", 2.0), ("c", 1.0)):
        (tmp_path / tree / "bench").mkdir(parents=True)
        (tmp_path / tree / "bench" / "run.py").write_text(FAKE_RUN.format(wall=wall))
    (tmp_path / "c" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "p"), str(tmp_path / "c"),
                           "--workload", "w", "--pairs", "3", "--seconds", "0"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    progress = [line for line in done.stdout.splitlines() if line.startswith("pair ")]
    assert progress == [f"pair {i}/3: wall_s parent 2 change 1, "
                        "cpu_s_per_call parent 0.5 change 0.25" for i in (1, 2, 3)]
    summary = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert summary["wall_s"]["parent_q"] == [2.0, 2.0, 2.0]
    assert summary["wall_s"]["relative_worse"] == -0.5
    assert summary["wall_s"]["claim_met"] is True
    assert summary["wall_s"]["ratio_q"] == [0.5, 0.5, 0.5]
    assert summary["points_per_s"]["ratio_q"] == [2.0, 2.0, 2.0]
    assert (summary["points_per_s"]["change_won"], summary["points_per_s"]["parent_won"]) == (3, 0)


def test_pinned_outputs_that_differ_are_listed_with_both_hashes():
    parent = "desk_a 0123456789ab\nest_a aaaaaaaaaaaa\nest_b bbbbbbbbbbbb\nonly_parent 111111111111\n"
    change = "desk_a 0123456789ab\nest_a cccccccccccc\n\nest_b bbbbbbbbbbbb\nonly_change 222222222222\n"
    assert ab.differing_outputs(ab.listing(parent), ab.listing(change)) == [
        ("est_a", "aaaaaaaaaaaa", "cccccccccccc"),
        ("only_parent", "111111111111", None),
        ("only_change", None, "222222222222"),
    ]
    assert ab.differing_outputs(ab.listing(parent), ab.listing(parent)) == []
    assert ab.differing_outputs({}, {}) == []
