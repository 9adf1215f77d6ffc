"""tools/bench_pairs.py: per-side summaries, pair wins and the claim rule, on made-up runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = {"end_to_end": [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "pts_s.m4", "unit": "pts/s", "better": "higher", "bound": 0.25},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.05}]}


@pytest.fixture(scope="module")
def bench_pairs():
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _run(tmp_path, side, seed, exit=0, correct=True, **metrics):
    """A run record as run_once makes it, with its result file in run.py's layout."""
    path = tmp_path / f"{side}-{seed}.json"
    env = {k: "x" for k in ("python", "numpy", "blas", "nproc", "commit", "seconds")}
    env.update(workload="estimate-sweep", trace=0, seed=seed)
    result = {"correct": correct, "metrics": {
        name: {"value": v, "unit": next(m["unit"] for m in SPEC["end_to_end"] if m["name"] == name)}
        for name, v in metrics.items()}}
    path.write_text(json.dumps({"environment": env, "result": result}))
    return {"seed": seed, "exit": exit, "correct": correct, "path": str(path), "metrics": metrics}


def test_seed_list(bench_pairs):
    assert bench_pairs.seed_list("2301-2304,2310") == [2301, 2302, 2303, 2304, 2310]
    assert bench_pairs.seed_list("7") == [7]


def test_compare_keeps_the_sides_apart_and_applies_the_rules(bench_pairs, tmp_path):
    seeds = range(10)
    # the change reads lower in 9 of 10 pairs, its median 7 MB under a parent spread of 0.2 MB
    parent_rss = [69.0 + 0.05 * s for s in seeds]
    change_rss = [62.0 + 0.05 * s for s in seeds[:9]] + [parent_rss[9] + 1.0]
    runs = {"parent": [_run(tmp_path, "parent", s, peak_rss_mb=parent_rss[s], ok_frac=1.0,
                            **{"pts_s.m4": 100.0}) for s in seeds],
            "change": [_run(tmp_path, "change", s, peak_rss_mb=change_rss[s], ok_frac=1.0,
                            **{"pts_s.m4": 70.0}) for s in seeds]}
    runs["parent"].append({"seed": 10, "exit": 1, "correct": False, "path": None,
                           "metrics": None})  # a run that wrote no result
    pairs = {p["name"]: p for p in bench_pairs.compare(SPEC, runs)}
    rss = pairs["peak_rss_mb"]
    assert (rss["pairs"], rss["change_wins"], rss["change_losses"]) == (10, 9, 1)
    assert (rss["parent_failed"], rss["change_failed"]) == (1, 0)
    assert rss["parent_median"] == pytest.approx(69.225)  # not pooled with the change's runs
    assert rss["change_median"] == pytest.approx(62.225)
    assert rss["gain"] and rss["within_bound"]
    slow = pairs["pts_s.m4"]  # 30 % slower against a 25 % bound
    assert (slow["change_wins"], slow["change_losses"]) == (0, 10)
    assert not slow["gain"] and not slow["within_bound"]
    ok = pairs["ok_frac"]  # ties count for neither side
    assert (ok["change_wins"], ok["change_losses"], ok["gain"], ok["within_bound"]) == (0, 0, False, True)


def test_a_gain_must_clear_the_parents_spread(bench_pairs, tmp_path):
    """Ten wins of ten are no gain when the medians sit closer than the parent's quartiles."""
    parent = [60.0 + s for s in range(10)]
    runs = {"parent": [_run(tmp_path, "parent", s, peak_rss_mb=v) for s, v in enumerate(parent)],
            "change": [_run(tmp_path, "change", s, peak_rss_mb=v - 0.5) for s, v in enumerate(parent)]}
    rss = bench_pairs.compare(SPEC, runs)[0]
    assert rss["change_wins"] == 10
    assert not rss["gain"]


@pytest.mark.parametrize("exit, correct", [(0, False), (1, True)])
def test_failed_runs_are_left_out_and_deny_a_gain(bench_pairs, tmp_path, exit, correct):
    """A run that exits non-zero or is not correct is no pair and no part of a median;
    when the change fails more runs than the parent, it claims no gain."""
    runs = {"parent": [_run(tmp_path, "parent", s, peak_rss_mb=69.0 + 0.01 * s) for s in range(11)],
            "change": [_run(tmp_path, "change", s, peak_rss_mb=62.0 + 0.01 * s) for s in range(10)]}
    runs["change"].append(_run(tmp_path, "change", 10, exit, correct, peak_rss_mb=1.0))
    rss = bench_pairs.compare(SPEC, runs)[0]
    assert (rss["pairs"], rss["change_wins"]) == (10, 10)
    assert (rss["parent_failed"], rss["change_failed"]) == (0, 1)
    assert rss["change_median"] == pytest.approx(62.045)
    assert not rss["gain"]
    runs["parent"][10] = _run(tmp_path, "parent", 10, exit, correct, peak_rss_mb=99.0)
    assert bench_pairs.compare(SPEC, runs)[0]["gain"]  # as many failures on both sides


def test_two_won_pairs_are_no_gain(bench_pairs, tmp_path):
    """A gain needs ten pairs: two of two won by 7 MB claim none."""
    runs = {"parent": [_run(tmp_path, "parent", s, peak_rss_mb=69.0 + 0.05 * s) for s in range(2)],
            "change": [_run(tmp_path, "change", s, peak_rss_mb=62.0 + 0.05 * s) for s in range(2)]}
    rss = bench_pairs.compare(SPEC, runs)[0]
    assert (rss["pairs"], rss["change_wins"], rss["change_losses"]) == (2, 2, 0)
    assert rss["change_median"] < rss["parent_median"] - (rss["parent_q3"] - rss["parent_q1"])
    assert not rss["gain"] and rss["within_bound"]
