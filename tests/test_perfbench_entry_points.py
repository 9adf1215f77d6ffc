"""The benchmark's calls into sepvol: every name it wraps resolves, and its evaluator agrees.

perfbench/ is only read here.  Its ``jobs`` module names the functions the
traced pass wraps, and its ``DetHook`` stands in for estimate_area's own
evaluator; the benchmark requires the areas of the two to be bit-identical.
This is the quick form of ``python3 perfbench/run.py --smoke`` for those
entry points.
"""

import sys
from pathlib import Path

import pytest

from sepvol import boundary

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def jobs():
    sys.path.insert(0, PERFBENCH)
    try:
        import jobs
    finally:
        sys.path.remove(PERFBENCH)
    return jobs


def test_trace_targets_resolve(jobs):
    for owner, attr, span, _ in jobs.trace_targets():
        assert callable(getattr(owner, attr, None)), span


def test_warm_up_and_det_hook_match_default_evaluator(jobs):
    jobs.warm_up()
    rows = {}
    for name, eval_fn in (("hook", jobs.DetHook(4)), ("default", None)):
        got = []
        area = boundary.estimate_area(4, 32, eval_fn=eval_fn, on_row=got.append)
        rows[name] = (area.hex(), [(r.bases, r.feasible, r.roots, r.area.hex()) for r in got])
    assert rows["hook"] == rows["default"]
    assert rows["hook"][1]  # the final row was emitted
