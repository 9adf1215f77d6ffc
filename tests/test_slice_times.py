"""tools/slice_times.py: each kind of case runs in a process of its own and reports a time."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "slice_times.py"


@pytest.mark.parametrize("case", ["block.m4", "scan.m4", "decode.m8"])
def test_child_reports_a_median_time(case):
    out = subprocess.run([sys.executable, str(TOOL), "--child", case, "256"],
                         capture_output=True, text=True, check=True, timeout=120)
    seconds = float(out.stdout)
    assert math.isfinite(seconds) and seconds > 0
