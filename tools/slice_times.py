"""Time every decode caller at several param.SLICE values, one process per measurement.

    python3 tools/slice_times.py --rounds 8

Each round measures every case below at every candidate slice size, the
sizes in an order that rotates from round to round, so a slow spell of the
host falls on all sizes alike.  Each measurement is a fresh process (BLAS
pinned to one thread) that sets param.SLICE once, as a run does, makes
WARM untimed calls and then CALLS timed ones, and reports their median.
Sizes are not switched within one process: timed that way, the smaller
sizes read several per cent slower than in a process of their own.  A
case's cost at a size is the median, over rounds, of its time relative to
the same round's time at 1024 rows.  Decoded rows do not depend on the
size, so only time and memory can.  Cases:

* ``block.mM``: one 4096-point estimator block (estimator._compute_block);
* ``scan.mM``: one 8,192-row call of the default boundary evaluator
  (boundary._det_eval), the size of a boundary scan call;
* ``decode.m8``: one 4096-row param.decode_batch call.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 384, 512, 768, 1024)
CASES = ("block.m4", "block.m6", "block.m8", "block.m9", "scan.m6", "scan.m4", "decode.m8")
WARM, CALLS = 2, 8


def time_case(case: str, size: int) -> float:
    """Median seconds of CALLS calls of case at param.SLICE = size, after WARM calls."""
    sys.path.insert(0, str(ROOT / "src"))
    from sepvol import boundary, estimator, param, qmc

    kind, m = case.split(".m")
    m = int(m)
    param.SLICE = size
    if kind == "block":
        cfg = estimator.RunConfig(m, 4096, 4096, seed=0)
        call = lambda i: estimator._compute_block((cfg, (i % 4) * 4096, 4096))  # noqa: E731
    else:
        rows = 8192 if kind == "scan" else 4096
        pts = qmc.points(qmc.ScrambleSpec(0), m * m - 1, 0, rows)
        fn = boundary._det_eval(m) if kind == "scan" else lambda p: param.decode_batch(p, m)
        call = lambda i: fn(pts)  # noqa: E731
    times = []
    for i in range(WARM + CALLS):
        t0 = time.perf_counter()
        call(i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[WARM:])


def measure(rounds: int) -> dict:
    """Case -> size -> median over rounds of its time over the same round's time at 1024 rows."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    ratios = {case: {s: [] for s in SIZES} for case in CASES}
    for r in range(rounds):
        order = SIZES[r % len(SIZES):] + SIZES[:r % len(SIZES)]
        for case in CASES:
            took = {}
            for s in order:
                out = subprocess.run([sys.executable, __file__, "--child", case, str(s)],
                                     env=env, capture_output=True, text=True, check=True)
                took[s] = float(out.stdout)
            for s in SIZES:
                ratios[case][s].append(took[s] / took[1024])
    return {case: {s: statistics.median(v) for s, v in by.items()} for case, by in ratios.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--child", nargs=2, metavar=("CASE", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(time_case(args.child[0], int(args.child[1])))
        return 0
    table = measure(args.rounds)
    print("case".ljust(10) + "".join(f"{s:>8}" for s in SIZES))
    for case, by in table.items():
        print(case.ljust(10) + "".join(f"{by[s]:8.3f}" for s in SIZES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
