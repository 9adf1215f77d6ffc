"""sepvol benchmark: one command, two workloads, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

The result is the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Correctness
checks run in both modes; a failed check sets ``correct`` to false and the
exit code to 1.  Without a ``src/sepvol`` next to this directory the command
exits 2 and prints no result.

Every workload runs all three jobs of ``jobs.py``, because every result must
carry every metric of its mode; the stream job has no workload of its own.  The jobs' calls are interleaved over the whole
of ``--seconds``; the workload's own job gets the largest share of the time
(see ``WEIGHT`` in ``measure.py``).  With ``--trace 1`` every call is made
twice in a row, untraced and traced; the per-layer numbers come from the
traced calls, ``trace_overhead_frac`` from comparing the two sides.
Spans and the full result are written once, at the end, under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import bootstrap

WORKLOADS = {"estimate-sweep": "sweep", "boundary": "boundary"}


def smoke(measure) -> int:
    """Minimal runs: each named metric is emitted with its unit, and every check passes.

    Each workload runs once untraced and the first once traced; the metric set
    does not depend on the workload, only the time shares do.
    """
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    want = {0: {(m["name"], m["unit"]) for m in spec["end_to_end"]},
            1: {(m["name"], m["unit"]) for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(next(iter(WORKLOADS)), 1)]:
        result, failures, _, _ = measure.measure(workload, WORKLOADS[workload], 0, 0.0, trace)
        got = {(k, v["unit"]) for k, v in result["metrics"].items()}
        where = f"{workload} trace={trace}"
        problems += [f"{where}: missing {n} [{u}]" for n, u in sorted(want[trace] - got)]
        problems += [f"{where}: unlisted {n} [{u}]" for n, u in sorted(got - want[trace])]
        problems += [f"{where}: {n} = {v['value']!r}" for n, v in result["metrics"].items()
                     if not math.isfinite(v["value"])]
        problems += [f"{where}: {f}" for f in failures]
        print(f"smoke: {where} {len(got)} metrics, {len(failures)} failed checks", flush=True)
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check metric names and units, then exit")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import measure  # needs the import path that prepare() sets

    if args.smoke:
        return smoke(measure)
    result, failures, info, env = measure.measure(args.workload, WORKLOADS[args.workload],
                                                  args.seed, args.seconds, args.trace)
    for line in info:
        print(line)
    print("env: " + json.dumps(env))
    for f in failures:
        print("perfbench: check failed: " + f, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
