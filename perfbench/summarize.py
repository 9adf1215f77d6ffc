"""Summarize benchmark result files into medians and quartiles per workload.

    python3 perfbench/summarize.py .bench_build/perfbench/result-*.json --json out.json

Reads the result files that run.py writes, groups them by workload and trace
mode, and prints one markdown table per group: the median of each metric,
its quartiles as statistics.quantiles(n=4) gives them, and the quartile
spread as a share of the median (the figure the bounds in BENCHMARK.json
are set against).  The JSON output also keeps every run's value.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def summarize(paths):
    groups = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    meta = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        env = doc["environment"]
        key = (env["workload"], env["trace"])
        meta[key] = {k: env[k] for k in ("python", "numpy", "blas", "nproc", "commit", "seconds")}
        seeds[key].append(env["seed"])
        for name, m in doc["result"]["metrics"].items():
            groups[key][(name, m["unit"])].append(m["value"])
    out = []
    for (workload, trace), metrics in sorted(groups.items()):
        rows = []
        for (name, unit), vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows.append({"name": name, "unit": unit, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": vals})
        out.append({"workload": workload, "trace": trace, "seeds": sorted(seeds[(workload, trace)]),
                    "environment": meta[(workload, trace)], "metrics": rows})
    return out


def markdown(groups) -> str:
    lines = []
    for g in groups:
        lines += [f"### {g['workload']}, trace {g['trace']} ({len(g['seeds'])} runs, seeds "
                  f"{g['seeds'][0]}..{g['seeds'][-1]})", "",
                  "| metric | unit | median | q1 | q3 | spread |", "|---|---|---|---|---|---|"]
        for r in g["metrics"]:
            spread = "" if r["spread"] is None else f"{r['spread']:.3f}"
            lines.append(f"| {r['name']} | {r['unit']} | {r['median']:.5g} | {r['q1']:.5g} "
                         f"| {r['q3']:.5g} | {spread} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", nargs="+", help="result-*.json files written by run.py")
    ap.add_argument("--json", help="also write the summary as JSON to this file")
    args = ap.parse_args(argv)
    groups = summarize(args.results)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(groups, fh, indent=1)
    print(markdown(groups))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
