"""Run perfbench on a parent and a change checkout in alternating pairs; write one BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload estimate-sweep --workload boundary --seeds 2301-2310 \\
        --note "what the change does" --out BENCH_name.json

For every workload and seed, each side runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
its own checkout, one right after the other; the side that runs first
alternates from seed to seed.  T is BENCHMARK.json's ``run_seconds``, the
same for both sides.  Only end-to-end runs are made: the per-layer metrics
carry no bound.

A run counts only if it exits 0 and its result is ``correct``; the others are
counted as failed.  Each side's counted runs are summarized on their own with
perfbench/summarize.py, so the two commits' runs are never pooled into one
median, and a pair is a seed where both sides' runs count.  Per end-to-end
metric of BENCHMARK.json, ``pairs`` holds:

* ``parent_failed`` / ``change_failed``: each side's failed runs;
* ``change_wins`` / ``change_losses``: the seeds where the change reads better
  / worse than the parent in the metric's direction; ties count for neither;
* ``gain``: there are at least ten pairs, the change fails no more runs than
  the parent, wins at least nine tenths of the pairs, and its median is better
  than the parent's by more than the parent's interquartile range;
* ``within_bound``: the change's median is worse than the parent's by no more
  than the metric's bound, as a share of the parent's median.

Every run made is kept, with its exit code; the file is rewritten after each
pair, so an interrupted session keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import summarize  # noqa: E402  (perfbench/ is no package)

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'2301-2305,2310' -> [2301, 2302, 2303, 2304, 2305, 2310]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its exit code, and what its result file holds (None without one)."""
    path = checkout / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace0.json"
    path.unlink(missing_ok=True)  # a stale file must not stand in for a failed run
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    run = {"seed": seed, "exit": proc.returncode,
           "stderr": proc.stderr[-2000:] if proc.returncode else "",
           "path": None, "environment": None, "correct": False, "metrics": None}
    if path.is_file():
        doc = json.loads(path.read_text())
        run.update(path=str(path), environment=doc["environment"],
                   correct=doc["result"]["correct"],
                   metrics={k: v["value"] for k, v in doc["result"]["metrics"].items()})
    return run


def compare(spec: dict, runs: dict) -> list[dict]:
    """Per end-to-end metric: each side's median and quartiles, pair wins and the two rules."""
    counted = {side: [r for r in runs[side] if r["exit"] == 0 and r["correct"]] for side in SIDES}
    failed = {side: len(runs[side]) - len(counted[side]) for side in SIDES}
    sides = {}
    for side in SIDES:
        paths = [r["path"] for r in counted[side]]
        sides[side] = {m["name"]: m for g in summarize.summarize(paths) for m in g["metrics"]}
    values = {side: {r["seed"]: r["metrics"] for r in counted[side]} for side in SIDES}
    seeds = sorted(set(values["parent"]) & set(values["change"]))
    out = []
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        if name not in sides["parent"] or name not in sides["change"]:
            continue
        p, c = sides["parent"][name], sides["change"][name]
        diffs = [sign * (values["change"][s][name] - values["parent"][s][name]) for s in seeds]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        gap = sign * (c["median"] - p["median"])
        out.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                    "bound": metric["bound"], "pairs": len(seeds),
                    "parent_failed": failed["parent"], "change_failed": failed["change"],
                    "change_wins": wins, "change_losses": losses,
                    "parent_median": p["median"], "parent_q1": p["q1"], "parent_q3": p["q3"],
                    "change_median": c["median"], "change_q1": c["q1"], "change_q3": c["q3"],
                    "ratio": c["median"] / p["median"] if p["median"] else None,
                    "gain": (failed["change"] <= failed["parent"] and len(seeds) >= 10
                             and wins >= 0.9 * len(seeds) and gap > p["q3"] - p["q1"]),
                    "within_bound": -gap <= metric["bound"] * abs(p["median"])})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 2301-2310")
    ap.add_argument("--note", default="", help="what the change does, kept in the file")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"note": args.note, "seconds": seconds, "seeds": args.seeds,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
           "order": "per workload, one parent and one change run per seed; the parent runs "
                    "first at the 1st, 3rd, ... seed and second at the others",
           "workloads": {}}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(checkouts[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: exit {runs[side][-1]['exit']}", flush=True)
            doc["workloads"][workload] = {
                "environment": {side: runs[side][0]["environment"] for side in SIDES},
                "runs": {side: [{k: v for k, v in r.items() if k not in ("path", "environment")}
                                for r in runs[side]] for side in SIDES},
                "pairs": compare(spec, runs)}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
