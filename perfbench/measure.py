"""Measurement, correctness checks and metrics of one benchmark run.

Imported by run.py after bootstrap.prepare() has pinned BLAS threads and put
the checkout's src/ on the import path.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from sepvol import boundary, exactform, quantum

import bootstrap
import jobs
import spans as sp

# Time weight of each job; the workload's own job counts double.  Boundary
# calls are the longest (up to 2 s, so the fewest samples) and swing most
# with the host's speed, so they get the most time.  Shares in a run:
# estimate-sweep 0.38 sweep, 0.38 boundary, 0.23 stream; boundary 0.16,
# 0.65, 0.19.
WEIGHT = {"sweep": 1.0, "boundary": 2.0, "stream": 1.2}
SETUP_REPEATS = 7
PREFIX_BASES = 32
# Relative-error windows for the pooled sweep estimates against exactform.
# Sized from the spread over 40 scramble seeds of one 16384-point call: m = 4
# est_D/est_H sd 0.3%/0.4% (extremes 0.8%); m = 6 est_D sd 5.8% (extremes
# 16%), est_H sd 25% with a heavy upper tail (-43% .. +88%).  A sweep call
# has at least that many points (65536 at m = 4, 24576 at m = 6), so the
# windows hold with room to spare.
WINDOWS = {(4, "est_D"): (-0.03, 0.03), (4, "est_H"): (-0.03, 0.03),
           (6, "est_D"): (-0.40, 0.40), (6, "est_H"): (-0.75, 3.0)}
OUT_DIR = bootstrap.ROOT / ".bench_build" / "perfbench"


def bits(obj):
    """Rows as nested tuples with floats in hex, so == means bit-identical."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.astuple(obj)
    if isinstance(obj, (list, tuple)):
        return tuple(bits(x) for x in obj)
    return obj.hex() if isinstance(obj, float) else obj


def finite_row(row) -> bool:
    def flat(x):
        return [y for v in x for y in flat(v)] if isinstance(x, tuple) else [x]
    return all(math.isfinite(v) for v in flat(dataclasses.astuple(row)))


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing sepvol and warming each job once."""
    t0 = perf_counter()
    # no timeout: with one, subprocess polls the child every 50 ms and the
    # wall time comes out in 50 ms steps
    subprocess.run([sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
                   check=True, cwd=bootstrap.ROOT)
    return perf_counter() - t0


def measure(workload: str, own: str, seed: int, seconds: float, trace: int):
    """Run every job, `own` with the largest share; returns (result, failures, info, environment)."""
    jobs.warm_up()
    share = {job: WEIGHT[job] * (2 if job == own else 1) for job in jobs.JOBS}
    tracer = sp.Tracer(workload) if trace else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        res = jobs.run_jobs(seed, share, seconds, tracer, tmp, setup_seconds,
                            0 if trace else SETUP_REPEATS)
    ess = jobs.ess_reference(jobs.SWEEP_M if trace else (6, 8))
    pooled = pooled_sweep(res["sweep"]["calls"])
    failures = check(res, seed, pooled)
    info = informational(res["boundary"]["calls"], pooled)

    sweep, bnd, stream = (res[job]["calls"] for job in jobs.JOBS)
    blocks = [r for c in sweep for r in c["rows"]]
    blocks += [r for c in stream for run in c["runs"].values() for r in run["rows"]]
    attempted = len(blocks) + len(bnd) * jobs.BOUNDARY_BASES
    failed = (sum(not finite_row(r) for r in blocks)
              + sum(c["split"]["nonfinite_bases"] for c in bnd))
    if trace:
        metrics = per_layer(res, ess)
    else:
        metrics = end_to_end(res, ess, attempted, failed)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics}}
    env = bootstrap.environment(seed)
    env.update(workload=workload, seconds=seconds, trace=trace)
    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({"environment": env, "info": info, "failures": failures, "result": result}, fh,
                  indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{stem}.json")
    return result, failures, info, env


def pooled_sweep(sweep) -> dict:
    """Mean final est_D/est_H per m over the sweep calls, the exact values, and the points used."""
    out = {}
    for m in jobs.SWEEP_M:
        last = [c["rows"][-1] for c in sweep if c["spec"][0] == m]
        out[m] = {k: sum(getattr(r, k) for r in last) / len(last) for k in ("est_D", "est_H")}
        out[m]["exact_D"] = exactform.diagonal_volume(m).to_real()
        out[m]["exact_H"] = exactform.truncated_haar_volume(m).to_real()
        out[m]["points"] = sum(r.n for r in last)
    return out


def check(res: dict, seed: int, pooled: dict) -> list[str]:
    """Every correctness check of a run; returns the failures."""
    failures = []
    first = {}
    for m, s, _ in itertools.islice(jobs.plan("boundary", seed), len(jobs.BOUNDARY_CYCLE)):
        first.setdefault(m, s)
    for m, s in first.items():
        got = []
        for eval_fn in (jobs.DetHook(m), None):
            rows = []
            area = boundary.estimate_area(m, PREFIX_BASES, seed=s, eval_fn=eval_fn,
                                          on_row=rows.append)
            got.append(bits((rows, area)))
        if got[0] != got[1]:
            failures.append(f"boundary hook AreaRows differ from eval_fn=None at m={m}")
    for c in res["stream"]["calls"]:
        if bits(c["runs"][1]["rows"]) != bits(c["runs"][2]["rows"]):
            failures.append(f"stream rows differ between workers=1 and 2, spec {c['spec']}")
        for w, r in c["runs"].items():
            if not r["reload_ok"]:
                failures.append(f"stream checkpoint reload differs, workers={w}, spec {c['spec']}")
    for c in res["boundary"]["calls"] + (res["boundary"]["traced"] or []):
        failures += [f"boundary m={c['spec'][0]}: {f}" for f in jobs.phase_faults(c)]
    output = {"sweep": lambda c: c["rows"], "boundary": lambda c: (c["rows"], c["area"]),
              "stream": lambda c: [r["rows"] for r in c["runs"].values()]}
    for job in jobs.JOBS:
        for a, b in zip(res[job]["calls"], res[job]["traced"] or []):
            if bits(output[job](a)) != bits(output[job](b)):
                failures.append(f"traced {job} rows differ from untraced, spec {a['spec']}")
    for (m, key), (lo, hi) in WINDOWS.items():
        rel = pooled[m][key] / pooled[m]["exact_" + key[-1]] - 1
        if not lo <= rel <= hi:
            failures.append(f"m={m} {key} off by {rel:+.3%}, window [{lo:+.0%}, {hi:+.0%}]")
    return failures


def informational(bnd, pooled) -> list[str]:
    """Ungated figures that keep the open accuracy problems in view."""
    a4 = [c["area"] for c in bnd if c["spec"][0] == 4]
    exact_a4 = exactform.total_boundary_area(4).to_real()
    info = [f"info: boundary m=4 area {sum(a4) / len(a4):.4f} over {len(a4) * jobs.BOUNDARY_BASES}"
            f" bases vs exact A_4 = {exact_a4:.4f}"]
    for m in (8, 9):
        rel = pooled[m]["est_H"] / pooled[m]["exact_H"] - 1
        info.append(f"info: m={m} est_H relative error {rel:+.3f} over {pooled[m]['points']} points")
    return info


def end_to_end(res, ess, attempted, failed):
    """Throughputs are work per sample over the 90th-percentile sample time.

    A sample is a block for pts_s, an estimate_area call for bases_s and an
    estimator.run call for stream_pts_s; first_row_s.w2 is the 90th
    percentile of the time to the first row.  On a shared host the speed
    sits on a slow plateau and leaves it for faster spells of tens of
    seconds, about 1.5x faster, that come and go from run to run.  Means and
    medians follow how much of a run fell in such a spell.  The time that
    nine samples in ten beat sits on the plateau whenever a tenth of the run
    does, so it moves little between runs, while any change to the
    program's own speed moves it.
    """
    sweep, bnd, stream = (res[job]["calls"] for job in jobs.JOBS)

    def rate(work, seconds):
        return work / float(np.percentile(seconds, 90))

    pts_s = {m: rate(jobs.BLOCK, [t for c in sweep if c["spec"][0] == m for t in c["block_s"]])
             for m in jobs.SWEEP_M}
    points = jobs.STREAM_BLOCKS * jobs.BLOCK
    out = [("setup_s", "s", sp.median(res["probes"]))]
    out += [(f"pts_s.m{m}", "pts/s", pts_s[m]) for m in jobs.SWEEP_M]
    out += [("ess_w_s.m6", "pts/s", pts_s[6] * ess[6]["w"]),
            ("ess_wH_s.m8", "pts/s", pts_s[8] * ess[8]["wH"])]
    out += [(f"bases_s.m{m}", "bases/s",
             rate(jobs.BOUNDARY_BASES, [c["wall"] for c in bnd if c["spec"][0] == m]))
            for m in jobs.BOUNDARY_M]
    out += [(f"stream_pts_s.w{w}", "pts/s", rate(points, [c["runs"][w]["wall"] for c in stream]))
            for w in jobs.STREAM_WORKERS]
    first_rows = [c["runs"][2]["gaps"][0] for c in stream]
    out += [("first_row_s.w2", "s", float(np.percentile(first_rows, 90))),
            ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            ("ok_frac", "fraction", 1.0 - failed / attempted)]
    return out


def per_layer(res, ess):
    out = []
    sweep = res["sweep"]["traced"]
    for m in jobs.SWEEP_M:
        layers = [c["layers"] for c in sweep if c["spec"][0] == m]
        n = sum(len(la["qmc"]) for la in layers)
        for key, name in (("qmc", "qmc.points.ms_per_block"),
                          ("decode", "param.decode_batch.ms_per_block"),
                          ("pt_eig", "quantum.pt_eigvalsh.ms_per_block"),
                          ("self", "estimator.self_ms_per_block")):
            vals = [v for la in layers for v in la[key]]
            pct, tail = sp.tail(vals)
            out += [(f"{name}.m{m}.p50", "ms", sp.median(vals)), (f"{name}.m{m}.tail", "ms", tail)]
        out += [(f"sweep.blocks.m{m}", "count", n), (f"sweep.tail_pct.m{m}", "%", pct),
                (f"quantum.forms.m{m}", "count", len(quantum.forms_for(m))),
                (f"param.ess_frac.w.m{m}", "fraction", ess[m]["w"]),
                (f"param.ess_frac.wH.m{m}", "fraction", ess[m]["wH"]),
                (f"param.degenerate_frac.m{m}", "fraction", ess[m]["degenerate"])]
    for m in jobs.BOUNDARY_M:
        calls = [c for c in res["boundary"]["traced"] if c["spec"][0] == m]
        bases = len(calls) * jobs.BOUNDARY_BASES
        chunks = sum(len(c["split"]["brackets"]) for c in calls)
        for phase in jobs.PHASES:
            out += [(f"boundary.{phase}.ms.m{m}", "ms/base",
                     sum(c["layers"]["ms"][phase] for c in calls) / bases),
                    (f"boundary.{phase}.calls.m{m}", "calls/base",
                     sum(len(c["phase_rows"][phase]) for c in calls) / bases),
                    (f"boundary.{phase}.rows.m{m}", "rows/base",
                     sum(sum(c["phase_rows"][phase]) for c in calls) / bases)]
        feasible = sum(c["rows"][-1].feasible for c in calls)
        roots = sum(c["rows"][-1].roots for c in calls)
        decode_rows = [r for c in calls for r in c["layers"]["decode_rows"]]
        out += [(f"boundary.feasible_frac.m{m}", "fraction", feasible / bases),
                (f"boundary.roots_per_feasible.m{m}", "ratio", roots / max(feasible, 1)),
                (f"boundary.bisect_calls_per_chunk.m{m}", "calls/chunk",
                 sum(len(c["phase_rows"]["bisect"]) for c in calls) / chunks),
                (f"boundary.nonfinite_nodes.m{m}", "nodes/chunk",
                 sum(sum(c["split"]["nonfinite_nodes"]) for c in calls) / chunks),
                (f"quantum.pt_det.ms.boundary.m{m}", "ms/base",
                 sum(c["layers"]["pt_det_ms"] for c in calls) / bases),
                (f"qmc.points.ms.boundary.m{m}", "ms/base",
                 sum(c["layers"]["qmc_ms"] for c in calls) / bases),
                (f"param.decode_batch.calls.boundary.m{m}", "calls/base", len(decode_rows) / bases),
                (f"param.decode_batch.rows_per_call.boundary.m{m}", "rows/call",
                 sum(decode_rows) / len(decode_rows))]
    runs = [run for c in res["stream"]["traced"] for run in c["runs"].values()]
    saves = [s for run in runs for s in run["saves"]]
    gaps = [1e3 * g for c in res["stream"]["traced"] for g in c["runs"][2]["gaps"]]
    pct, gap_tail = sp.tail(gaps)
    out += [("estimator.save_checkpoint.ms", "ms", sp.median([1e3 * (s["end"] - s["start"]) for s in saves])),
            ("estimator.save_checkpoint.count", "saves/run", len(saves) / len(runs)),
            ("estimator.save_checkpoint.bytes", "bytes", sp.median([s["meta"]["bytes"] for s in saves])),
            ("estimator.row_gap_ms.w2.p50", "ms", sp.median(gaps)),
            ("estimator.row_gap_ms.w2.tail", "ms", gap_tail),
            ("estimator.row_gap_ms.w2.tail_pct", "%", pct)]
    out.append(("trace_overhead_frac", "fraction", res["traced_s"] / res["untraced_s"] - 1))
    return out


