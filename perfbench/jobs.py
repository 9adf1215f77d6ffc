"""The benchmark's three jobs, timed from outside through sepvol's public calls.

* ``sweep``: ``estimator.run`` at workers=1 with no checkpoint file, for
  m = 4, 6, 8, 9.  Time goes to Halton points, decode, PT eigensolves and the
  block reduction; ``boundary`` does no work.
* ``boundary``: ``boundary.estimate_area`` at m = 6 and m = 4 on the default
  grid and chunk, with ``DetHook`` as ``eval_fn``.  Time goes to small-batch
  decodes and determinants; there is no eigensolve, no reduction and no
  ``estimator``.
* ``stream``: ``estimator.run`` at m = 4 with a checkpoint file and ``on_row``,
  a checkpoint at every block, at workers=1 and workers=2.  Cheap points make
  the per-block overheads (pool dispatch, merge, checkpoint write) show.

Each job walks a plan of calls derived from the workload seed, a closed loop
with one caller; ``run_jobs`` interleaves the three jobs' calls by time share.
In a traced run every call is made twice, untraced and under the span
recorder, with the same spec.
"""

from __future__ import annotations

import itertools
import os
from functools import partial
from time import perf_counter

import numpy as np

from sepvol import boundary, estimator, param, qmc, quantum

import spans as sp

BLOCK = estimator.BLOCK
SWEEP_M = (4, 6, 8, 9)
# Blocks per estimator.run call at each m, so that every m's call takes
# about 0.5 s and each pts_s.mX gets a similar share of the sweep's time
# and enough blocks for its percentile.
SWEEP_BLOCKS = {4: 16, 6: 6, 8: 3, 9: 3}
BOUNDARY_M = (6, 4)
# An m = 4 call takes about a quarter of an m = 6 call; three of them per
# m = 6 call give both sizes a similar share of the time.
BOUNDARY_CYCLE = (6, 4, 4, 4)
BOUNDARY_BASES = 512        # bases per estimate_area call, at its default chunk
STREAM_M = 4
STREAM_BLOCKS = 16          # 65536 points, a checkpoint row after every block
STREAM_WORKERS = (1, 2)
# The ESS fractions are taken on a fixed point set: the points of runs with
# scramble seeds 0 .. ESS_SEEDS-1, ESS_BLOCKS blocks each, at every m.
ESS_SEEDS = 8
ESS_BLOCKS = 4
JOBS = ("sweep", "boundary", "stream")
CYCLES = {"sweep": SWEEP_M, "boundary": BOUNDARY_CYCLE, "stream": (STREAM_M,)}
MIN_CALLS = {"sweep": len(SWEEP_M), "boundary": len(BOUNDARY_CYCLE), "stream": 2}


def derive(seed: int, *tags: int) -> int:
    """Scramble seed for one call, a pure function of the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def plan(job: str, seed: int):
    """Endless (m, scramble seed, round) call specs of one job, cycling through CYCLES[job]."""
    tag = JOBS.index(job)
    for k in itertools.count():
        for i, m in enumerate(CYCLES[job]):
            yield m, derive(seed, tag, k, i), k


def trace_targets():
    """Public functions wrapped in the traced pass: (owner, attribute, span name, note)."""
    rows = lambda args, out: {"rows": len(args[0])}  # noqa: E731
    size = lambda args, out: {"bytes": os.path.getsize(args[0])}  # noqa: E731
    return [
        (qmc, "points", "qmc.points", None),
        (param, "decode_batch", "param.decode_batch", rows),
        (quantum, "partial_transpose", "quantum.partial_transpose", None),
        (np.linalg, "eigvalsh", "numpy.linalg.eigvalsh", None),
        (np.linalg, "det", "numpy.linalg.det", None),
        (estimator, "save_checkpoint", "estimator.save_checkpoint", size),
    ]


class DetHook:
    """eval_fn for estimate_area from public calls: (det of the partial transpose, SD weight).

    It computes what estimate_area's own evaluator computes, so areas are
    bit-identical.  Per call it keeps the determinants and the free
    coordinate of each point, from which ``phases`` tells scan, bisection
    and root-weight calls apart after the run.
    """

    def __init__(self, m: int):
        self.m = m
        self.form = quantum.forms_for(m)[0]
        self.calls: list[tuple[np.ndarray, np.ndarray]] = []

    def __call__(self, pts):
        dec = param.decode_batch(pts, self.m)
        det = np.linalg.det(quantum.partial_transpose(dec.rho, self.form)).real
        self.calls.append((pts[:, boundary.DEFAULT_FREE_INDEX].copy(), det))
        return det, dec.w


def warm_up() -> None:
    """One minimal call of each job, so lazy set-up is paid before timing starts."""
    estimator.run(estimator.RunConfig(STREAM_M, BLOCK, BLOCK, 0))
    boundary.estimate_area(STREAM_M, 2, seed=0, eval_fn=DetHook(STREAM_M))


# -- sweep ------------------------------------------------------------------

def sweep_call(spec, tracer=None) -> dict:
    m, seed, _ = spec
    cfg = estimator.RunConfig(m, SWEEP_BLOCKS[m] * BLOCK, BLOCK, seed)
    stamps = []
    with sp.span(tracer, "estimator.run", m=m, workers=1) as (rec, inner):
        t0 = perf_counter()
        rows, _ = estimator.run(cfg, on_row=lambda row: stamps.append(perf_counter()))
    return {"spec": spec, "rows": rows, "block_s": np.diff([t0] + stamps).tolist(),
            "layers": sweep_layers(rec, inner) if tracer else None}


def sweep_layers(rec: dict, inner: list[dict]) -> dict:
    """Per-block ms of each layer; a block starts at its qmc.points call."""
    starts = [s["start"] for s in inner if s["name"] == "qmc.points"]
    bounds = starts + [rec["end"]]
    out = {"qmc": [], "decode": [], "pt_eig": [], "self": []}
    for lo, hi in zip(bounds, bounds[1:]):
        blk = [s for s in inner if lo <= s["start"] < hi]
        q = sp.duration(blk, "qmc.points")
        d = sp.duration(blk, "param.decode_batch")
        e = sp.duration(blk, "quantum.partial_transpose", "numpy.linalg.eigvalsh")
        children = sum(s["end"] - s["start"] for s in blk)
        for key, val in (("qmc", q), ("decode", d), ("pt_eig", e), ("self", hi - lo - children)):
            out[key].append(1e3 * val)
    return out


# -- boundary ---------------------------------------------------------------

PHASES = ("scan", "bisect", "root_weight")


def phases(calls) -> dict:
    """Sort an estimate_area run's eval_fn calls into phases by what they evaluate.

    A scan call evaluates whole grids: its free coordinates are the default
    grid, repeated.  Its determinants give the chunk's sign-change brackets
    (sign rule as in estimate_area: a non-finite node blocks its brackets and
    an exact zero counts as positive).  A bisection call has one point per
    bracket, each inside its bracket.  Every other call is a root weight.
    Returns the phase of each call, the bracket count and the non-finite
    nodes of each scan, and the bases whose scan hit a non-finite node.
    """
    grid = np.linspace(0.0, 1.0, boundary.DEFAULT_GRID)
    lo = hi = np.empty(0)
    out = {"phase": [], "brackets": [], "nonfinite_nodes": [], "nonfinite_bases": 0}
    for t, det in calls:
        if len(t) % grid.size == 0 and np.array_equal(t, np.tile(grid, len(t) // grid.size)):
            f = det.reshape(-1, grid.size)
            finite = np.isfinite(f)
            sgn = np.where(finite, np.sign(f), 0.0)
            sgn[finite & (sgn == 0.0)] = 1.0
            _, gi = np.where(sgn[:, :-1] * sgn[:, 1:] < 0)
            lo, hi = grid[gi], grid[gi + 1]
            out["phase"].append("scan")
            out["brackets"].append(len(gi))
            out["nonfinite_nodes"].append(int((~finite).sum()))
            out["nonfinite_bases"] += int((~finite).any(axis=1).sum())
        elif len(t) == len(lo) > 0 and np.all((lo <= t) & (t <= hi)):
            out["phase"].append("bisect")
        else:
            out["phase"].append("root_weight")
    return out


def boundary_call(spec, tracer=None) -> dict:
    m, seed, _ = spec
    hook = DetHook(m)
    eval_fn = hook if tracer is None else tracer.wrap("boundary.eval_fn", hook)
    rows = []
    with sp.span(tracer, "boundary.estimate_area", m=m) as (rec, inner):
        t0 = perf_counter()
        area = boundary.estimate_area(m, BOUNDARY_BASES, seed=seed, eval_fn=eval_fn,
                                      on_row=rows.append)
        wall = perf_counter() - t0
    split = phases(hook.calls)
    out = {"spec": spec, "rows": rows, "area": area, "wall": wall, "split": split,
           "phase_rows": {ph: [len(t) for (t, _), p in zip(hook.calls, split["phase"]) if p == ph]
                          for ph in PHASES},
           "layers": None}
    if tracer is not None:
        # the time up to each eval_fn call's end goes to that call's phase,
        # the rest of the run to the last call's phase
        ends = [s["end"] for s in inner if s["name"] == "boundary.eval_fn"]
        ms = dict.fromkeys(PHASES, 0.0)
        for ph, a, b in zip(split["phase"], [rec["start"]] + ends, ends):
            ms[ph] += 1e3 * (b - a)
        ms[split["phase"][-1]] += 1e3 * (rec["end"] - ends[-1])
        out["layers"] = {
            "ms": ms,
            "pt_det_ms": 1e3 * sp.duration(inner, "quantum.partial_transpose", "numpy.linalg.det"),
            "qmc_ms": 1e3 * sp.duration(inner, "qmc.points"),
            "decode_rows": [s["meta"]["rows"] for s in inner if s["name"] == "param.decode_batch"],
        }
    return out


def phase_faults(call: dict) -> list[str]:
    """The root-weight count check: one root-weight call per reported root."""
    calls, roots = len(call["phase_rows"]["root_weight"]), call["rows"][-1].roots
    return [] if calls == roots else [f"root_weight.calls {calls} != reported roots {roots}"]


# -- stream -----------------------------------------------------------------

def stream_call(spec, tracer=None, workdir: str = ".") -> dict:
    m, seed, k = spec
    order = STREAM_WORKERS if k % 2 == 0 else STREAM_WORKERS[::-1]
    runs = {}
    for w in order:
        cfg = estimator.RunConfig(m, STREAM_BLOCKS * BLOCK, BLOCK, seed, workers=w)
        path = os.path.join(workdir, f"stream-{k}-w{w}.ckpt")
        stamps = []
        with sp.span(tracer, "estimator.run", m=m, workers=w) as (rec, inner):
            t0 = perf_counter()
            rows, acc = estimator.run(cfg, checkpoint_path=path,
                                      on_row=lambda row: stamps.append(perf_counter()))
            wall = perf_counter() - t0
        reloaded = estimator.load_checkpoint(path, cfg)
        os.remove(path)
        runs[w] = {"rows": rows, "wall": wall, "gaps": np.diff([t0] + stamps).tolist(),
                   "reload_ok": reloaded.n == acc.n and reloaded.checkpoint() == acc.checkpoint(),
                   "saves": [s for s in inner if s["name"] == "estimator.save_checkpoint"]}
    return {"spec": spec, "runs": runs}


# -- driving ----------------------------------------------------------------

def run_jobs(seed: int, shares: dict, budget_s: float, tracer=None, workdir: str = ".",
             probe=None, probes: int = 0) -> dict:
    """Interleave the jobs' calls until budget_s is spent, each job near its share of the time.

    The next call always goes to the job furthest below its share, so every
    job samples the whole run window and a slow spell of the machine hits all
    of them alike.  ``probe`` (the set-up measurement) is called ``probes``
    times at evenly spaced moments of the window for the same reason; its
    results are returned under "probes".  With a tracer, each call is made
    twice in a row with the same spec, untraced and traced, the order
    alternating between a job's successive calls, so the two sides see the
    same machine; "untraced_s" and "traced_s" sum each side's call time.
    """
    call = {"sweep": sweep_call, "boundary": boundary_call,
            "stream": partial(stream_call, workdir=workdir)}
    plans = {job: plan(job, seed) for job in JOBS}
    out = {job: {"calls": [], "traced": [] if tracer else None} for job in JOBS}
    out.update(probes=[], untraced_s=0.0, traced_s=0.0)
    used = dict.fromkeys(JOBS, 0.0)
    t0 = perf_counter()
    while True:
        done = len(out["probes"])
        if done < probes and perf_counter() - t0 >= done * budget_s / probes:
            out["probes"].append(probe())
            continue
        short = [job for job in JOBS if len(out[job]["calls"]) < MIN_CALLS[job]]
        if not short and perf_counter() - t0 >= budget_s:
            break
        job = min(short or JOBS, key=lambda j: used[j] / shares[j])
        spec = next(plans[job])
        sides = [False]
        if tracer is not None:
            sides = [False, True] if len(out[job]["calls"]) % 2 == 0 else [True, False]
        for traced in sides:
            t = perf_counter()
            if traced:
                with tracer.patched(trace_targets()):
                    out[job]["traced"].append(call[job](spec, tracer))
            else:
                out[job]["calls"].append(call[job](spec))
            dt = perf_counter() - t
            used[job] += dt
            out["traced_s" if traced else "untraced_s"] += dt
    return out


def ess_reference(ms) -> dict:
    """Pooled ESS fractions (sum w)^2 / (n sum w^2) of w and w_H, and the degenerate share, per m.

    Untimed, and on a fixed point set that does not depend on the workload
    seed, so the figures change only when the program's weights do.  Rows
    are weighted as estimator.run weights them: w is zero on degenerate
    rows, and w_H is left out there.
    """
    out = {}
    for m in ms:
        sums = np.zeros(4)      # sum w, sum w^2, sum w_H, sum w_H^2
        n = degenerate = 0
        for seed in range(ESS_SEEDS):
            spec = qmc.ScrambleSpec(seed)
            for b in range(ESS_BLOCKS):
                dec = param.decode_batch(qmc.points(spec, m * m - 1, b * BLOCK, BLOCK), m)
                wh = np.where(dec.degenerate, 0.0, dec.w_H)
                sums += [dec.w.sum(), (dec.w * dec.w).sum(), wh.sum(), (wh * wh).sum()]
                n += BLOCK
                degenerate += int(dec.degenerate.sum())
        out[m] = {"w": float(sums[0] ** 2 / (n * sums[1])),
                  "wH": float(sums[2] ** 2 / (n * sums[3])), "degenerate": degenerate / n}
    return out
