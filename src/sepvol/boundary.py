"""Boundary-area estimation by root-finding det(PT) along one coordinate.

For each scrambled-Halton base point (all unit-cube coordinates but one), the
partial-transpose determinant f(t) is scanned along the free coordinate; a
sign change brackets a parameter value where the partial transpose has a zero
eigenvalue.  Each refined root contributes w * ||grad f|| / |df/dt| to the
co-area sum, so the mean over base points estimates the boundary's SD area.
The determinant, not the minimal eigenvalue, is the bracketing function: it
is smooth through every eigenvalue crossing, and the non-vanishing eigenvalue
factors cancel between ||grad f|| and |df/dt|, leaving the same surface
measure at simple zeros.

A grid node where f is not finite is skipped, and it blocks the brackets on
both sides of it: no root is sought across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import param, qmc, quantum

EPS_T = 1e-13       # bisection interval width
# Grazing cutoff: a crossing contributes weight ~ 1/cos(angle to the scan
# axis), so near-tangent roots carry unbounded-variance terms while holding
# only O(EPS_DT) of the total area; they are flagged and left unweighted.
EPS_DT = 1e-3
GRAD_STEP = 1e-5
DEFAULT_GRID = 64
GRID_MAX = 1024
DEFAULT_FREE_INDEX = 0
# Rows of a chunk's scan call: a chunk is max(1, SCAN_ROWS // grid) base points,
# so no eval_fn call is larger at any grid up to GRID_MAX.  The scan call's
# decoded states set the boundary's peak memory.
SCAN_ROWS = 8192
_BISECT_MAX = 50


@dataclass
class AreaRow:
    bases: int
    feasible: int
    roots: int
    area: float


def _det_eval(m: int):
    # default evaluation hook: (points) -> (det of PT, SD weight); the partial
    # transpose is copied one decode slice of rows at a time, not at full size
    form = quantum.forms_for(m)[0]

    def ev(pts: np.ndarray):
        dec = param.decode_batch(pts, m)
        det = np.empty(len(pts))
        for s in range(0, len(pts), param.SLICE):
            rows = slice(s, s + param.SLICE)
            det[rows] = np.linalg.det(quantum.partial_transpose(dec.rho[rows], form)).real
        return det, dec.w
    return ev


def _bisect(eval_fn, line: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            f_lo: np.ndarray, free: int) -> np.ndarray:
    """Vectorized bisection of column free of each full-width point in line, to width <= EPS_T."""
    sign_lo = np.sign(f_lo)
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        pts = line.copy()  # a fresh array per call: an eval_fn may keep the one it is given
        pts[:, free] = mid
        f_mid, _ = eval_fn(pts)
        go_lo = np.sign(f_mid) == sign_lo
        lo = np.where(go_lo, mid, lo)
        hi = np.where(go_lo, hi, mid)  # f_mid == 0 lands here and pins the root
        if np.max(hi - lo) <= EPS_T:
            break
    return 0.5 * (lo + hi)


def _scan_chunk(eval_fn, bases: np.ndarray, grid: int, free: int):
    """Scan f on every base's line, bisect each bracket, then weight each root.

    Returns (base index per root, [(t, area_weight)] per root, non-finite node count).
    """
    nb = bases.shape[0]
    tg = np.linspace(0.0, 1.0, grid)
    # every base's grid line, built in place: the scan's points are the largest
    # array beside rho, and a repeat-then-insert would hold a second copy of them
    lines = np.empty((nb, grid, bases.shape[1] + 1))
    lines[:, :, :free] = bases[:, None, :free]
    lines[:, :, free] = tg
    lines[:, :, free + 1:] = bases[:, None, free:]
    f, _ = eval_fn(lines.reshape(nb * grid, -1))
    f = f.reshape(nb, grid)
    finite = np.isfinite(f)
    sgn = np.where(finite, np.sign(f), 0.0)
    sgn[(sgn == 0.0) & finite] = 1.0  # node-coincident zero: bracket survives on one side
    bi, gi = np.where(sgn[:, :-1] * sgn[:, 1:] < 0)
    roots: list[tuple[float, float]] = []
    if bi.size:
        x = lines[bi, 0]  # each bracket's full-width point; its free column becomes the root
        x[:, free] = _bisect(eval_fn, x, tg[gi], tg[gi + 1], f[bi, gi], free)
        roots = [(float(xr[free]), _root_weight(eval_fn, xr, free)) for xr in x]
    return bi, roots, int((~finite).sum())


def _root_weight(eval_fn, x: np.ndarray, free: int) -> float:
    """Co-area weight w * ||grad f|| / |df/dt| at the root x; 0 flags a grazing crossing."""
    d = x.size
    x_up = np.minimum(x + GRAD_STEP, 1.0 - 1e-12)
    x_down = np.maximum(x - GRAD_STEP, 0.0)
    # probe rows 2j and 2j + 1 step coordinate j up and down, and the last row is
    # the root; entry (2j, j) is flat entry j(2d + 1), and (2j + 1, j) is d past it
    probes = np.empty((2 * d + 1, d))
    probes[:] = x
    flat = probes.reshape(-1)
    flat[:2 * d * d:2 * d + 1] = x_up
    flat[d:2 * d * d:2 * d + 1] = x_down
    f, w = eval_fn(probes)
    grad = (f[:2 * d:2] - f[1:2 * d:2]) / (x_up - x_down)
    dt = abs(grad[free])
    gn = math.sqrt(grad.dot(grad))  # what np.linalg.norm computes for a real vector
    if gn == 0.0 or dt < EPS_DT * gn:
        return 0.0
    return float(w[-1]) * gn / dt


def estimate_area(m: int, base_points: int, grid: int = DEFAULT_GRID, seed: int = 0,
                  free_index: int = DEFAULT_FREE_INDEX, skip: int = qmc.DEFAULT_SKIP,
                  eval_fn=None, on_row=None) -> float:
    """Mean co-area contribution over scrambled-Halton base points.

    Bases are scanned max(1, SCAN_ROWS // grid) at a time.  Emits a cumulative
    AreaRow through on_row at the first chunk end past each power of ten (and
    at the end).  Returns the final area estimate.  A bad argument raises
    ValueError before the first row.
    """
    if base_points < 1:
        raise ValueError("base_points must be >= 1")
    if not 2 <= grid <= GRID_MAX:
        raise ValueError(f"grid must be from 2 to {GRID_MAX}, got {grid}")
    d = m * m - 1
    free = free_index
    if not 0 <= free < d:
        raise ValueError(f"free_index {free} outside [0, {d})")
    if eval_fn is None:
        eval_fn = _det_eval(m)
    spec = qmc.ScrambleSpec(seed, skip, base_points)
    chunk = max(1, SCAN_ROWS // grid)
    total = 0.0
    n_feasible = 0
    n_roots = 0
    done = 0
    next_row = 100
    while done < base_points:
        nb = min(chunk, base_points - done)
        bi, roots, _ = _scan_chunk(eval_fn, qmc.points(spec, d - 1, done, nb), grid, free)
        n_feasible += len(np.unique(bi))
        n_roots += len(roots)
        for _, wgt in roots:
            total += wgt
        done += nb
        if done >= next_row or done == base_points:
            while next_row <= done:
                next_row *= 10
            if on_row:
                on_row(AreaRow(done, n_feasible, n_roots, total / done))
    return total / base_points
