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

from dataclasses import dataclass

import numpy as np

from . import param, qmc, quantum

EPS_ROOT = 1e-10    # residual bound on the vanishing PT eigenvalue at a root
EPS_T = 1e-13       # bisection interval width
# Grazing cutoff: a crossing contributes weight ~ 1/cos(angle to the scan
# axis), so near-tangent roots carry unbounded-variance terms while holding
# only O(EPS_DT) of the total area; they are flagged and left unweighted.
EPS_DT = 1e-3
GRAD_STEP = 1e-5
DEFAULT_GRID = 64
DEFAULT_FREE_INDEX = 0
_BISECT_MAX = 50


@dataclass
class BoundaryRecord:
    base: np.ndarray                  # (m^2-2,) unit coords, free coordinate excluded
    roots: list[tuple[float, float]]  # (t, area_weight), strictly increasing in t
    feasible: bool
    skipped_nodes: int = 0            # grid nodes dropped for non-finite f


@dataclass
class AreaRow:
    bases: int
    feasible: int
    roots: int
    area: float


def _det_eval(m: int):
    # default evaluation hook: (points) -> (det of PT, SD weight)
    form = quantum.forms_for(m)[0]

    def ev(pts: np.ndarray):
        dec = param.decode_batch(pts, m)
        det = np.linalg.det(quantum.partial_transpose(dec.rho, form))
        return det.real, dec.w
    return ev


def root_residual(base: np.ndarray, t: float, m: int, free_index: int) -> float:
    """Smallest |eigenvalue| of the partial transpose at a refined root."""
    x = _insert(np.asarray(base, dtype=float)[None, :], np.array([t]), free_index)
    dec = param.decode_batch(x, m)
    eig = np.linalg.eigvalsh(quantum.partial_transpose(dec.rho, quantum.forms_for(m)[0]))
    return float(np.abs(eig).min())


def _insert(base: np.ndarray, t: np.ndarray, free: int) -> np.ndarray:
    # base (B, d-1) + t (B,) -> (B, d) with t spliced in at the free index
    B, dm1 = base.shape
    out = np.empty((B, dm1 + 1))
    out[:, :free] = base[:, :free]
    out[:, free] = t
    out[:, free + 1:] = base[:, free:]
    return out


def _bisect(eval_fn, base: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            f_lo: np.ndarray, free: int) -> np.ndarray:
    """Vectorized bisection to interval width <= EPS_T per row."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    sign_lo = np.sign(f_lo)
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        f_mid, _ = eval_fn(_insert(base, mid, free))
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
    f, _ = eval_fn(_insert(np.repeat(bases, grid, axis=0), np.tile(tg, nb), free))
    f = f.reshape(nb, grid)
    finite = np.isfinite(f)
    sgn = np.where(finite, np.sign(f), 0.0)
    sgn[(sgn == 0.0) & finite] = 1.0  # node-coincident zero: bracket survives on one side
    bi, gi = np.where(sgn[:, :-1] * sgn[:, 1:] < 0)
    roots: list[tuple[float, float]] = []
    if bi.size:
        t_root = _bisect(eval_fn, bases[bi], tg[gi], tg[gi + 1], f[bi, gi], free)
        roots = [(float(t), _root_weight(eval_fn, bases[b], float(t), free))
                 for b, t in zip(bi, t_root)]
    return bi, roots, int((~finite).sum())


def scan_roots(base: np.ndarray, m: int, free_index: int = DEFAULT_FREE_INDEX,
               grid: int = DEFAULT_GRID, eval_fn=None) -> BoundaryRecord:
    """Grid-scan f along the free coordinate of one base point and refine all roots."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    base = np.asarray(base, dtype=float)
    if eval_fn is None:
        eval_fn = _det_eval(m)
    _, roots, skipped = _scan_chunk(eval_fn, base[None, :], grid, free_index)
    return BoundaryRecord(base, roots, bool(roots), skipped)


def _root_weight(eval_fn, base: np.ndarray, t: float, free: int) -> float:
    """Co-area weight w * ||grad f|| / |df/dt| at one root; 0 flags a grazing crossing."""
    d = base.size + 1
    x = _insert(base[None, :], np.array([t]), free)[0]
    probes = np.repeat(x[None, :], 2 * d + 1, axis=0)
    for j in range(d):
        probes[2 * j, j] = min(x[j] + GRAD_STEP, 1.0 - 1e-12)
        probes[2 * j + 1, j] = max(x[j] - GRAD_STEP, 0.0)
    f, w = eval_fn(probes)
    grad = np.empty(d)
    for j in range(d):
        dx = probes[2 * j, j] - probes[2 * j + 1, j]
        grad[j] = (f[2 * j] - f[2 * j + 1]) / dx
    dt = abs(grad[free])
    gn = float(np.linalg.norm(grad))
    if gn == 0.0 or dt < EPS_DT * gn:
        return 0.0
    return float(w[-1]) * gn / dt


def estimate_area(m: int, base_points: int, grid: int = DEFAULT_GRID, seed: int = 0,
                  free_index: int = DEFAULT_FREE_INDEX, skip: int = qmc.DEFAULT_SKIP,
                  eval_fn=None, chunk: int = 512, on_row=None) -> float:
    """Mean co-area contribution over scrambled-Halton base points.

    Emits cumulative AreaRow checkpoints at powers of ten (and at the end)
    through on_row.  Returns the final area estimate.
    """
    if base_points < 1:
        raise ValueError("base_points must be >= 1")
    d = m * m - 1
    free = free_index
    if not 0 <= free < d:
        raise ValueError(f"free_index {free} outside [0, {d})")
    if eval_fn is None:
        eval_fn = _det_eval(m)
    spec = qmc.ScrambleSpec(seed, skip)
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
