"""Boundary-area estimation: bracketing, refinement, co-area weights."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import root_residual

from sepvol import boundary, qmc


def _flat_eval(surface, weight=1.0, free=3):
    """f = t - surface(base coords); single crossing per line."""
    def ev(pts):
        t = pts[:, free]
        return t - surface(pts), np.full(pts.shape[0], weight)
    return ev


def _scan(eval_fn, base, grid=boundary.DEFAULT_GRID, free=3):
    """(roots, non-finite node count) on the line through one base point."""
    _, roots, skipped = boundary._scan_chunk(eval_fn, np.asarray(base)[None, :], grid, free)
    return roots, skipped


def test_scan_chunk_linear_surface():
    ev = _flat_eval(lambda p: 0.3 + 0.2 * p[:, 0])
    roots, skipped = _scan(ev, np.full(14, 0.5))
    assert skipped == 0
    assert len(roots) == 1
    t, w = roots[0]
    assert t == pytest.approx(0.4, abs=1e-11)
    # grad = (0.2 down the first coordinate, 1 along the scan axis)
    assert w == pytest.approx(np.sqrt(1.04), rel=1e-4)


def test_scan_chunk_multiple_crossings():
    def ev(pts):
        return np.cos(3 * np.pi * pts[:, 3]), np.ones(pts.shape[0])
    roots, _ = _scan(ev, np.full(14, 0.5))
    ts = [t for t, _ in roots]
    assert ts == sorted(ts)
    assert np.allclose(ts, [1 / 6, 1 / 2, 5 / 6], atol=1e-10)
    for _, w in roots:
        assert w == pytest.approx(1.0, rel=1e-6)


def test_scan_chunk_mixture_family_crossing():
    """Bell/maximally-mixed mixture: det of the partial transpose changes
    sign exactly where the smallest eigenvalue (1 - 3t)/4 hits zero."""
    def ev(pts):
        t = pts[:, 3]
        return ((1 + t) / 4) ** 3 * ((1 - 3 * t) / 4), np.ones(pts.shape[0])
    roots, _ = _scan(ev, np.full(14, 0.25))
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(1 / 3, abs=1e-11)


def test_scan_chunk_infeasible_line():
    def ev(pts):
        return np.ones(pts.shape[0]), np.ones(pts.shape[0])
    assert _scan(ev, np.full(14, 0.5)) == ([], 0)


def test_scan_chunk_counts_skipped_nodes():
    def ev(pts, nan_at=lambda t: t > 0.9):
        f = pts[:, 3] - 0.5
        f[nan_at(pts[:, 3])] = np.nan
        return f, np.ones(pts.shape[0])
    roots, skipped = _scan(ev, np.full(14, 0.5), grid=32)
    assert skipped == 4
    assert len(roots) == 1
    # a non-finite node blocks the brackets on both sides of it: the crossing
    # at t = 0.5 lies between nodes 15/31 and 16/31, and node 16/31 is NaN
    assert _scan(lambda pts: ev(pts, lambda t: abs(t - 16 / 31) < 0.01),
                 np.full(14, 0.5), grid=32) == ([], 1)


def test_grazing_crossing_gets_zero_weight():
    # the crossing is 1e-12 steep along t but order-1 across the base
    def ev(pts):
        return 1e-12 * (pts[:, 3] - 0.5) + (pts[:, 0] - 0.3), np.ones(pts.shape[0])
    base = np.full(14, 0.5)
    base[0] = 0.3
    roots, _ = _scan(ev, base)
    assert len(roots) == 1
    assert roots[0][1] == 0.0


@pytest.mark.parametrize("free", [0, 5, 34])
def test_real_roots_have_small_residual(free):
    """Refined m=6 roots pin a vanishing partial-transpose eigenvalue, at any scan coordinate.

    At free = 34, the last column, the splice has nothing to its right.
    """
    from sepvol import qmc

    eps_root = 1e-10  # bound on the smallest |PT eigenvalue| at a refined root
    bases = qmc.points(qmc.ScrambleSpec(0), 34, 0, 12)
    found = 0
    for base in bases:
        roots, _ = _scan(boundary._det_eval(6), base, grid=32, free=free)
        for t, _ in roots:
            found += 1
            assert root_residual(base, t, 6, free) <= eps_root
        ts = [t for t, _ in roots]
        assert ts == sorted(ts)
    assert found > 0


def test_det_eval_peak_memory_is_one_slice_beside_rho():
    """A 32,768-row m = 6 call of the default evaluator peaks under 0.25x its rho's bytes.

    The evaluator serves batches of any size, four times the scan's row
    budget here.  It decodes one param.SLICE of rows at a time, so the call's
    own outputs and one slice's decode and partial-transpose copy are alive,
    about 0.1x.  Decoded whole, rho alone is 1x, about 1.2x with its
    temporaries; a partial transpose copied at full size would add another
    rho, about 2.2x in all.
    """
    ev = boundary._det_eval(6)
    pts = qmc.points(qmc.ScrambleSpec(0), 35, 0, 32768)
    ev(pts[:1])  # builds the decode's cached plan outside the trace
    tracemalloc.start()
    try:
        ev(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rho_bytes = 32768 * 6 * 6 * 16
    assert peak <= 0.25 * rho_bytes, peak / rho_bytes


def test_estimate_area_validation():
    with pytest.raises(ValueError):
        boundary.estimate_area(6, 0)
    with pytest.raises(ValueError):
        boundary.estimate_area(6, 10, free_index=35)
    for grid in (0, 1, boundary.GRID_MAX + 1):
        with pytest.raises(ValueError, match="grid"):
            boundary.estimate_area(4, 10, grid=grid, eval_fn=lambda p: p)
    with pytest.raises(ValueError, match="last index"):
        boundary.estimate_area(4, 2**63 - 1, eval_fn=lambda p: p)


def test_estimate_area_leaves_numpy_ma_unimported():
    """Counting feasible bases needs no np.unique, whose first call imports numpy.ma
    (about 9 ms in a fresh interpreter).  Where importing numpy already loads
    numpy.ma, only the estimate_area call is checked."""
    code = ("import sys; from sepvol import boundary; before = 'numpy.ma' in sys.modules; "
            "boundary.estimate_area(4, 2); sys.exit(not before and 'numpy.ma' in sys.modules)")
    src = str(Path(boundary.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert proc.returncode == 0


def test_estimate_area_synthetic_surface():
    """Sinusoidal graph with unit weight: the area has a closed form."""
    def ev(pts):
        return pts[:, 3] - (0.5 + 0.3 * np.sin(2 * np.pi * pts[:, 0])), \
            np.ones(pts.shape[0])
    rows = []
    area = boundary.estimate_area(4, 3000, eval_fn=ev, free_index=3, seed=0,
                                  on_row=rows.append)
    assert area == pytest.approx(1.618603627674, rel=5e-3)
    assert rows[-1].bases == 3000
    assert rows[-1].area == area
    assert rows[-1].feasible == 3000  # every line crosses the graph once
    assert rows[-1].roots == 3000


def test_estimate_area_row_cadence():
    def ev(pts):
        return pts[:, 3] - 0.5, np.ones(pts.shape[0])
    rows = []
    boundary.estimate_area(4, 1200, eval_fn=ev, free_index=3, on_row=rows.append)
    # chunks of SCAN_ROWS // 64 = 128 bases: the first chunk end past 100, the
    # first past 1000, the end
    assert boundary.SCAN_ROWS == 8192
    assert [r.bases for r in rows] == [128, 1024, 1200]


@pytest.mark.parametrize("grid", [2, boundary.DEFAULT_GRID, boundary.GRID_MAX])
def test_estimate_area_calls_stay_within_row_budget(grid):
    """No eval_fn call is larger than SCAN_ROWS rows; a full chunk's scan is exactly that."""
    assert boundary.GRID_MAX <= boundary.SCAN_ROWS  # a chunk holds at least one base
    sizes = []

    def ev(pts):
        sizes.append(len(pts))
        return pts[:, 3] - 0.5, np.ones(pts.shape[0])
    chunk = boundary.SCAN_ROWS // grid
    area = boundary.estimate_area(4, chunk + 1, grid=grid, eval_fn=ev, free_index=3)
    assert area > 0.0
    assert max(sizes) == boundary.SCAN_ROWS == chunk * grid


@pytest.mark.parametrize("m, bases", [(4, 400), (6, 300)])
def test_estimate_area_final_row_does_not_depend_on_chunk(monkeypatch, m, bases):
    """The final AreaRow is bit-identical with the chunk of 512 bases a 512 x grid budget gives."""
    def final_row():
        rows = []
        area = boundary.estimate_area(m, bases, seed=3, on_row=rows.append)
        r = rows[-1]
        return r.bases, r.feasible, r.roots, r.area.hex(), area.hex(), len(rows)
    budgeted = final_row()
    monkeypatch.setattr(boundary, "SCAN_ROWS", 512 * boundary.DEFAULT_GRID)
    whole = final_row()
    assert budgeted[:-1] == whole[:-1]
    # rows: the budget's first chunk end past 100 and the end, against one chunk
    assert (budgeted[-1], whole[-1]) == (2, 1)
