"""Boundary-area estimation: bracketing, refinement, co-area weights."""

import numpy as np
import pytest

from sepvol import boundary


def _flat_eval(surface, weight=1.0, free=3):
    """f = t - surface(base coords); single crossing per line."""
    def ev(pts):
        t = pts[:, free]
        return t - surface(pts), np.full(pts.shape[0], weight)
    return ev


def test_scan_roots_linear_surface():
    ev = _flat_eval(lambda p: 0.3 + 0.2 * p[:, 0])
    base = np.full(14, 0.5)
    rec = boundary.scan_roots(base, 4, free_index=3, eval_fn=ev)
    assert rec.feasible
    assert rec.skipped_nodes == 0
    assert len(rec.roots) == 1
    t, w = rec.roots[0]
    assert t == pytest.approx(0.4, abs=1e-11)
    # grad = (0.2 down the first coordinate, 1 along the scan axis)
    assert w == pytest.approx(np.sqrt(1.04), rel=1e-4)


def test_scan_roots_multiple_crossings():
    def ev(pts):
        return np.cos(3 * np.pi * pts[:, 3]), np.ones(pts.shape[0])
    rec = boundary.scan_roots(np.full(14, 0.5), 4, free_index=3, eval_fn=ev)
    ts = [t for t, _ in rec.roots]
    assert ts == sorted(ts)
    assert np.allclose(ts, [1 / 6, 1 / 2, 5 / 6], atol=1e-10)
    for _, w in rec.roots:
        assert w == pytest.approx(1.0, rel=1e-6)


def test_scan_roots_mixture_family_crossing():
    """Bell/maximally-mixed mixture: det of the partial transpose changes
    sign exactly where the smallest eigenvalue (1 - 3t)/4 hits zero."""
    def ev(pts):
        t = pts[:, 3]
        return ((1 + t) / 4) ** 3 * ((1 - 3 * t) / 4), np.ones(pts.shape[0])
    rec = boundary.scan_roots(np.full(14, 0.25), 4, free_index=3, eval_fn=ev)
    assert len(rec.roots) == 1
    assert rec.roots[0][0] == pytest.approx(1 / 3, abs=1e-11)


def test_scan_roots_infeasible_line():
    def ev(pts):
        return np.ones(pts.shape[0]), np.ones(pts.shape[0])
    rec = boundary.scan_roots(np.full(14, 0.5), 4, free_index=3, eval_fn=ev)
    assert not rec.feasible
    assert rec.roots == []


def test_scan_roots_counts_skipped_nodes():
    def ev(pts, nan_at=lambda t: t > 0.9):
        f = pts[:, 3] - 0.5
        f[nan_at(pts[:, 3])] = np.nan
        return f, np.ones(pts.shape[0])
    rec = boundary.scan_roots(np.full(14, 0.5), 4, free_index=3, eval_fn=ev, grid=32)
    assert rec.skipped_nodes == 4
    assert len(rec.roots) == 1
    # a non-finite node blocks the brackets on both sides of it: the crossing
    # at t = 0.5 lies between nodes 15/31 and 16/31, and node 16/31 is NaN
    rec = boundary.scan_roots(np.full(14, 0.5), 4, free_index=3, grid=32,
                              eval_fn=lambda pts: ev(pts, lambda t: abs(t - 16 / 31) < 0.01))
    assert rec.skipped_nodes == 1
    assert rec.roots == [] and not rec.feasible


def test_grazing_crossing_gets_zero_weight():
    # the crossing is 1e-12 steep along t but order-1 across the base
    def ev(pts):
        return 1e-12 * (pts[:, 3] - 0.5) + (pts[:, 0] - 0.3), np.ones(pts.shape[0])
    base = np.full(14, 0.5)
    base[0] = 0.3
    rec = boundary.scan_roots(base, 4, free_index=3, eval_fn=ev)
    assert len(rec.roots) == 1
    assert rec.roots[0][1] == 0.0


def test_scan_roots_validation():
    with pytest.raises(ValueError):
        boundary.scan_roots(np.full(14, 0.5), 4, eval_fn=lambda p: p, grid=1)


def test_real_roots_have_small_residual():
    """Refined m=6 roots pin a vanishing partial-transpose eigenvalue."""
    from sepvol import qmc

    bases = qmc.points(qmc.ScrambleSpec(0), 34, 0, 12)
    found = 0
    for base in bases:
        rec = boundary.scan_roots(base, 6, grid=32)
        for t, _ in rec.roots:
            found += 1
            assert boundary.root_residual(base, t, 6, 0) <= boundary.EPS_ROOT
        ts = [t for t, _ in rec.roots]
        assert ts == sorted(ts)
    assert found > 0


def test_estimate_area_validation():
    with pytest.raises(ValueError):
        boundary.estimate_area(6, 0)
    with pytest.raises(ValueError):
        boundary.estimate_area(6, 10, free_index=35)


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
    boundary.estimate_area(4, 230, eval_fn=ev, free_index=3, chunk=50,
                           on_row=rows.append)
    assert [r.bases for r in rows] == [100, 230]
