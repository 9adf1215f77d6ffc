"""Unit-cube decoding: simplex map, Euler-angle unitaries, SD weights."""

import math

import numpy as np
import pytest
from oracles import decode_reference

from sepvol import exactform, param, qmc


def test_euler_layout():
    lay = param.euler_layout(6)
    assert len(lay) == 15
    assert lay[0] == (6, 2)
    assert lay[4] == (6, 6)
    assert lay[-1] == (2, 2)
    assert [k for k, _ in lay] == sorted([k for k, _ in lay], reverse=True)


def test_euler_phase_ranges():
    r = param.euler_phase_ranges(4)
    assert np.allclose(r, [np.pi, 2 * np.pi, 2 * np.pi, np.pi, 2 * np.pi, np.pi])


def test_box_volumes():
    assert param.euler_box_volume(6) == pytest.approx(
        np.pi**5 * (2 * np.pi) ** 10 * (np.pi / 2) ** 15)


def test_split_euler_coords_is_a_permutation():
    eu = np.arange(30, dtype=float)[None, :]
    a, b = param.split_euler_coords(6, eu)
    assert a.shape == b.shape == (1, 15)
    assert sorted(np.concatenate([a[0], b[0]]).tolist()) == list(range(30))
    assert np.array_equal(a[0], eu[0, 15:])


def test_rotation_first_orders_by_coupling_width():
    """Lowest-index coords feed the widest couplings (heaviest densities)."""
    eu = np.arange(30, dtype=float)[None, :]
    _, b = param.split_euler_coords(6, eu)
    widths = [j for _, j in param.euler_layout(6)]
    coord_of_width = {}
    for p, j in enumerate(widths):
        coord_of_width.setdefault(j, []).append(b[0, p])
    assert max(coord_of_width[6]) < min(coord_of_width[5])
    assert max(coord_of_width[3]) < min(coord_of_width[2])


def _eigenvalues(theta):
    """Eigenvalues and linear Jacobian of the simplex map at one angle vector."""
    lam, logj = param._simplex_decode(np.asarray(theta, dtype=float)[None, :])
    return lam[0], float(np.exp(logj[0]))


def _simplex_density(lam):
    return float(np.exp(param._eig_density_log(np.asarray(lam, dtype=float)[None, :])[0]))


def test_eigenvalues_from_angles_m2():
    lam, jac = _eigenvalues([np.pi / 4])
    assert np.allclose(lam, [0.5, 0.5])
    assert jac == pytest.approx(1.0)


def test_eigenvalues_sum_to_one():
    rng = np.random.default_rng(3)
    for m in (4, 6, 9):
        theta = rng.uniform(0.1, np.pi / 2 - 0.1, size=m - 1)
        lam, _ = _eigenvalues(theta)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert lam.min() > 0


def test_simplex_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        theta = rng.uniform(0.15, np.pi / 2 - 0.15, size=5)
        _, jac = _eigenvalues(theta)
        J = np.empty((5, 5))
        for j in range(5):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            lp, _ = _eigenvalues(tp)
            lm, _ = _eigenvalues(tm)
            J[:, j] = (lp[:5] - lm[:5]) / (2 * h)
        assert abs(np.linalg.det(J)) == pytest.approx(jac, rel=1e-5)


def test_simplex_density_m2():
    # pairs: 4 (3/4 - 1/4)^2 / (3/4 + 1/4) = 1; over sqrt(3/16) -> 4/sqrt(3)
    assert _simplex_density([0.75, 0.25]) == pytest.approx(4 / math.sqrt(3), rel=1e-12)


def test_simplex_density_m3():
    assert _simplex_density([1 / 2, 1 / 3, 1 / 6]) == pytest.approx(16 / 135, rel=1e-12)


def test_unitary_from_angles_unitarity():
    rng = np.random.default_rng(5)
    for m in (4, 6, 8, 9):
        P = m * (m - 1) // 2
        a = rng.uniform(0, 1, (P, 50)) * param.euler_phase_ranges(m)[:, None]
        b = rng.uniform(0, np.pi / 2, (P, 50))
        W = param._unitary_batch(a, np.cos(b), np.sin(b), m, param.euler_layout(m))
        U = W.transpose(2, 1, 0)  # W[c, r, i] is entry (r, c) of unitary i
        assert U.shape == (50, m, m)
        assert np.abs(U @ np.conj(np.swapaxes(U, 1, 2)) - np.eye(m)).max() < 1e-12
        assert np.abs(np.abs(np.linalg.det(U)) - 1).max() < 1e-12


def _sample_points(m, n, seed=21):
    return qmc.points(qmc.ScrambleSpec(seed), m * m - 1, 0, n)


def test_decode_batch_shapes_and_flags():
    pts = _sample_points(6, 64)
    dec = param.decode_batch(pts, 6)
    assert dec.rho.shape == (64, 6, 6)
    assert dec.lam.shape == (64, 6)
    assert dec.w.shape == dec.w_D.shape == dec.w_H.shape == (64,)
    assert dec.degenerate.dtype == bool
    assert np.array_equal(dec.w, dec.w_D * dec.w_H)
    assert (dec.w_D[dec.degenerate] == 0).all()


def test_decode_batch_states_are_density_matrices():
    pts = _sample_points(4, 500)
    dec = param.decode_batch(pts, 4)
    tr = np.trace(dec.rho, axis1=1, axis2=2)
    assert np.abs(tr - 1).max() < 1e-12
    assert np.abs(dec.rho - np.conj(np.swapaxes(dec.rho, 1, 2))).max() < 1e-12


def test_decode_preserves_spectrum():
    pts = _sample_points(6, 200)
    dec = param.decode_batch(pts, 6)
    ev = np.linalg.eigvalsh(dec.rho)
    assert np.abs(ev - np.sort(dec.lam, axis=1)).max() < 1e-10


def test_decode_flags_degenerate_corner():
    p = np.full(15, 0.5)
    p[0] = 1.0  # first simplex angle at pi/2: smallest eigenvalue collapses
    dec = param.decode_batch(p[None, :], 4)
    assert dec.degenerate[0]
    assert dec.w[0] == 0.0


_DECODED_FIELDS = ("rho", "lam", "w_D", "w_H", "w", "degenerate")


def _edge_points(m, n):
    """n scrambled-Halton points, some with coordinates at exactly 0 or 1.

    Row 0 is all 0 and row 1 all 1.  From row 4 on, row r has coordinate
    r mod d at 0 in its first sweep over the d coordinates, at 1 in the
    second, and so on.  At those edges _TINY keeps the logs finite, and
    zero eigenvalues make degenerate rows.
    """
    pts = _sample_points(m, n)
    d = m * m - 1
    pts[0] = 0.0
    pts[1 % n] = 1.0
    for r in range(4, n):
        pts[r, r % d] = float((r // d) % 2)
    return pts


@pytest.mark.parametrize("m", [4, 6, 8, 9])
@pytest.mark.parametrize("n", [1, 71, 4096])
def test_decode_batch_matches_reference_bytes(m, n):
    """The batch-last decode gives the bytes of the (B, m, m) reference, field by field."""
    pts = _edge_points(m, n)
    new, ref = param.decode_batch(pts, m), decode_reference(pts, m)
    for field in _DECODED_FIELDS:
        assert getattr(new, field).tobytes() == getattr(ref, field).tobytes(), field
    if n > 1:
        assert new.degenerate.any() and not new.degenerate.all()


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_decode_batch_does_not_depend_on_batch_size(m):
    """4096 points decoded at once give the bytes of the same points decoded in slices."""
    pts = _edge_points(m, 4096)
    whole = param.decode_batch(pts, m)
    for size in (1, 71, 900):
        parts = [param.decode_batch(pts[s:s + size], m) for s in range(0, 4096, size)]
        for field in _DECODED_FIELDS:
            joined = np.concatenate([getattr(p, field) for p in parts])
            assert joined.tobytes() == getattr(whole, field).tobytes(), (size, field)


def test_decode_batch_rejects_wrong_width():
    with pytest.raises(ValueError):
        param.decode_batch(np.zeros((4, 15)), 6)


def test_weight_means_converge_to_exact_volumes():
    """QMC means of w_D and w_H approach the exact D_4 and H_4 factors."""
    pts = _sample_points(4, 200000)
    dec = param.decode_batch(pts, 4)
    d4 = exactform.diagonal_volume(4).to_real()
    h4 = exactform.truncated_haar_volume(4).to_real()
    assert abs(dec.w_D.mean() / d4 - 1) < 0.03
    assert abs(dec.w_H.mean() / h4 - 1) < 0.03


def _haar_sections(m, t):
    """w_H at the cube centre x0, and at x0 with each coordinate j in turn set to t[j].

    t is (n,), the same values on every coordinate, or (d, n).  Returns
    w_H(x0) and a (d, n) array.
    """
    d = m * m - 1
    t = np.broadcast_to(t, (d, np.shape(t)[-1]))
    n = t.shape[1]
    pts = np.full((d * n + 1, d), 0.5)
    for j in range(d):
        pts[j * n:(j + 1) * n, j] = t[j]
    w_H = param.decode_batch(pts, m).w_H
    return w_H[-1], w_H[:-1].reshape(d, n)


def _haar_weight_moments(m):
    """E[w_H] and E[w_H^2] over the unit cube, one coordinate at a time.

    w_H is a product of one-coordinate factors, so each moment is
    w_H(x0)^k * prod_j of a 1-D Gauss-Legendre mean of (w_H / w_H(x0))^k
    along coordinate j; the factors are trigonometric polynomials, which 64
    nodes integrate to rounding.
    """
    nodes, wts = np.polynomial.legendre.leggauss(64)
    w0, sections = _haar_sections(m, (nodes + 1) / 2)
    ratio = sections / w0
    return w0 * np.prod(ratio @ (wts / 2)), w0**2 * np.prod(ratio**2 @ (wts / 2))


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_haar_weight_integrates_to_exact_volume(m):
    """The decode's w_H has unit-cube mean H_m to 1e-12, at m = 8 and 9 too.

    First checks that w_H factorises over coordinates at random points, which
    is what lets the quadrature go one coordinate at a time.  The 1e-12
    tolerance covers rounding in exp() of a log-weight near 77 (m=9),
    compounded over up to 80 factors.
    """
    y = np.random.default_rng(3).uniform(0.05, 0.95, size=(4, m * m - 1))
    w0, sections = _haar_sections(m, y.T)
    product = w0 * np.prod(sections / w0, axis=0)
    assert np.allclose(param.decode_batch(y, m).w_H, product, rtol=1e-12, atol=0)
    mean, _ = _haar_weight_moments(m)
    exact = exactform.truncated_haar_volume(m).to_real()
    assert abs(mean / exact - 1) < 1e-12


@pytest.mark.parametrize("m", [8, 9])
def test_haar_weight_variance_outgrows_1e5_points(m):
    """At m = 8, 9 a 25% relative error on est_H needs far more than 1e5 points.

    With the mean exact (above), the spread of a w_H mean over n i.i.d.
    points is sqrt((E[w_H^2]/E[w_H]^2 - 1) / n); that ratio is 4.26e6 at
    m=8 and 1.33e9 at m=9, so 25% needs about 7e7 and 2e10 points.  This is
    why the 1e5-point est_H window of acceptance criterion 4 stays red.
    """
    mean, second = _haar_weight_moments(m)
    needed = (second / mean**2 - 1) / 0.25**2
    assert needed > 100 * 100_000
