"""Unit-cube decoding: simplex map, Euler-angle unitaries, SD weights."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import decode_reference, decode_simplex_jacobian, eig_density_log, split_euler_coords

from sepvol import estimator, exactform, param, qmc


def test_euler_layout():
    lay = param.euler_layout(6)
    assert len(lay) == 15
    assert lay[0] == (6, 2)
    assert lay[4] == (6, 6)
    assert lay[-1] == (2, 2)
    assert [k for k, _ in lay] == sorted([k for k, _ in lay], reverse=True)


def test_euler_phase_ranges():
    assert [p.phase for p in param.euler_pairs(4)] == [1, 2, 2, 1, 2, 1]
    assert np.array_equal(param._plan(4).wide[:, 0], [False, True, True, False, True, False])


def test_box_volumes():
    """Each pair's density is scale * sin^a x * cos^b x with its exact integral; the box at m = 6.

    (a, b) is (1, 1) on j = 2 pairs (sin 2x = 2 sin x cos x), (2j - 3, 1) on
    j = k pairs and (1, 2j - 3) on the others.  The plan's Haar log constant is
    the box pi^5 (2 pi)^10 (pi/2)^15 times every pair's scale.
    """
    pairs6 = param.euler_pairs(6)
    assert math.exp(param._plan(6).log_const_H) == pytest.approx(
        np.pi**5 * (2 * np.pi) ** 10 * (np.pi / 2) ** 15 * math.prod(p.scale for p in pairs6),
        rel=1e-13)
    nodes, wts = np.polynomial.legendre.leggauss(32)
    x = (nodes + 1) * np.pi / 4
    for m in (4, 6, 8, 9):
        for pair in param.euler_pairs(m):
            n = 2 * pair.j - 3
            assert (pair.a, pair.b) == ((1, 1) if pair.j == 2 else (n, 1) if pair.j == pair.k
                                        else (1, n)), pair
            density = float(pair.scale) * np.sin(x) ** pair.a * np.cos(x) ** pair.b
            quad = np.pi / 4 * wts @ density
            assert quad == pytest.approx(float(pair.integral), rel=1e-13), pair


def _euler_columns(m):
    """Point columns of each pair's (phase, rotation), from the decode's plan."""
    pts = np.arange(m * m - 1, dtype=float)[None, :]
    rot, phase = np.split(pts.T[param._plan(m).cols[m - 1:]], 2)
    return phase.T, rot.T


def test_split_euler_coords_is_a_permutation():
    """The plan's columns are the oracle's per-pair (phase, rotation) split."""
    for m in (4, 6, 8, 9):
        P = m * (m - 1) // 2
        a, b = _euler_columns(m)
        assert a.shape == b.shape == (1, P)
        assert sorted(np.concatenate([a[0], b[0]]).tolist()) == list(range(m - 1, m * m - 1))
        assert np.array_equal(a[0], np.arange(m - 1 + P, m * m - 1))
        ref_a, ref_b = split_euler_coords(m, np.arange(m - 1, m * m - 1, dtype=float)[None, :])
        assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)


def test_rotation_first_orders_by_coupling_width():
    """Lowest-index coords feed the widest couplings (heaviest densities)."""
    _, b = _euler_columns(6)
    widths = [j for _, j in param.euler_layout(6)]
    coord_of_width = {}
    for p, j in enumerate(widths):
        coord_of_width.setdefault(j, []).append(b[0, p])
    assert max(coord_of_width[6]) < min(coord_of_width[5])
    assert max(coord_of_width[3]) < min(coord_of_width[2])


def _simplex_density(lam):
    return float(np.exp(eig_density_log(np.asarray(lam, dtype=float)[None, :])[0]))


def test_eigenvalues_from_angles_m2():
    # the simplex coordinate 1/2 is the angle pi/4
    lam = param.decode_batch(np.full((1, 3), 0.5), 2).lam[0]
    assert np.allclose(lam, [0.5, 0.5])


def test_eigenvalues_sum_to_one():
    rng = np.random.default_rng(3)
    for m in (4, 6, 9):
        lam = param.decode_batch(rng.uniform(0.06, 0.94, size=(5, m * m - 1)), m).lam
        assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-12
        assert lam.min() > 0


def test_simplex_jacobian_matches_finite_differences():
    """w_D is the eigenvalue density times |det d(lambda)/dv|, the decode's own simplex Jacobian."""
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 6, 8, 9):
        pts = rng.uniform(0.1, 0.9, size=(20, m * m - 1))
        dec = param.decode_batch(pts, m)
        jac = dec.w_D / np.exp(eig_density_log(dec.lam))
        assert np.abs(decode_simplex_jacobian(pts, m) / jac - 1).max() < 1e-5, m


def test_simplex_density_m2():
    # pairs: 4 (3/4 - 1/4)^2 / (3/4 + 1/4) = 1; over sqrt(3/16) -> 4/sqrt(3)
    assert _simplex_density([0.75, 0.25]) == pytest.approx(4 / math.sqrt(3), rel=1e-12)


def test_simplex_density_m3():
    assert _simplex_density([1 / 2, 1 / 3, 1 / 6]) == pytest.approx(16 / 135, rel=1e-12)


def test_unitary_from_angles_unitarity():
    rng = np.random.default_rng(5)
    for m in (4, 6, 8, 9):
        P = m * (m - 1) // 2
        a = rng.uniform(0, 1, (P, 50)) * np.pi * np.array([[p.phase] for p in param.euler_pairs(m)])
        b = rng.uniform(0, np.pi / 2, (P, 50))
        W = param._unitary_batch(np.exp(1j * a), np.cos(b), np.sin(b), m, param.euler_layout(m))
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
    """degenerate has the bytes of the np.sin/np.cos reference; rho and lam lie within 1e-14 of it.

    The decode takes its sines and cosines from np.tan and builds rho by
    matmul, so rho and lam move in their last bits.  lam is compared in
    absolute terms: near v = 1 the reference's np.cos(v pi/2) loses relative
    accuracy (its argument is rounded), which the complementary-angle sine
    does not.
    """
    pts = _edge_points(m, n)
    new, ref = param.decode_batch(pts, m), decode_reference(pts, m)
    assert new.degenerate.tobytes() == ref.degenerate.tobytes()
    assert np.abs(new.rho - ref.rho).max() <= 1e-14
    assert np.abs(new.lam - ref.lam).max() <= 1e-14
    if n > 1:
        assert new.degenerate.any() and not new.degenerate.all()


@pytest.mark.parametrize("m", [4, 6, 8, 9])
@pytest.mark.parametrize("n", [1, 71, 4096])
def test_decode_batch_weights_match_reference(m, n):
    """w_D, w_H and w agree with the pair-by-pair reference: median 1e-13, at most 1e-9 relative.

    The maximum falls on rows with nearly equal eigenvalues, where
    log (l_i - l_j)^2 turns last-bit differences in lam into relative
    differences of the weight.  Weights under 1e-280 count as zero: at a
    rotation angle of exactly 0 the j = 2 density is 0, and both read it at
    the _TINY floor, the reference as sin 2x + _TINY and the decode as
    2 (sin x + _TINY)(cos x + _TINY).  Where a coordinate is exactly 1, the
    decode's cos is exactly 0 where the reference's is cos(pi/2) = 6.1e-17,
    so the decode's weight falls under the floor and the reference's does not;
    only such rows may differ that way.
    """
    pts = _edge_points(m, n)
    new, ref = param.decode_batch(pts, m), decode_reference(pts, m)
    at_one = (pts == 1.0).any(axis=1)
    for field in ("w_D", "w_H", "w"):
        got, want = getattr(new, field), getattr(ref, field)
        assert at_one[(got < 1e-280) & (want >= 1e-280)].all(), field
        assert not ((got >= 1e-280) & (want < 1e-280)).any(), field
        both = (got >= 1e-280) & (want >= 1e-280)
        rel = np.abs(got[both] - want[both]) / want[both]
        assert rel.max(initial=0.0) <= 1e-9 and np.median(np.append(rel, 0.0)) <= 1e-13, field


def test_sin_cos_within_4_ulp_of_numpy():
    """The tan-based sin and cos of v pi/2 are within 4 ulp of numpy's on a dense grid over [0, 1].

    The cosine is checked against np.cos on [0, 1/2] and against np.sin of the
    complementary angle on all of [0, 1]: near v = 1, np.cos(v pi/2) itself is
    off by the rounding of its argument, up to 6.1e-17 absolute, while the
    helper's cosine is exactly 0 at v = 1.
    """
    v = np.concatenate([np.linspace(0.0, 1.0, 200_001), [0.0, 0.5, 1.0, 1e-300, 1 - 2**-53]])
    s, c = param._sin_cos(v)
    x = v * (np.pi / 2)
    half = v <= 0.5
    for got, want in ((s, np.sin(x)), (c[half], np.cos(x[half])),
                      (c, np.sin((1 - v) * (np.pi / 2)))):
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(want))).all()
    # exactly 0 and 1 at the ends, and sin = cos at v = 1/2
    assert (s[-5], s[-3], c[-5], c[-3], s[-4]) == (0.0, 1.0, 1.0, 0.0, c[-4])


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_decode_batch_does_not_depend_on_batch_size(m):
    """Points decoded at once give the bytes of the same points decoded in slices.

    At m = 6 and 9, 10,240 points (ten 1024-row decode slices) are also cut
    at 71, 1025 and 4096 rows, across the slice edges.
    """
    assert param.SLICE == 1024
    cases = [(4096, (1, 71, 900))] + [(10240, (71, 1025, 4096))] * (m in (6, 9))
    for n, sizes in cases:
        pts = _edge_points(m, n)
        whole = param.decode_batch(pts, m)
        for size in sizes:
            parts = [param.decode_batch(pts[s:s + size], m) for s in range(0, n, size)]
            for field in _DECODED_FIELDS:
                joined = np.concatenate([getattr(p, field) for p in parts])
                assert joined.tobytes() == getattr(whole, field).tobytes(), (n, size, field)


@pytest.mark.parametrize("m", [6, 9])
def test_decode_batch_peak_memory_is_one_slice(m):
    """At 4 x 4096 rows, the traced peak of decode_batch is at most 2.5x its output bytes.

    Decoded whole, the unitaries, their conjugates and the phases of every row
    are alive at once, about 3.4x the output; in param.SLICE-row slices, only
    one slice's are.
    """
    pts = _sample_points(m, 4 * 4096)
    param.decode_batch(pts[:1], m)  # builds the cached plan outside the trace
    tracemalloc.start()
    try:
        dec = param.decode_batch(pts, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(getattr(dec, field).nbytes for field in _DECODED_FIELDS)
    assert peak <= 2.5 * out_bytes, peak / out_bytes


def test_compute_block_peak_memory_takes_no_copy_of_rho():
    """One m = 9 block of 4096 points peaks under 3x its rho's bytes.

    The block's points, the decode's output and one partial-transpose copy
    come to about 2.6x.  A copy of rho's non-degenerate rows before the
    eigensolve would add another rho, about 3.6x in all.
    """
    cfg = estimator.RunConfig(9, 4096, 4096, seed=0)
    estimator._compute_block((cfg, 0, 1))  # builds the cached plan outside the trace
    tracemalloc.start()
    try:
        estimator._compute_block((cfg, 0, 4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rho_bytes = 4096 * 9 * 9 * 16
    assert peak <= 3.0 * rho_bytes, peak / rho_bytes


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
