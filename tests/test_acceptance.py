"""Acceptance gate: one test per validation criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see every checked window
live.  Two windows are red and are kept as written rather than loosened; the
failing test's docstring gives the cause with its numbers:

- criterion 4, m = 8/9 est_H within 25% at 1e5 points: the integrand is right
  (tests/test_param.py integrates the decode's w_H to the exact H_m), but
  E[w_H^2]/E[w_H]^2 is 4.26e6 (m=8) and 1.33e9 (m=9), so the window needs
  about 7e7 and 2e10 points;
- criterion 5, m = 6 boundary area within a factor of 2 of 1.094e-6: the root
  weight uses the Euclidean gradient instead of the metric one, and carries
  the (prod lambda)^(-1/2) tail of the volume density.

The criterion-7 number-theory checks assert what exact arithmetic and proven
prime bounds give, with the expectations computed inside the tests.
"""

import math
import time

import numpy as np
import pytest
from oracles import decode_simplex_jacobian, eig_density_log, is_ppt, trial_division_primes

from sepvol import analysis, boundary, estimator, exactform, param, qmc, quantum

# large-run reference values the estimates are checked against
H6_REF = 0.809794
D6_REF = 2.16914e-6
V6_REF = 1.75655e-6
V4_REF = 5.64794
P4_REF = 0.0736881
AREA6_REF = 1.094257e-6
# closed form of the synthetic test surface's area:
# integral_0^1 sqrt(1 + (0.6 pi cos(2 pi s))^2) ds
SYNTH_AREA = 1.618603627674


def _check(bad, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok:
        bad.append(f"{name}: {detail}")


@pytest.fixture(scope="module")
def m6_run():
    cfg = estimator.RunConfig(6, 1_000_000, 100_000, seed=estimator.DEFAULT_SEED)
    return estimator.run(cfg)


@pytest.fixture(scope="module")
def m4_run():
    cfg = estimator.RunConfig(4, 1_000_000, 100_000, seed=estimator.DEFAULT_SEED)
    return estimator.run(cfg)


@pytest.fixture(scope="module")
def m8_run():
    cfg = estimator.RunConfig(8, 100_000, 100_000, seed=estimator.DEFAULT_SEED)
    return estimator.run(cfg)


@pytest.fixture(scope="module")
def m9_run():
    cfg = estimator.RunConfig(9, 100_000, 100_000, seed=estimator.DEFAULT_SEED)
    return estimator.run(cfg)


@pytest.fixture(scope="module")
def boundary_run():
    rows = []
    area = boundary.estimate_area(6, 50_000, seed=0, on_row=rows.append)
    return area, rows[-1]


def test_criterion_1_exact_constants():
    """Thirteen closed-form constants to six significant digits, under 1 s."""
    t0 = time.perf_counter()
    values = [
        exactform.truncated_haar_volume(4).to_real(),
        exactform.truncated_haar_volume(6).to_real(),
        exactform.truncated_haar_volume(8).to_real(),
        exactform.truncated_haar_volume(9).to_real(),
        exactform.diagonal_volume(4).to_real(),
        exactform.diagonal_volume(6).to_real(),
        exactform.total_volume(4).to_real(),
        exactform.total_volume(6).to_real(),
        exactform.conjectured_separable_volume(4).to_real(),
        exactform.conjectured_separable_volume(6).to_real(),
        exactform.conjectured_probability(4).to_real(),
        exactform.conjectured_probability(6).to_real(),
        exactform.total_boundary_area(4).to_real(),
    ]
    elapsed = time.perf_counter() - t0
    printed = [10.0145, 0.809794, 0.000316395, 5.81699e-7, 0.563977, 2.16914e-6,
               5.64794, 1.75655e-6, 0.416186, 2.19053e-9, 0.0736881, 0.00124706,
               34.911]
    names = ["H_4", "H_6", "H_8", "H_9", "D_4", "D_6", "V_4", "V_6",
             "V_4_sep", "V_6_sep", "P_4", "P_6", "A_4"]
    bad = []
    for name, got, want in zip(names, values, printed):
        _check(bad, f"criterion 1 {name}", abs(got / want - 1) < 5e-6,
               f"{got:.10g} vs {want}")
    _check(bad, "criterion 1 runtime", elapsed < 1.0, f"{elapsed:.4f} s")
    assert not bad, "\n".join(bad)


def test_criterion_2_m6_million_point_run(m6_run):
    rows, acc = m6_run
    row = rows[-1]
    raw = [c / acc.n for c in acc.count_sep]
    bad = []
    _check(bad, "criterion 2 est_H", abs(row.est_H / H6_REF - 1) < 0.01,
           f"{row.est_H:.6f} within 1% of {H6_REF}")
    _check(bad, "criterion 2 est_D", abs(row.est_D / D6_REF - 1) < 0.01,
           f"{row.est_D:.6e} within 1% of {D6_REF}")
    _check(bad, "criterion 2 est_V", abs(row.est_V / V6_REF - 1) < 0.05,
           f"{row.est_V:.6e} within 5% of {V6_REF}")
    _check(bad, "criterion 2 raw sep (3x3 form)", abs(raw[0] - 0.0499) < 0.005,
           f"{raw[0]:.4f} vs .0499 +- .005")
    _check(bad, "criterion 2 raw sep (2x2 form)", abs(raw[1] - 0.0431) < 0.005,
           f"{raw[1]:.4f} vs .0431 +- .005")
    for i, label in enumerate(("3x3", "2x2")):
        _check(bad, f"criterion 2 est_P ({label} form)",
               8e-4 <= row.est_P[i] <= 2e-3, f"{row.est_P[i]:.6f} in [8e-4, 2e-3]")
    _check(bad, "criterion 2 mean negativity", abs(row.mean_neg - 0.111) < 0.005,
           f"{row.mean_neg:.4f} vs .111 +- .005")
    _check(bad, "criterion 2 mean log-negativity", abs(row.mean_logneg - 0.197) < 0.008,
           f"{row.mean_logneg:.4f} vs .197 +- .008")
    assert not bad, "\n".join(bad)


def test_criterion_3_m4_million_point_run(m4_run):
    rows, _ = m4_run
    row = rows[-1]
    bad = []
    _check(bad, "criterion 3 est_V", abs(row.est_V / V4_REF - 1) < 0.02,
           f"{row.est_V:.6f} within 2% of {V4_REF}")
    _check(bad, "criterion 3 est_P", abs(row.est_P[0] / P4_REF - 1) < 0.10,
           f"{row.est_P[0]:.6f} within 10% of {P4_REF}")
    assert not bad, "\n".join(bad)


def test_criterion_4_m8_m9_pipelines_run_and_order(m6_run, m8_run, m9_run):
    """Both big-m pipelines finish cleanly and sit below the m=6 probability."""
    m6_rows, _ = m6_run
    p6_min = min(m6_rows[-1].est_P)
    bad = []
    for m, run in ((8, m8_run), (9, m9_run)):
        rows, acc = run
        row = rows[-1]
        flat = [row.est_D, row.est_H, row.est_V, row.mean_neg, row.mean_logneg,
                *row.est_V_sep, *row.est_P]
        _check(bad, f"criterion 4 m={m} completes", acc.n == 100_000 and
               all(math.isfinite(v) for v in flat),
               f"n={acc.n}, degenerate={row.degenerate}, all columns finite")
        _check(bad, f"criterion 4 m={m} PPT ordering",
               max(row.est_P) < p6_min,
               f"max est_P {max(row.est_P):.3e} < m=6 minimum {p6_min:.3e}")
    assert not bad, "\n".join(bad)


def test_criterion_4_m8_m9_haar_volume_window(m8_run, m9_run):
    """est_H within 25% of the exact H_8/H_9 at 1e5 points; red, variance-limited.

    The integrand is right: tests/test_param.py integrates the decode's own
    w_H one coordinate at a time by Gauss-Legendre quadrature and reproduces
    truncated_haar_volume(m) to 1e-12 for m = 4, 6, 8, 9.  What fails is the
    sample size.  w_H is a product of 28 (m=8) / 36 (m=9) peaked factors, and
    the same quadrature gives E[w_H^2]/E[w_H]^2 = 4.26e6 at m=8 and 1.33e9 at
    m=9, so a 25% relative standard deviation needs about 7e7 and 2e10
    i.i.d.-equivalent points; this test draws 1e5, and its mean is dominated
    by the largest single weight (ratios .02-.70 for m=8 and .001-.58 for m=9
    across nine seeds).  The abstract calls the m=8/9 runs preliminary, and
    neither it, the README nor the docstrings promise 25% at 1e5 points, so
    nothing settles whether the window is a requirement.  It stays as written
    and red until the estimator changes (ROADMAP's bounded-weight sampler:
    exact Haar angles make w_H constant).  The same code path converges to -0.002%
    (m=4) and -1% (m=6).
    """
    bad = []
    for m, run in ((8, m8_run), (9, m9_run)):
        rows, _ = run
        exact = exactform.truncated_haar_volume(m).to_real()
        est = rows[-1].est_H
        _check(bad, f"criterion 4 m={m} est_H", abs(est / exact - 1) < 0.25,
               f"{est:.4e} within 25% of {exact:.4e} (ratio {est / exact:.3f})")
    assert not bad, "\n".join(bad)


def test_criterion_5_m6_boundary_run(boundary_run):
    """Count ratios hold; the area window does not, and the program is at fault.

    At 5e4 bases the area is 4.948e-6, outside the factor-2 window around
    1.094e-6; feasible/base and roots/feasible pass.  boundary.py says the
    mean estimates the boundary's SD area, and two things keep it from doing so:

    - The root weight uses the wrong gradient norm.  _root_weight takes the
      Euclidean norm of the unit-cube gradient; the co-area formula for a
      metric g with sqrt(det g) proportional to w needs
      w * sqrt(grad f^T g^-1 grad f) / |df/dt|.  The mend is not settled:
      which normalisation of g matches the 1.094e-6 reference is open
      (exactform.total_boundary_area(4), the only exact area, may not even
      describe the separable boundary), and the public eval_fn hook returns
      only (f, w), so g cannot reach the root weight through it.
    - The weight carries the (prod lambda)^(-1/2) divergence of the volume
      density, so roots near the spectrum-degenerate faces carry weights tens
      of orders of magnitude above the median (top root ~ 58% of the whole
      sum at 2e3 bases) and the mean still climbs at 5e4 bases (2.6e-6 ->
      3.0e-6 -> 4.9e-6 over successive decades).

    The window stays as written; the mend belongs to ROADMAP's metric-correct
    co-area weight.
    """
    area, last = boundary_run
    feas = last.feasible / last.bases
    rpf = last.roots / last.feasible
    bad = []
    _check(bad, "criterion 5 area", AREA6_REF / 2 < area < AREA6_REF * 2,
           f"{area:.6e} within factor 2 of {AREA6_REF}")
    _check(bad, "criterion 5 feasible/base", abs(feas - 0.84) < 0.05,
           f"{feas:.4f} vs .84 +- .05")
    _check(bad, "criterion 5 roots/feasible", abs(rpf - 2.08) < 0.2,
           f"{rpf:.3f} vs 2.08 +- .2")
    assert not bad, "\n".join(bad)


def test_criterion_5_synthetic_surface_oracle():
    def ev(pts):
        return pts[:, 3] - (0.5 + 0.3 * np.sin(2 * np.pi * pts[:, 0])), \
            np.ones(pts.shape[0])

    area = boundary.estimate_area(4, 100_000, eval_fn=ev, free_index=3, seed=0)
    bad = []
    _check(bad, "criterion 5 synthetic oracle", abs(area / SYNTH_AREA - 1) < 0.05,
           f"{area:.9f} within 5% of {SYNTH_AREA}")
    assert not bad, "\n".join(bad)


def test_criterion_6_property_suites():
    bad = []

    pts = qmc.points(qmc.ScrambleSpec(estimator.DEFAULT_SEED), 35, 0, 10_000)
    dec = param.decode_batch(pts, 6)
    tr_err = np.abs(np.trace(dec.rho, axis1=1, axis2=2) - 1).max()
    herm_err = np.abs(dec.rho - np.conj(np.swapaxes(dec.rho, 1, 2))).max()
    spec_err = np.abs(np.linalg.eigvalsh(dec.rho) - np.sort(dec.lam, axis=1)).max()
    _check(bad, "criterion 6 trace", tr_err < 1e-10, f"max |tr-1| = {tr_err:.2e}")
    _check(bad, "criterion 6 hermiticity", herm_err < 1e-10,
           f"max deviation {herm_err:.2e}")
    _check(bad, "criterion 6 unitarity (spectrum preserved)", spec_err < 1e-9,
           f"max eigenvalue shift {spec_err:.2e}")

    inv_ok = all(
        np.array_equal(quantum.partial_transpose(
            quantum.partial_transpose(dec.rho, f), f), dec.rho)
        for f in quantum.forms_for(6))
    _check(bad, "criterion 6 involution", inv_ok, "PT(PT(rho)) == rho on 1e4 samples")

    rho = dec.rho[~dec.degenerate]
    ppt_neg_ok = all(
        np.array_equal(is_ppt(rho, f), quantum.negativity(rho, f) == 0.0)
        for f in quantum.forms_for(6))
    _check(bad, "criterion 6 PPT iff zero negativity", ppt_neg_ok, "1e4 samples")

    qubit = quantum.FactorSplit("t0", (2, 3), 0)
    a = np.linalg.eigvalsh(quantum.partial_transpose(rho[:200], qubit))
    b = np.linalg.eigvalsh(quantum.partial_transpose(rho[:200], quantum.forms_for(6)[0]))
    _check(bad, "criterion 6 PT spectrum identity", np.abs(a - b).max() < 1e-9,
           f"complementary transposes, max gap {np.abs(a - b).max():.2e}")

    jac_pts = np.random.default_rng(1).uniform(0.1, 0.9, size=(10, 35))
    jac_dec = param.decode_batch(jac_pts, 6)
    jac = jac_dec.w_D / np.exp(eig_density_log(jac_dec.lam))
    jac_err = np.abs(decode_simplex_jacobian(jac_pts, 6) / jac - 1).max()
    _check(bad, "criterion 6 jacobian", jac_err < 1e-5,
           f"decode's w_D against finite differences, max relative gap {jac_err:.2e}")

    rows = {}
    for workers in (1, 2, 8):
        cfg = estimator.RunConfig(4, 16384, 16384, seed=21, workers=workers)
        rows[workers] = estimator.run(cfg)[0][0]
    _check(bad, "criterion 6 worker bit-identity", rows[1] == rows[2] == rows[8],
           "1/2/8 workers, identical rows")

    big = qmc.points(qmc.ScrambleSpec(estimator.DEFAULT_SEED), 35, 0, 100_000)
    n = big.shape[0]
    grid = (np.arange(n) + 1) / n
    sup = 0.0
    for j in range(35):
        x = np.sort(big[:, j])
        sup = max(sup, np.abs(x - grid).max(), np.abs(x - grid + 1 / n).max())
    _check(bad, "criterion 6 marginal uniformity", sup < 0.01,
           f"sup-norm {sup:.5f} over 35 coordinates at 1e5 points")

    assert not bad, "\n".join(bad)


def test_criterion_7_isoperimetric_and_true_inequalities():
    rep = analysis.levy_gromov_check(35, 1.77407e-6, 0.0013566 * 1.77407e-6,
                                     1.094257e-6)
    bad = []
    _check(bad, "criterion 7 w", abs(rep.w / 0.05734 - 1) < 0.02,
           f"{rep.w:.6f} within 2% of .05734")
    _check(bad, "criterion 7 comparison holds", rep.holds,
           f"boundary ratio {rep.boundary_ratio:.4f} > w {rep.w:.6f}")
    _check(bad, "criterion 7 labos(5#, 4)", analysis.labos_check(5, 4) is True,
           "sigma_4(5#) > phi(5#)^5")
    _check(bad, "criterion 7 labos(14#, 19)", analysis.labos_check(14, 19) is True,
           "sigma_19(14#) > phi(14#)^20")
    assert not bad, "\n".join(bad)


def test_criterion_7_labos_14_primorial_k18():
    """labos(14#, k) turns from false to true at k = 18.

    14# is squarefree, so sigma_k(14#) = prod(1 + p^k) and
    phi(14#)^(k+1) = prod (p - 1)^(k+1) over the first 14 primes.  Those
    exact integer products give the ratio 0.14374 at k = 17 (false) and
    1.01425 at k = 18 (true); the expected booleans below come from them,
    not from analysis.  The criterion was first written as "false at 18",
    which exact arithmetic refutes; PAPER.md holds only the abstract, so
    where that expectation came from cannot be traced.
    """
    ps = trial_division_primes(14)
    l = exactform.primorial(14)
    bad = []
    _check(bad, "criterion 7 14#", math.prod(ps) == l,
           f"primorial(14) = {l} is the product of {ps[0]}..{ps[-1]}")
    for k, threshold_side in ((17, False), (18, True)):
        want = math.prod(1 + p**k for p in ps) > math.prod((p - 1) ** (k + 1) for p in ps)
        got = analysis.labos_check(14, k)
        _check(bad, f"criterion 7 labos(14#, {k})", got is want and want is threshold_side,
               f"expected {threshold_side}, closed-form product gives {want}, "
               f"labos_check gives {got}")
    assert not bad, "\n".join(bad)


def test_criterion_7_primorial_limit_term_near_e():
    """exp(theta(p_l)/p_l) at l = 1000 lies in its proven band below e.

    primorial_limit_term promises only that the term approaches e as l grows.
    The gap closes like 1/log: 0.539, 0.171, 0.036 and 0.0087 at l = 10, 100,
    1000 and 1e4, so the criterion as first written ("within .01 of e at
    l = 1000") was false.  Asserted instead, at p_1000 = 7919:

    - theta(x) < x (Rosser & Schoenfeld 1962 verify it for all x up to 1e8),
      so the term is below e;
    - theta(x) > x (1 - 1/(2 ln x)) for x >= 563 (Rosser & Schoenfeld 1962),
      so the term is above exp(1 - 1/(2 ln 7919)) = 2.57102;
    - |term - e| strictly shrinks over l = 10, 100, 1000;
    - the term equals exp(theta(p)/p) summed over primes found here by trial
      division, to 1e-12 relative.
    """
    ps = trial_division_primes(1000)
    p = ps[-1]
    got = analysis.primorial_limit_term(1000)
    lower = math.exp(1 - 1 / (2 * math.log(p)))
    oracle = math.exp(math.fsum(math.log(q) for q in ps) / p)
    gaps = [math.e - analysis.primorial_limit_term(l) for l in (10, 100, 1000)]
    bad = []
    _check(bad, "criterion 7 limit term oracle", abs(got / oracle - 1) < 1e-12,
           f"{got:.12f} vs exp(theta({p})/{p}) = {oracle:.12f}")
    _check(bad, "criterion 7 limit term band", lower < got < math.e,
           f"{lower:.6f} < {got:.6f} < e = {math.e:.6f}")
    _check(bad, "criterion 7 limit term approaches e", gaps[0] > gaps[1] > gaps[2] > 0,
           "e - term at l = 10, 100, 1000: " + ", ".join(f"{g:.4f}" for g in gaps))
    assert not bad, "\n".join(bad)
