"""Isoperimetric comparison and the number-theoretic side checks."""

import math

import pytest
from oracles import trial_division_primes

from sepvol import analysis
from sepvol.exactform import factorize, primorial


def test_unit_ball_volume_values():
    assert analysis.unit_ball_volume(1) == pytest.approx(2.0)
    assert analysis.unit_ball_volume(2) == pytest.approx(math.pi)
    assert analysis.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
    with pytest.raises(ValueError):
        analysis.unit_ball_volume(0)


def test_unit_ball_volume_recurrence():
    """V_d = V_{d-2} * 2 pi / d."""
    for d in range(3, 40):
        assert analysis.unit_ball_volume(d) == pytest.approx(
            analysis.unit_ball_volume(d - 2) * 2 * math.pi / d, rel=1e-12)


def test_sphere_surface_area():
    assert analysis.sphere_surface_area(2) == pytest.approx(2 * math.pi)
    assert analysis.sphere_surface_area(3) == pytest.approx(4 * math.pi)


def test_levy_gromov_check_report():
    rep = analysis.levy_gromov_check(35, 1.77407e-6, 2.40672e-9, 1.094257e-6)
    assert rep.alpha == pytest.approx(2.40672e-9 / 1.77407e-6, rel=1e-12)
    assert rep.boundary_ratio == pytest.approx(1.094257e-6 / 1.77407e-6, rel=1e-12)
    assert rep.w == pytest.approx(rep.s_alpha / analysis.unit_ball_volume(35), rel=1e-12)
    assert rep.holds == (rep.boundary_ratio > rep.w)


def test_levy_gromov_limit_alpha_to_one():
    """As the sub-volume fills the whole, w approaches the dimension."""
    rep = analysis.levy_gromov_check(12, 1.0, 1.0 - 1e-12, 1.0)
    assert rep.w == pytest.approx(12.0, rel=1e-9)


def test_levy_gromov_check_validation():
    with pytest.raises(ValueError):
        analysis.levy_gromov_check(35, 1.0, 2.0, 1.0)  # alpha >= 1
    with pytest.raises(ValueError):
        analysis.levy_gromov_check(35, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        analysis.levy_gromov_check(0, 1.0, 0.5, 1.0)


def test_totient():
    assert analysis.primorial_totient(0) == 1
    assert analysis.primorial_totient(1) == 1
    assert analysis.primorial_totient(2) == 2
    assert analysis.primorial_totient(5) == 480


def test_totient_multiplicative():
    """phi(l#) = prod(p - 1) over the first l primes, found here by trial division, for l <= 20."""
    for l in range(21):
        assert analysis.primorial_totient(l) == math.prod(p - 1 for p in trial_division_primes(l))


def test_primorial_sigma():
    assert analysis.primorial_sigma(2, 1) == 12
    assert analysis.primorial_sigma(3, 0) == 8
    assert analysis.primorial_sigma(1, 2) == 1 + 4
    assert analysis.primorial_sigma(0, 3) == 1
    assert analysis.primorial_sigma(4, 3) == (1 + 8) * (1 + 27) * (1 + 125) * (1 + 343)


def test_primorial_sigma_rejects_exponent_over_bit_budget():
    """k * bit_length(l#) above SIGMA_BITS raises before any power is taken."""
    k = analysis.SIGMA_BITS // 2 + 1  # 1# = 2 has bit length 2
    for fn in (analysis.primorial_sigma, analysis.labos_check):
        with pytest.raises(ValueError, match=f"k={k}"):
            fn(1, k)
    assert analysis.labos_check(1, 65537)  # 2 * 65537 bits stays allowed


def test_primorial_sigma_multiplicative():
    """sigma_k(l#) = prod(1 + p^k) over the first l primes, found here by trial division, for l <= 20."""
    for l in range(21):
        ps = trial_division_primes(l)
        for k in (0, 1, 2, 7):
            assert analysis.primorial_sigma(l, k) == math.prod(1 + p**k for p in ps)


def test_labos_check_small():
    assert analysis.labos_check(5, 4) is True
    assert analysis.labos_check(5, 3) is False


def test_labos_check_14th_primorial():
    """sigma_k(14#) first beats phi(14#)^(k+1) at k = 18 (by 1.4%), and the
    inequality stays true for every larger k."""
    flips = [analysis.labos_check(14, k) for k in range(15, 26)]
    assert flips == [False, False, False] + [True] * 8


@pytest.mark.parametrize("l", range(7))
def test_primorial_totient_and_sigma_match_their_definitions(l):
    """phi(l#) counts the residues coprime to l#; sigma_k(l#) sums the k-th powers of its divisors."""
    n = math.prod(trial_division_primes(l))
    assert analysis.primorial_totient(l) == sum(math.gcd(a, n) == 1 for a in range(1, n + 1))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for k in (0, 1, 2, 7):
        assert analysis.primorial_sigma(l, k) == sum(d**k for d in divisors)


def test_primorial_limit_term():
    assert analysis.primorial_limit_term(1) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert analysis.primorial_limit_term(4) == pytest.approx(210 ** (1 / 7), rel=1e-12)
    assert analysis.primorial_limit_term(1000) == pytest.approx(2.6818959758535814, rel=1e-9)
    with pytest.raises(ValueError):
        analysis.primorial_limit_term(0)


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@pytest.mark.parametrize("n, l", [(primorial(3000), 3000), (2**10 * 3**5 * 999983, None),
                                  (999983 * 1000003, None), (12, None), (1, 0)],
                         ids=["3000#", "2^10*3^5*999983", "999983*1000003", "12", "1"])
def test_factorize_and_totient_match_trial_division(n, l):
    """factorize agrees with plain trial division; where n = l#, so does primorial_totient(l)
    with the totient that factorization gives."""
    oracle = _trial_division(n)
    assert factorize(n) == oracle
    if l is not None:
        phi = n
        for p in oracle:
            phi = phi // p * (p - 1)
        assert analysis.primorial_totient(l) == phi
