"""Isoperimetric comparison and the number-theoretic side checks."""

import math

import numpy as np
import pytest

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
    assert analysis.totient(1) == 1
    assert analysis.totient(10) == 4
    assert analysis.totient(97) == 96
    assert analysis.totient(2310) == 480


def test_totient_multiplicative():
    rng = np.random.default_rng(0)
    done = 0
    while done < 20:
        a, b = int(rng.integers(2, 500)), int(rng.integers(2, 500))
        if math.gcd(a, b) == 1:
            assert analysis.totient(a * b) == analysis.totient(a) * analysis.totient(b)
            done += 1


def test_divisor_power_sum():
    assert analysis.divisor_power_sum(6, 1) == 12
    assert analysis.divisor_power_sum(12, 0) == 6
    assert analysis.divisor_power_sum(4, 2) == 1 + 4 + 16
    assert analysis.divisor_power_sum(7, 3) == 1 + 343


def test_divisor_power_sum_rejects_exponent_over_bit_budget():
    """k * bit_length(n) above SIGMA_BITS raises before any power is taken."""
    k = analysis.SIGMA_BITS // 2 + 1  # 2 has bit length 2
    for fn in (analysis.divisor_power_sum, analysis.labos_check):
        with pytest.raises(ValueError, match=f"k={k}"):
            fn(2, k)
    assert analysis.labos_check(2, 65537)  # 2 * 65537 bits stays allowed


def test_divisor_power_sum_multiplicative():
    for k in (0, 1, 2):
        assert analysis.divisor_power_sum(8 * 9, k) == \
            analysis.divisor_power_sum(8, k) * analysis.divisor_power_sum(9, k)


def test_labos_check_small():
    assert analysis.labos_check(2310, 4) is True
    assert analysis.labos_check(2310, 3) is False


def test_labos_check_14th_primorial():
    """sigma_k(14#) first beats phi(14#)^(k+1) at k = 18 (by 1.4%), and the
    inequality stays true for every larger k."""
    l = primorial(14)
    flips = [analysis.labos_check(l, k) for k in range(15, 26)]
    assert flips == [False, False, False] + [True] * 8


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


@pytest.mark.parametrize("n", [primorial(3000), 2**10 * 3**5 * 999983, 999983 * 1000003, 12, 1],
                         ids=["3000#", "2^10*3^5*999983", "999983*1000003", "12", "1"])
def test_factorize_and_totient_match_trial_division(n):
    """The blockwise gcd factorization and the product-tree totient agree with plain trial division."""
    oracle = _trial_division(n)
    assert factorize(n) == oracle
    phi = n
    for p in oracle:
        phi = phi // p * (p - 1)
    assert analysis.totient(n) == phi
