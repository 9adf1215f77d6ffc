"""Exact factored constants: primes, primorials, closed-form volumes."""

import itertools
import math
from fractions import Fraction

import pytest
from oracles import is_prime

from sepvol import exactform as xf


def test_first_primes():
    assert xf.first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert xf.first_primes(0) == []


def _trial_division_primes(n):
    out, c = [], 2
    while len(out) < n:
        if all(c % p for p in out if p * p <= c):
            out.append(c)
        c += 1
    return out


def test_first_primes_matches_trial_division():
    oracle = _trial_division_primes(2000)
    for n in range(2001):
        assert xf.first_primes(n) == oracle[:n]


def test_first_primes_30000th():
    assert xf.first_primes(30000)[-1] == 350377


def test_first_primes_negative_count_raises():
    with pytest.raises(ValueError):
        xf.first_primes(-1)


def test_first_primes_count_cap():
    """Counts up to PRIME_COUNT_MAX are sieved; one more raises before the sieve is allocated."""
    assert len(xf.first_primes(xf.PRIME_COUNT_MAX)) == xf.PRIME_COUNT_MAX
    with pytest.raises(ValueError, match=str(xf.PRIME_COUNT_MAX)):
        xf.first_primes(xf.PRIME_COUNT_MAX + 1)
    with pytest.raises(ValueError):
        xf.primorial(xf.PRIME_COUNT_MAX + 1)


def test_primorial():
    assert xf.primorial(1) == 2
    assert xf.primorial(4) == 210
    assert xf.primorial(14) == 13082761331670030


def test_primorial_ratio_is_next_prime():
    primes = xf.first_primes(20)
    for l in range(2, 21):
        assert xf.primorial(l) == xf.primorial(l - 1) * primes[l - 1]


def test_factorize_roundtrip():
    for n in (2, 12, 97, 360360, 2**10 * 3**5 * 101, 999999999989, 999983 * 1000003):
        f = xf.factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(e >= 1 for e in f.values())
    assert xf.factorize(999999999989) == {999999999989: 1}
    assert xf.factorize(999983 * 1000003) == {999983: 1, 1000003: 1}


def test_factorize_trial_divisor_cap():
    """A cofactor with no divisor up to TRIAL_DIVISOR_MAX raises once it exceeds the cap squared."""
    cap = xf.TRIAL_DIVISOR_MAX
    q = next(n for n in range(cap, 1, -1) if is_prime(n))  # largest prime within the cap
    assert xf.factorize(q * q) == {q: 2}
    p = next(n for n in itertools.count(cap * cap + 1) if is_prime(n))
    with pytest.raises(ValueError, match=str(cap)):
        xf.factorize(p)
    with pytest.raises(ValueError):
        xf.factorize(6 * p)


def test_exact_value_to_real():
    v = xf.ExactValue(Fraction(8, 11), -2)  # 8 / (11 pi^2)
    assert v.to_real() == pytest.approx(8 / (11 * math.pi**2), rel=1e-15)
    assert v.plain_form() == v.factored_form() == "8 / (11 * pi^2)"


def test_exact_value_mul_div_roundtrip():
    a = xf.ExactValue(Fraction(15, 8), 4)
    b = xf.ExactValue(Fraction(-7, 75), -1)
    assert a * b == xf.ExactValue(Fraction(-7, 40), 3)
    assert (a * b) / b == a
    assert (b / a).factored_form() == "-56 / (3^2 * 5^3 * pi^5)"
    assert (b / a).plain_form() == "-56 / (1125 * pi^5)"


def test_exact_value_reduces_common_factors():
    v = xf.ExactValue(Fraction(6), 0) / xf.ExactValue(Fraction(4), 0)
    assert v.coefficient == Fraction(3, 2)
    assert v.factored_form() == "3 / 2"


def test_factored_form():
    assert xf.truncated_haar_volume(4).factored_form() == "pi^6 / (2^5 * 3)"
    assert xf.conjectured_separable_volume(4).factored_form() == \
        "pi^6 / (2 * 3 * 5 * 7 * 11)"
    assert xf.conjectured_probability(4).factored_form() == "8 / (11 * pi^2)"
    assert xf.ExactValue(Fraction(1), 0).factored_form() == "1"
    assert xf.total_volume(4).factored_form() == "pi^8 / (2^4 * 3 * 5 * 7)"
    assert xf.total_volume(4).plain_form() == "pi^8 / 1680"


def test_conjectured_separable_volume_is_primorial_quotient():
    """pi^k over the product of the first k-1 primes, k = m(m-1)/2."""
    for m in (4, 6):
        k = m * (m - 1) // 2
        v = xf.conjectured_separable_volume(m)
        assert v == xf.ExactValue(Fraction(1, xf.primorial(k - 1)), k)


def _diagonal_float(n):
    num = math.pi ** (n / 2) * math.prod(math.gamma(i) for i in range(1, n + 2))
    return num / math.gamma(n * n / 2)


@pytest.mark.parametrize("n", range(2, 10))
def test_diagonal_volume_matches_float_gamma(n):
    assert xf.diagonal_volume(n).to_real() == pytest.approx(_diagonal_float(n), rel=1e-12)


def test_diagonal_volume_values():
    assert xf.diagonal_volume(2).to_real() == pytest.approx(2 * math.pi, rel=1e-15)
    assert xf.diagonal_volume(4).to_real() == pytest.approx(0.5639773943, rel=1e-9)
    assert xf.diagonal_volume(6).to_real() == pytest.approx(2.169138752e-06, rel=1e-9)


def test_truncated_haar_volume_values():
    assert xf.truncated_haar_volume(4).to_real() == pytest.approx(10.01447077, rel=1e-9)
    assert xf.truncated_haar_volume(6).to_real() == pytest.approx(0.8097937116, rel=1e-9)
    assert xf.truncated_haar_volume(8).to_real() == pytest.approx(3.163951079e-4, rel=1e-9)
    assert xf.truncated_haar_volume(9).to_real() == pytest.approx(5.816989077e-7, rel=1e-9)


def test_total_volume_is_product():
    for m in (4, 6, 8, 9):
        v = xf.total_volume(m)
        p = xf.diagonal_volume(m) * xf.truncated_haar_volume(m)
        assert v.to_real() == pytest.approx(p.to_real(), rel=1e-14)
    assert xf.total_volume(4).to_real() == pytest.approx(5.647935129, rel=1e-9)
    assert xf.total_volume(6).to_real() == pytest.approx(1.756554921e-06, rel=1e-9)


def test_conjectured_probability_is_quotient():
    for m in (4, 6):
        q = xf.conjectured_separable_volume(m) / xf.total_volume(m)
        assert xf.conjectured_probability(m).to_real() == pytest.approx(q.to_real(), rel=1e-14)
    assert xf.conjectured_probability(4).to_real() == pytest.approx(0.0736881335581, rel=1e-11)
    assert xf.conjectured_probability(6).to_real() == pytest.approx(0.00124705882091, rel=1e-11)


def test_total_boundary_area():
    a = xf.total_boundary_area(4)
    assert a.to_real() == pytest.approx(34.911, rel=1e-5)
    assert a.factored_form() == "142 * pi^7 / (3^3 * 5 * 7 * 13)"
    with pytest.raises(xf.UnsupportedDimensionError):
        xf.total_boundary_area(6)


def test_unsupported_dimensions_raise():
    for fn in (xf.truncated_haar_volume, xf.total_volume, xf.conjectured_probability):
        with pytest.raises(xf.UnsupportedDimensionError):
            fn(5)
    with pytest.raises(xf.UnsupportedDimensionError):
        xf.diagonal_volume(1)
    with pytest.raises(xf.UnsupportedDimensionError):
        xf.conjectured_separable_volume(1)
