"""Exact constants of the form (rational) * pi^k.

All closed-form volumes and probabilities are kept as an exact Fraction times
an integer power of pi; the denominator is factored only for display, and the
value is converted to floating point only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import param, quantum


class UnsupportedDimensionError(ValueError):
    """Dimension outside the set this formula is defined for."""


_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def first_primes(n: int) -> list[int]:
    """The first n primes, smallest first."""
    while len(_primes) < n:
        c = _primes[-1] + 2
        while any(c % p == 0 for p in _primes if p * p <= c):
            c += 2
        _primes.append(c)
    return _primes[:n]


def primorial(l: int) -> int:
    """Product of the first l primes."""
    if l < 0:
        raise ValueError("primorial index must be nonnegative")
    return math.prod(first_primes(l))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    i = 0
    while n > 1:
        p = first_primes(i + 1)[i]
        if p * p > n:
            out[n] = out.get(n, 0) + 1
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        i += 1
    return out


@dataclass(frozen=True)
class ExactValue:
    """coefficient * pi^pi_power, with an exact rational coefficient."""

    coefficient: Fraction
    pi_power: int

    def to_real(self) -> float:
        return float(self.coefficient) * math.pi**self.pi_power

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self.coefficient * other.coefficient, self.pi_power + other.pi_power)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self.coefficient / other.coefficient, self.pi_power - other.pi_power)

    def plain_form(self) -> str:
        """Exact form over a plain-integer denominator, e.g. 'pi^8 / 1680'."""
        den = self.coefficient.denominator
        return self._form([str(den)] if den != 1 else [])

    def factored_form(self) -> str:
        """Exact form over a prime-factored denominator, e.g. 'pi^15 / (2^18 * 3^3 * 5)'."""
        return self._form([f"{p}^{e}" if e > 1 else str(p)
                           for p, e in sorted(factorize(self.coefficient.denominator).items())])

    def _form(self, den_parts: list[str]) -> str:
        num, k = abs(self.coefficient.numerator), self.pi_power
        num_parts = [str(num)] if num != 1 else []
        if k > 0:
            num_parts.append("pi" if k == 1 else f"pi^{k}")
        if k < 0:
            den_parts.append("pi" if k == -1 else f"pi^{-k}")
        s = " * ".join(num_parts) or "1"
        if den_parts:
            d = " * ".join(den_parts)
            s = f"{s} / ({d})" if len(den_parts) > 1 else f"{s} / {d}"
        return ("-" if self.coefficient < 0 else "") + s


def conjectured_separable_volume(m: int) -> ExactValue:
    """pi^k / (primorial of k-1) with k = m(m-1)/2."""
    if m < 2:
        raise UnsupportedDimensionError(f"m={m}: need m >= 2")
    k = m * (m - 1) // 2
    return ExactValue(Fraction(1, primorial(k - 1)), k)


def diagonal_volume(n: int) -> ExactValue:
    """pi^(n/2) * prod_{i=1}^{n+1} Gamma(i) / Gamma(n^2 / 2), exactly.

    For odd n the half-integer Gamma is expanded via
    Gamma(K + 1/2) = (2K)! sqrt(pi) / (4^K K!) so the result stays rational * pi^int.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"n={n}: need n >= 2")
    c = Fraction(math.prod(math.factorial(i) for i in range(n + 1)))
    if n % 2 == 0:
        return ExactValue(c / math.factorial(n * n // 2 - 1), n // 2)
    # Gamma(K+1/2) with K=(n^2-1)/2; its sqrt(pi) cancels half of pi^(n/2)
    K = (n * n - 1) // 2
    return ExactValue(c * 4**K * math.factorial(K) / math.factorial(2 * K), (n - 1) // 2)


def truncated_haar_volume(m: int) -> ExactValue:
    """Volume of the truncated Euler-angle box of SU(m): per pair, phase range times integral."""
    if m not in quantum.DIMENSIONS:
        raise UnsupportedDimensionError(
            f"m={m}: truncated Haar volume known for {sorted(quantum.DIMENSIONS)}")
    pairs = param.euler_pairs(m)
    return ExactValue(math.prod(p.phase * p.integral for p in pairs), len(pairs))


def total_volume(m: int) -> ExactValue:
    """V_m = H_m * D_m, the full-state-space volume."""
    return truncated_haar_volume(m) * diagonal_volume(m)


def conjectured_probability(m: int) -> ExactValue:
    """Conjectured separable-volume fraction, supported for m in {4, 6}."""
    if m not in (4, 6):
        raise UnsupportedDimensionError(f"m={m}: conjectured probability known for [4, 6]")
    return conjectured_separable_volume(m) / total_volume(m)


def total_boundary_area(m: int) -> ExactValue:
    """Closed-form total boundary area; known exactly only for m=4."""
    if m != 4:
        raise UnsupportedDimensionError(f"m={m}: exact boundary area known for m=4 only")
    return ExactValue(Fraction(2 * 71, 3**3 * 5 * 7 * 13), 7)
