"""Exact constants of the form (rational) * pi^k.

All closed-form volumes and probabilities are kept as an exact Fraction times
an integer power of pi; the denominator is factored only for display, and the
value is converted to floating point only on demand.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from . import param, quantum


# The sieve for n primes takes about n(ln n + ln ln n) bytes, and factorize sieves
# its divisors up to TRIAL_DIVISOR_MAX; these caps keep a sieve to about 1 s at most on 2 cores
PRIME_COUNT_MAX = 1 << 19
TRIAL_DIVISOR_MAX = 1 << 22


class UnsupportedDimensionError(ValueError):
    """Dimension outside the set this formula is defined for."""


def _primes_below(limit: int) -> list[int]:
    """The primes under limit, by a sieve of limit bytes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return list(itertools.compress(range(limit), sieve))


def first_primes(n: int) -> list[int]:
    """The first n primes, smallest first: a sieve up to Rosser's bound p_n < n(ln n + ln ln n)."""
    if not 0 <= n <= PRIME_COUNT_MAX:
        raise ValueError(f"need a count of primes from 0 to {PRIME_COUNT_MAX}, got {n}")
    limit = 12 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    return _primes_below(limit)[:n]


def product(factors: list[int]) -> int:
    """Product of integers by a balanced tree, so that big operands meet only near the root."""
    if len(factors) <= 8:
        return math.prod(factors)
    half = len(factors) // 2
    return product(factors[:half]) * product(factors[half:])


def primorial(l: int) -> int:
    """Product of the first l primes."""
    return product(first_primes(l))


_GCD_BLOCK = 256  # sieved primes tested by one gcd in factorize


def _prime_blocks(limit: int) -> Iterator[list[int]]:
    """The primes up to limit, smallest first, _GCD_BLOCK at a time.

    The sieve grows 16-fold at a time, so a caller that stops early has sieved
    little past the last prime it read.
    """
    seen, bound = 0, 1 << 12
    while True:
        primes = _primes_below(min(bound, limit + 1))
        for s in range(seen, len(primes), _GCD_BLOCK):
            yield primes[s:s + _GCD_BLOCK]
        if bound > limit:
            return
        seen, bound = len(primes), bound * 16


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by the primes up to sqrt(n), a block of them per gcd.

    Divisors stop at TRIAL_DIVISOR_MAX; a cofactor left above its square raises ValueError.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for block in _prime_blocks(min(TRIAL_DIVISOR_MAX, math.isqrt(n))):
        if block[0] * block[0] > n:
            break
        g = math.gcd(n, product(block))
        while g > 1:  # g is the product of the block's primes that still divide n
            n //= g
            for p in block:
                if g % p == 0:
                    out[p] = out.get(p, 0) + 1
            g = math.gcd(n, g)
    if n > TRIAL_DIVISOR_MAX**2:
        raise ValueError(f"a {n.bit_length()}-bit cofactor has no divisor up to the "
                         f"trial-division cap {TRIAL_DIVISOR_MAX}")
    if n > 1:
        out[n] = 1
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
    """Conjectured separable-volume fraction, for the m where every form decides separability."""
    if m not in quantum.DIMENSIONS or not all(f.decides_separability for f in quantum.forms_for(m)):
        raise UnsupportedDimensionError(f"m={m}: PPT does not decide separability in every form")
    return conjectured_separable_volume(m) / total_volume(m)


def total_boundary_area(m: int) -> ExactValue:
    """Closed-form total boundary area; known exactly only for m=4."""
    if m != 4:
        raise UnsupportedDimensionError(f"m={m}: exact boundary area known for m=4 only")
    return ExactValue(Fraction(2 * 71, 3**3 * 5 * 7 * 13), 7)
