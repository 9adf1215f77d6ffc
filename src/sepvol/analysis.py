"""Post-run analyses: isoperimetric comparison and number-theoretic observations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactform import first_primes, product

# sigma_k(l#) and phi(l#)^(k+1) take at most about 2 * k * log2(l#) bits;
# capping k * bit_length(l#) keeps a call to about 0.5 s at most on 2 cores
SIGMA_BITS = 1 << 20


@dataclass
class IsoperimetricReport:
    alpha: float           # separable volume fraction
    boundary_ratio: float  # A_sep / V_total
    ball_volume: float     # unit-ball volume in dimension d
    s_alpha: float         # boundary area of the alpha-volume sub-ball
    w: float               # s_alpha / ball_volume
    holds: bool            # boundary_ratio > w


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def sphere_surface_area(d: int) -> float:
    """Surface area of the unit (d-1)-sphere bounding the unit d-ball."""
    return d * unit_ball_volume(d)


def levy_gromov_check(d: int, V_total: float, V_sep: float, A_sep: float) -> IsoperimetricReport:
    """Compare the boundary-to-volume ratio against the sub-ball isoperimetric profile.

    s(alpha) is the boundary area of the concentric sub-ball holding an alpha
    fraction of the unit d-ball's volume: radius r with r^d = alpha.
    """
    if min(V_total, V_sep, A_sep) <= 0:
        raise ValueError("volumes and area must be positive")
    alpha = V_sep / V_total
    if not 0 < alpha < 1:
        raise ValueError(f"volume fraction {alpha} outside (0, 1)")
    ball = unit_ball_volume(d)
    r = alpha ** (1 / d)
    s_alpha = sphere_surface_area(d) * r ** (d - 1)
    w = s_alpha / ball
    ratio = A_sep / V_total
    return IsoperimetricReport(alpha, ratio, ball, s_alpha, w, ratio > w)


def primorial_totient(l: int) -> int:
    """phi(l#) = prod(p - 1) over the first l primes."""
    return product([p - 1 for p in first_primes(l)])


def primorial_sigma(l: int, k: int) -> int:
    """sigma_k(l#) = prod(1 + p^k) over the first l primes; k * bit_length(l#) is capped at SIGMA_BITS."""
    if k < 0:
        raise ValueError("need k >= 0")
    ps = first_primes(l)
    bits = k * product(ps).bit_length() if k else 0  # sigma_0 = 2^l: no need to build l#
    if bits > SIGMA_BITS:
        raise ValueError(f"k={k} too large: its powers of {l}# need about "
                         f"{bits} bits, over the {SIGMA_BITS}-bit budget")
    return product([1 + p**k for p in ps])


def labos_check(l: int, k: int) -> bool:
    """True iff sigma_k(l#) exceeds phi(l#)^(k+1), in exact integer arithmetic."""
    return primorial_sigma(l, k) > primorial_totient(l) ** (k + 1)


def primorial_limit_term(l: int) -> float:
    """(p_l#)^(1/p_l) computed in log space; approaches e as l grows."""
    if l < 1:
        raise ValueError("need l >= 1")
    ps = first_primes(l)
    return math.exp(math.fsum(math.log(p) for p in ps) / ps[-1])
