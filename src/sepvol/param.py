"""Decode unit-cube points into density matrices carrying SD volume-element weights.

Coordinate assignment (frozen convention): hypercube coordinates 0..m-2 map
affinely onto the m-1 simplex angles; coordinates m-1..m^2-2 map onto the
m(m-1) Euler angles.  The first m(m-1)/2 of them are the rotation angles,
assigned to coupling pairs in decreasing coupling width j so the heaviest
angle densities ride the lowest prime bases; the phases follow in layout
order.  Simplex angles range over [0, pi/2]; euler_pairs gives each pair's
phase range and rotation density.

The SU(m) factorization walks coupling pairs (k, j), k = m..2, j = 2..k: each
pair applies a two-column phase followed by a Givens-type rotation mixing the
pivot column into column m-j.  The rotation-angle density below makes the
weighted ensemble unitarily invariant; its box integral is the truncated Haar
volume, which is the binding correctness check.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEGENERATE_EPS = 1e-14
SLICE = 4096  # rows decoded at a time; rows do not depend on it
_TINY = 1e-300  # keeps log() finite at coordinate-box corners


def euler_layout(m: int) -> list[tuple[int, int]]:
    """Coupling pairs (k, j): blocks k = m..2 descending, j = 2..k within a block."""
    return [(k, j) for k in range(m, 1, -1) for j in range(2, k + 1)]


# One coupling pair's share of the Haar measure on the Euler-angle box.  phase is
# the phase range in units of pi.  The rotation angle x in [0, pi/2] has density
# scale * sin^a x * cos^b x: sin 2x when j == 2, else 1/2 sin^(2j-3) x cos x when
# j == k and 1/2 sin x cos^(2j-3) x otherwise.  integral is its exact integral.
EulerPair = namedtuple("EulerPair", "k j phase a b scale integral")


def euler_pairs(m: int) -> tuple[EulerPair, ...]:
    """The Haar convention of each coupling pair, in euler_layout order."""
    out = []
    for k, j in euler_layout(m):
        phase, scale = (1, Fraction(2)) if j == 2 else (2, Fraction(1, 2))
        a, b = (2 * j - 3, 1) if j == k else (1, 2 * j - 3)
        # one exponent is 1, so the integral of sin^a cos^b over [0, pi/2] is 1/(a + b)
        out.append(EulerPair(k, j, phase, a, b, scale, scale / (a + b)))
    return tuple(out)


_Plan = namedtuple("_Plan", "layout cols phase_range sin_pow cos_pow log_const pairs")


@functools.cache
def _plan(m: int) -> _Plan:
    """Index arrays and constants of the decode at one m, built once per m from euler_pairs.

    cols: the point column of each pair's rotation, then of its phase.  sin_pow
    and cos_pow are (P, 1) columns of the rotation densities' exponents;
    log_const is the log of the box volume times every pair's scale.
    """
    table = euler_pairs(m)
    P = len(table)
    phase, sin_pow, cos_pow, scale = np.array(
        [(p.phase, p.a, p.b, p.scale) for p in table], dtype=float).T[:, :, None]
    rot_slot = np.argsort(np.argsort([-p.j for p in table], kind="stable"))
    return _Plan(
        layout=[(p.k, p.j) for p in table],
        cols=m - 1 + np.concatenate([rot_slot, P + np.arange(P)]),
        phase_range=np.pi * phase, sin_pow=sin_pow, cos_pow=cos_pow,
        log_const=float(np.log(np.pi * phase * (np.pi / 2) * scale).sum()),
        pairs=np.triu_indices(m, 1))


def _simplex_decode(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # nested squared-cosine map; returns eigenvalues and log |d(lambda)/d(theta)|
    B, n = theta.shape
    m = n + 1
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    prefix = np.cumprod(s2, axis=1)
    lam = np.empty((B, m))
    lam[:, 0] = c2[:, 0]
    if m > 2:
        lam[:, 1:-1] = c2[:, 1:] * prefix[:, :-1]
    lam[:, -1] = prefix[:, -1]
    with np.errstate(divide="ignore"):
        logj = np.log(np.abs(np.sin(2 * theta)) + _TINY).sum(axis=1)
        expo = 2 * (m - 1 - np.arange(1, m - 1))
        logj += (expo * np.log(np.sin(theta[:, : m - 2]) + _TINY)).sum(axis=1)
    return lam, logj


def _eig_density_log(lam: np.ndarray) -> np.ndarray:
    # log of prod_{i<j} 4(l_i - l_j)^2 / (l_i + l_j) / sqrt(prod l), summed per row
    i, j = _plan(lam.shape[1]).pairs
    li, lj = np.take(lam, i, axis=1), np.take(lam, j, axis=1)  # (B, pairs), C order
    with np.errstate(divide="ignore"):
        terms = np.log(4 * (li - lj) ** 2 + _TINY) - np.log(li + lj)
    return terms.sum(axis=1) - 0.5 * np.log(np.maximum(lam, _TINY)).sum(axis=1)


def _unitary_batch(a: np.ndarray, cos_b: np.ndarray, sin_b: np.ndarray, m: int,
                   layout: list[tuple[int, int]]) -> np.ndarray:
    """(m, m, B) unitaries from (P, B) phases and rotation cos, sin; W[c] is column c."""
    ph = np.exp(1j * a)
    W = np.zeros((m, m, a.shape[1]), dtype=np.complex128)
    W[np.arange(m), np.arange(m)] = 1.0
    for (_, j), e, c, s in zip(layout, ph, cos_b, sin_b):
        W[m - 1] *= e
        W[m - 2] *= e.conj()
        piv = c * W[m - 1] - s * W[m - j]
        W[m - j] = s * W[m - 1] + c * W[m - j]
        W[m - 1] = piv
    return W


@dataclass
class DecodedBatch:
    """Vectorized decode results; row i belongs to input point i."""

    rho: np.ndarray         # (B, m, m) complex
    lam: np.ndarray         # (B, m)
    w_D: np.ndarray         # (B,) simplex weight incl. box volume
    w_H: np.ndarray         # (B,) Haar weight incl. box volume
    w: np.ndarray           # (B,) full SD weight, zero on degenerate rows
    degenerate: np.ndarray  # (B,) bool


def decode_batch(pts: np.ndarray, m: int) -> DecodedBatch:
    """Decode unit-cube points (B, m^2-1) into weighted density matrices.

    The outputs are allocated once and filled SLICE rows at a time, so every
    temporary is bounded by one slice whatever B is.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != m * m - 1:
        raise ValueError(f"expected (B, {m * m - 1}) points for m={m}")
    B = pts.shape[0]
    out = DecodedBatch(np.empty((B, m, m), dtype=np.complex128), np.empty((B, m)),
                       np.empty(B), np.empty(B), np.empty(B), np.empty(B, dtype=bool))
    for s in range(0, B, SLICE):
        rows = slice(s, s + SLICE)
        _decode_rows(pts[rows], m, out, rows)
    np.multiply(out.w_D, out.w_H, out=out.w)
    return out


def _decode_rows(pts: np.ndarray, m: int, out: DecodedBatch, rows: slice) -> None:
    # one slice of decode_batch: fills those rows of every field of out but w
    plan = _plan(m)
    theta = pts[:, : m - 1] * (np.pi / 2)
    lam, logj = _simplex_decode(theta)
    log_wD = _eig_density_log(lam) + logj + (m - 1) * np.log(np.pi / 2)
    rot, phase = np.split(pts.T[plan.cols], 2)  # (P, rows) each, pairs in layout order
    b = rot * (np.pi / 2)
    cos_b, sin_b = np.cos(b), np.sin(b)
    a = phase * plan.phase_range
    del rot, phase, b  # free first: the unitary build and the einsum set peak memory
    # summed per row over a contiguous (rows, P) copy, so a row's bits do not depend on B
    log_wH = plan.log_const + np.ascontiguousarray(
        (plan.sin_pow * np.log(sin_b + _TINY) + plan.cos_pow * np.log(cos_b + _TINY)).T).sum(axis=1)
    W = _unitary_batch(a, cos_b, sin_b, m, plan.layout)
    del a, cos_b, sin_b
    U = np.ascontiguousarray(W.transpose(2, 1, 0))
    del W
    np.einsum("bij,bj,bkj->bik", U, lam.astype(np.complex128), np.conj(U), out=out.rho[rows])
    degenerate = (lam < DEGENERATE_EPS).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    out.lam[rows], out.w_D[rows], out.w_H[rows], out.degenerate[rows] = lam, w_D, w_H, degenerate
