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
SLICE = 1024  # rows decoded at a time; rows do not depend on it
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


_Plan = namedtuple("_Plan", "layout cols wide log_pow log_rows_D log_const_D log_const_H pairs")


@functools.cache
def _plan(m: int) -> _Plan:
    """Index arrays and constants of the decode at one m, built once per m from euler_pairs.

    cols: the point column of each simplex angle, then of each pair's rotation,
    then of its phase.  wide is a (P, 1) column, true on the pairs whose phase
    range is 2 pi.  log_pow is the (K, 1) column of exponents of the K log
    factors _decode_rows stacks; the first log_rows_D of them make w_D, the
    rest w_H.  The log constants hold the box volume and every pair's scale.
    """
    table = euler_pairs(m)
    n, P = m - 1, len(table)
    phase, sin_pow, cos_pow, scale = np.array(
        [(p.phase, p.a, p.b, p.scale) for p in table], dtype=float).T
    rot_slot = np.argsort(np.argsort([-p.j for p in table], kind="stable"))
    # simplex: sin 2t = 2 sin t cos t, times sin^(2(m-2-i)) of angle i, then the
    # eigenvalue density's pair factors 4 (l_i - l_j)^2 / (l_i + l_j) and 1/sqrt(prod l)
    simplex_sin_pow = 2 * (m - 2 - np.arange(n)) + 1
    log_pow = np.concatenate([simplex_sin_pow, np.ones(n), np.ones(P), -np.ones(P),
                              np.full(m, -0.5), sin_pow, cos_pow])
    return _Plan(
        layout=[(p.k, p.j) for p in table],
        cols=np.concatenate([np.arange(n), n + rot_slot, n + P + np.arange(P)]),
        wide=(phase == 2)[:, None], log_pow=log_pow[:, None], log_rows_D=2 * n + 2 * P + m,
        log_const_D=n * float(np.log(np.pi)),  # the 2 of each sin 2t, and (pi/2) per angle
        log_const_H=float(np.log(np.pi * phase * (np.pi / 2) * scale).sum()),
        pairs=np.triu_indices(m, 1))


def _sin_cos(v: np.ndarray) -> np.ndarray:
    """sin and cos of v * pi/2 for v in [0, 1], stacked on a new first axis.

    Both come from one np.tan call on quarter angles: with t = tan(x/2),
    sin x = 2t / (1 + t^2).  The cosine is the sine of the complementary angle
    (1 - v) pi/2, so neither loses relative accuracy near its zero, and cos is
    exactly 0 at v = 1.  numpy runs tan as vector code but sin, cos and the
    complex exp as scalar code, several times slower.
    """
    t = np.empty((2,) + v.shape)
    np.multiply(v, np.pi / 4, out=t[0])
    np.subtract(1, v, out=t[1])
    t[1] *= np.pi / 4
    np.tan(t, out=t)
    den = t * t
    den += 1
    t *= 2
    t /= den
    return t


def _simplex_lam(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(m, B) eigenvalues of the nested squared-cosine map from its angles' (m-1, B) sines and cosines.

    lam_0 = c_0^2, lam_i = c_i^2 s_0^2 .. s_(i-1)^2 and lam_(m-1) = s_0^2 .. s_(m-2)^2.
    """
    s2, c2 = s * s, c * c
    prefix = np.cumprod(s2, axis=0)
    lam = np.empty((len(s) + 1, s.shape[1]))
    lam[0] = c2[0]
    np.multiply(c2[1:], prefix[:-1], out=lam[1:-1])
    lam[-1] = prefix[-1]
    return lam


def _unitary_batch(ph: np.ndarray, cos_b: np.ndarray, sin_b: np.ndarray, m: int,
                   layout: list[tuple[int, int]]) -> np.ndarray:
    """(m, m, B) unitaries from (P, B) unit phases and rotation cos, sin; W[c] is column c."""
    W = np.zeros((m, m, ph.shape[1]), dtype=np.complex128)
    W[np.arange(m), np.arange(m)] = 1.0
    col = list(W)  # the new pivot column is rebound, not copied back
    for (_, j), e, c, s in zip(layout, ph, cos_b, sin_b):
        col[m - 1] *= e
        col[m - 2] *= e.conj()
        piv = c * col[m - 1]
        piv -= s * col[m - j]
        col[m - j] *= c
        col[m - j] += s * col[m - 1]
        col[m - 1] = piv
    return np.stack(col, out=W)


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
    n, P = m - 1, len(plan.layout)
    sc = _sin_cos(pts.T[plan.cols])  # (2, d, rows): sin and cos, columns in plan order
    lam = _simplex_lam(sc[0, :n], sc[1, :n])
    li, lj = lam[plan.pairs[0]], lam[plan.pairs[1]]
    gap2 = np.square(li - lj)
    gap2 *= 4
    li += lj
    # every log factor of both weights, in log_pow's order; _TINY keeps them finite at the box's edges
    logs = np.concatenate((sc[0, :n], sc[1, :n], gap2, li, lam, sc[0, n:n + P], sc[1, n:n + P]))
    del li, lj, gap2
    logs += _TINY
    np.log(logs, out=logs)
    logs *= plan.log_pow
    logs = logs.T.copy()  # summed per row over a C-order (rows, K) copy, so a row's bits do not depend on B
    log_wD = logs[:, :plan.log_rows_D].sum(axis=1) + plan.log_const_D
    log_wH = logs[:, plan.log_rows_D:].sum(axis=1) + plan.log_const_H
    del logs
    ph = sc[1, n + P:] + 1j * sc[0, n + P:]  # e^(i v pi/2) of each phase coordinate v
    ph *= ph  # e^(i v pi): the phase range pi
    np.multiply(ph, ph, out=ph, where=plan.wide)  # e^(2 i v pi) on the 2 pi ranges
    W = _unitary_batch(ph, sc[1, n:n + P], sc[0, n:n + P], m, plan.layout)
    del sc, ph  # free first: the unitaries and rho set peak memory
    U = np.ascontiguousarray(W.transpose(2, 1, 0))
    del W
    Ulam = U * lam.T[:, None, :]
    np.conj(U, out=U)
    np.matmul(Ulam, U.transpose(0, 2, 1), out=out.rho[rows])  # rho = (U lam) U^H
    del U, Ulam
    degenerate = (lam < DEGENERATE_EPS).any(axis=0)
    with np.errstate(over="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    out.lam[rows], out.w_D[rows], out.w_H[rows], out.degenerate[rows] = lam.T, w_D, w_H, degenerate
