"""Decode unit-cube points into density matrices carrying SD volume-element weights.

Coordinate assignment (frozen convention): hypercube coordinates 0..m-2 map
affinely onto the m-1 simplex angles; coordinates m-1..m^2-2 map onto the
m(m-1) Euler angles.  The first m(m-1)/2 of them are the rotation angles,
assigned to coupling pairs in decreasing coupling width j so the heaviest
angle densities ride the lowest prime bases; the phases follow in layout
order.  Native ranges: simplex and rotation angles
[0, pi/2], phase angles [0, pi] for the first pair of a block and [0, 2*pi]
otherwise.

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

import numpy as np

DEGENERATE_EPS = 1e-14
_TINY = 1e-300  # keeps log() finite at coordinate-box corners


def euler_layout(m: int) -> list[tuple[int, int]]:
    """Coupling pairs (k, j): blocks k = m..2 descending, j = 2..k within a block."""
    return [(k, j) for k in range(m, 1, -1) for j in range(2, k + 1)]


def euler_phase_ranges(m: int) -> np.ndarray:
    """Native phase range per pair: pi when j == 2, else 2*pi."""
    return np.array([np.pi if j == 2 else 2 * np.pi for _, j in euler_layout(m)])


def euler_box_volume(m: int) -> float:
    P = m * (m - 1) // 2
    wide = P - (m - 1)
    return np.pi ** (m - 1) * (2 * np.pi) ** wide * (np.pi / 2) ** P


_Plan = namedtuple("_Plan", "layout cols phase_range narrow wide first second expo log_box pairs")


@functools.cache
def _plan(m: int) -> _Plan:
    """Index arrays and constants of the decode at one m, built once per m.

    cols: the point column of each pair's rotation, then of its phase.  Rotation
    log density: log sin 2x on narrow pairs (j == 2); logs[first] + expo *
    logs[second] on wide ones, logs stacking log sin over log cos by pair.
    """
    lay = euler_layout(m)
    P = len(lay)
    ks, js = np.array(lay).T
    wide = np.flatnonzero(js > 2)
    rot_slot = np.argsort(np.argsort(-js, kind="stable"))  # see split_euler_coords
    return _Plan(
        layout=lay, cols=m - 1 + np.concatenate([rot_slot, P + np.arange(P)]),
        phase_range=euler_phase_ranges(m)[:, None], narrow=np.flatnonzero(js == 2), wide=wide,
        first=wide + P * (ks == js)[wide], second=wide + P * (ks != js)[wide],
        expo=(2.0 * js[wide] - 3)[:, None], log_box=np.log(euler_box_volume(m)),
        pairs=np.triu_indices(m, 1))


def split_euler_coords(m: int, eu: np.ndarray):
    """Map the m(m-1) Euler-slice unit coords to per-pair (phase, rotation) columns.

    The first P coords are rotations, assigned to pairs in decreasing j
    (heaviest densities take the lowest prime bases), then phases in layout
    order.
    """
    P = m * (m - 1) // 2
    return eu[:, P:], eu[:, _plan(m).cols[:P] - (m - 1)]


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
    # log of prod_{i<j} 4(l_i - l_j)^2 / (l_i + l_j) / sqrt(prod l), added pair by pair
    i, j = _plan(lam.shape[1]).pairs  # i < j, row by row
    out = -0.5 * np.log(np.maximum(lam, _TINY)).sum(axis=1)
    with np.errstate(divide="ignore"):
        gaps = np.log(4 * (lam.T[i] - lam.T[j]) ** 2 + _TINY)
        sums = np.log(lam.T[i] + lam.T[j])
    for g, s in zip(gaps, sums):
        out += g
        out -= s
    return out


def _haar_log_density(b: np.ndarray, cos_b: np.ndarray, sin_b: np.ndarray, plan) -> np.ndarray:
    # (P, B) rotation angles -> log density, added pair by pair in layout
    # order; each wide-phase pair contributes a further 1/2
    logs = np.log(np.concatenate([sin_b, cos_b]) + _TINY)
    term = np.empty_like(b)
    term[plan.narrow] = np.log(np.sin(2 * b[plan.narrow]) + _TINY)
    term[plan.wide] = logs[plan.first] + plan.expo * logs[plan.second]
    lw = np.zeros(b.shape[1])
    for t in term:
        lw += t
    return lw - len(plan.wide) * np.log(2.0)


def _unitary_batch(a: np.ndarray, cos_b: np.ndarray, sin_b: np.ndarray, m: int,
                   layout: list[tuple[int, int]]) -> np.ndarray:
    """(m, m, B) unitaries from (P, B) phases and rotation cos, sin; W[c] is column c."""
    ph = np.exp(1j * a)
    W = np.zeros((m, m, a.shape[1]), dtype=np.complex128)
    W[np.arange(m), np.arange(m)] = 1.0
    for (_, j), e, e_conj, c, s in zip(layout, ph, np.conj(ph), cos_b, sin_b):
        W[m - 1] *= e
        W[m - 2] *= e_conj
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
    """Decode unit-cube points (B, m^2-1) into weighted density matrices."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != m * m - 1:
        raise ValueError(f"expected (B, {m * m - 1}) points for m={m}")
    plan = _plan(m)
    theta = pts[:, : m - 1] * (np.pi / 2)
    lam, logj = _simplex_decode(theta)
    log_wD = _eig_density_log(lam) + logj + (m - 1) * np.log(np.pi / 2)
    rot, phase = np.split(pts.T[plan.cols], 2)  # (P, B) each, pairs in layout order
    b = rot * (np.pi / 2)
    cos_b, sin_b = np.cos(b), np.sin(b)
    log_wH = _haar_log_density(b, cos_b, sin_b, plan) + plan.log_box
    W = _unitary_batch(phase * plan.phase_range, cos_b, sin_b, m, plan.layout)
    del rot, phase, b, cos_b, sin_b  # free first: the copy and the einsum set peak memory
    U = np.ascontiguousarray(W.transpose(2, 1, 0))
    del W
    rho = np.einsum("bij,bj,bkj->bik", U, lam.astype(np.complex128), np.conj(U))
    degenerate = (lam < DEGENERATE_EPS).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    return DecodedBatch(rho, lam, w_D, w_H, w_D * w_H, degenerate)
