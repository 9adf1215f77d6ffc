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


def split_euler_coords(m: int, eu: np.ndarray):
    """Map the m(m-1) Euler-slice unit coords to per-pair (phase, rotation) columns.

    The first P coords are rotations, assigned to pairs in decreasing j
    (heaviest densities take the lowest prime bases), then phases in layout
    order.
    """
    P = m * (m - 1) // 2
    lay = euler_layout(m)
    b = np.empty((eu.shape[0], P))
    for slot, p in enumerate(sorted(range(P), key=lambda p: -lay[p][1])):
        b[:, p] = eu[:, slot]
    return eu[:, P:], b


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
    # log of prod_{i<j} 4(l_i - l_j)^2 / (l_i + l_j) / sqrt(prod l)
    B, m = lam.shape
    out = -0.5 * np.log(np.maximum(lam, _TINY)).sum(axis=1)
    with np.errstate(divide="ignore"):
        for i in range(m):
            for j in range(i + 1, m):
                out += np.log(4 * (lam[:, i] - lam[:, j]) ** 2 + _TINY)
                out -= np.log(lam[:, i] + lam[:, j])
    return out


def _haar_log_density(b: np.ndarray, layout: list[tuple[int, int]]) -> np.ndarray:
    # per-pair rotation density; each wide-phase pair contributes a further 1/2
    lw = np.zeros(b.shape[0])
    wide = 0
    with np.errstate(divide="ignore"):
        for p, (k, j) in enumerate(layout):
            x = b[:, p]
            if j == 2:
                lw += np.log(np.sin(2 * x) + _TINY)
                continue
            wide += 1
            if j == k:
                lw += np.log(np.cos(x) + _TINY) + (2 * j - 3) * np.log(np.sin(x) + _TINY)
            else:
                lw += np.log(np.sin(x) + _TINY) + (2 * j - 3) * np.log(np.cos(x) + _TINY)
    return lw - wide * np.log(2.0)


def _unitary_batch(a: np.ndarray, b: np.ndarray, m: int,
                   layout: list[tuple[int, int]]) -> np.ndarray:
    B = a.shape[0]
    W = np.zeros((B, m, m), dtype=np.complex128)
    W[:, np.arange(m), np.arange(m)] = 1.0
    for p, (_, j) in enumerate(layout):
        ph = np.exp(1j * a[:, p])[:, None]
        W[:, :, m - 1] *= ph
        W[:, :, m - 2] *= np.conj(ph)
        c = np.cos(b[:, p])[:, None]
        s = np.sin(b[:, p])[:, None]
        piv = W[:, :, m - 1].copy()
        tgt = W[:, :, m - j].copy()
        W[:, :, m - 1] = c * piv - s * tgt
        W[:, :, m - j] = s * piv + c * tgt
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
    lay = euler_layout(m)
    theta = pts[:, : m - 1] * (np.pi / 2)
    lam, logj = _simplex_decode(theta)
    log_wD = _eig_density_log(lam) + logj + (m - 1) * np.log(np.pi / 2)
    au, bu = split_euler_coords(m, pts[:, m - 1:])
    a = au * euler_phase_ranges(m)[None, :]
    b = bu * (np.pi / 2)
    log_wH = _haar_log_density(b, lay) + np.log(euler_box_volume(m))
    U = _unitary_batch(a, b, m, lay)
    rho = np.einsum("bij,bj,bkj->bik", U, lam.astype(np.complex128), np.conj(U))
    degenerate = (lam < DEGENERATE_EPS).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    return DecodedBatch(rho, lam, w_D, w_H, w_D * w_H, degenerate)
