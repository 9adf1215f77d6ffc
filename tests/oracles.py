"""Reference computations the program does not use, kept to check it.

Each is the plain, one-point-at-a-time form of something the program computes
in batch or by another rule.
"""

import numpy as np

from sepvol import boundary, param, quantum
from sepvol.param import _TINY, DEGENERATE_EPS


def min_pt_eigenvalue(rho, form):
    """Smallest eigenvalue of the partial transpose (batch-aware)."""
    return np.linalg.eigvalsh(quantum.partial_transpose(rho, form))[..., 0]


def is_ppt(rho, form):
    """The min-eigenvalue PPT rule: no partial-transpose eigenvalue below -PPT_EPS."""
    return min_pt_eigenvalue(rho, form) >= -quantum.PPT_EPS


def radical_inverse(index, base, perm=None):
    """Sum of permuted base-b digits of index over b^(j+1); van der Corput when perm is None."""
    x, scale, n = 0.0, 1.0 / base, index
    while n > 0:
        d = n % base
        x += (perm[d] if perm is not None else d) * scale
        n //= base
        scale /= base
    return x


def root_residual(base, t, m, free_index):
    """Smallest |eigenvalue| of the partial transpose at the point (base with t spliced in)."""
    x = boundary._insert(np.asarray(base, dtype=float)[None, :], np.array([t]), free_index)
    rho = param.decode_batch(x, m).rho
    return float(np.abs(np.linalg.eigvalsh(
        quantum.partial_transpose(rho, quantum.forms_for(m)[0]))).min())


def split_euler_coords(m, eu):
    """Per-pair (phase, rotation) columns, one rotation column at a time."""
    P = m * (m - 1) // 2
    lay = param.euler_layout(m)
    b = np.empty((eu.shape[0], P))
    for slot, p in enumerate(sorted(range(P), key=lambda p: -lay[p][1])):
        b[:, p] = eu[:, slot]
    return eu[:, P:], b


def eig_density_log(lam):
    # log of prod_{i<j} 4(l_i - l_j)^2 / (l_i + l_j) / sqrt(prod l)
    B, m = lam.shape
    out = -0.5 * np.log(np.maximum(lam, _TINY)).sum(axis=1)
    with np.errstate(divide="ignore"):
        for i in range(m):
            for j in range(i + 1, m):
                out += np.log(4 * (lam[:, i] - lam[:, j]) ** 2 + _TINY)
                out -= np.log(lam[:, i] + lam[:, j])
    return out


def haar_log_density(b, layout):
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


def unitary_batch(a, b, m, layout):
    """(B, m, m) Euler-angle unitaries, built one coupling pair at a time."""
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


def decode_reference(pts, m):
    """param.decode_batch in the (B, m, m) layout, with a log per pair and point."""
    pts = np.asarray(pts, dtype=float)
    lay = param.euler_layout(m)
    theta = pts[:, : m - 1] * (np.pi / 2)
    lam, logj = param._simplex_decode(theta)
    log_wD = eig_density_log(lam) + logj + (m - 1) * np.log(np.pi / 2)
    au, bu = split_euler_coords(m, pts[:, m - 1:])
    a = au * param.euler_phase_ranges(m)[None, :]
    b = bu * (np.pi / 2)
    log_wH = haar_log_density(b, lay) + np.log(param.euler_box_volume(m))
    U = unitary_batch(a, b, m, lay)
    rho = np.einsum("bij,bj,bkj->bik", U, lam.astype(np.complex128), np.conj(U))
    degenerate = (lam < DEGENERATE_EPS).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    return param.DecodedBatch(rho, lam, w_D, w_H, w_D * w_H, degenerate)
