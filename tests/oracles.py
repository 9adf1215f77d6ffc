"""Reference computations the program does not use, kept to check it.

Each is the plain, one-point-at-a-time form of something the program computes
in batch or by another rule.
"""

import numpy as np

from sepvol import param, quantum
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


def is_prime(n):
    """Miller-Rabin on the first 12 prime bases, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        for _ in range(s):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
    return True


def root_residual(base, t, m, free_index):
    """Smallest |eigenvalue| of the partial transpose at the point (base with t spliced in)."""
    x = np.insert(np.asarray(base, dtype=float), free_index, t)[None, :]
    rho = param.decode_batch(x, m).rho
    return float(np.abs(np.linalg.eigvalsh(
        quantum.partial_transpose(rho, quantum.forms_for(m)[0]))).min())


def decode_simplex_jacobian(pts, m, h=1e-6):
    """Central-difference |det d(lambda)/dv| of decode_batch's first m-1 eigenvalues over its first m-1 coordinates."""
    n = m - 1
    J = np.empty((len(pts), n, n))
    for j in range(n):
        up, down = pts.copy(), pts.copy()
        up[:, j] += h
        down[:, j] -= h
        J[:, :, j] = param.decode_batch(up, m).lam[:, :n] - param.decode_batch(down, m).lam[:, :n]
    return np.abs(np.linalg.det(J / (2 * h)))


def split_euler_coords(m, eu):
    """Per-pair (phase, rotation) columns, one rotation column at a time."""
    P = m * (m - 1) // 2
    lay = param.euler_layout(m)
    b = np.empty((eu.shape[0], P))
    for slot, p in enumerate(sorted(range(P), key=lambda p: -lay[p][1])):
        b[:, p] = eu[:, slot]
    return eu[:, P:], b


def phase_ranges(m):
    """Native phase range per pair: pi when j == 2, else 2*pi."""
    return np.array([np.pi if j == 2 else 2 * np.pi for _, j in param.euler_layout(m)])


def box_volume(m):
    """Volume of the Euler-angle coordinate box: phase ranges times (pi/2) per rotation."""
    P = m * (m - 1) // 2
    wide = P - (m - 1)
    return np.pi ** (m - 1) * (2 * np.pi) ** wide * (np.pi / 2) ** P


def simplex_decode(theta):
    """Eigenvalues of the nested squared-cosine map at (B, m-1) angles, and log |d(lambda)/d(theta)|."""
    B, n = theta.shape
    m = n + 1
    s2 = np.sin(theta) ** 2
    c2 = np.cos(theta) ** 2
    prefix = np.cumprod(s2, axis=1)
    lam = np.empty((B, m))
    lam[:, 0] = c2[:, 0]
    lam[:, 1:-1] = c2[:, 1:] * prefix[:, :-1]
    lam[:, -1] = prefix[:, -1]
    with np.errstate(divide="ignore"):
        logj = np.log(np.abs(np.sin(2 * theta)) + _TINY).sum(axis=1)
        expo = 2 * (m - 1 - np.arange(1, m - 1))
        logj += (expo * np.log(np.sin(theta[:, : m - 2]) + _TINY)).sum(axis=1)
    return lam, logj


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
    """param.decode_batch in the (B, m, m) layout, with np.sin, np.cos, np.exp and a log per pair and point."""
    pts = np.asarray(pts, dtype=float)
    lay = param.euler_layout(m)
    theta = pts[:, : m - 1] * (np.pi / 2)
    lam, logj = simplex_decode(theta)
    log_wD = eig_density_log(lam) + logj + (m - 1) * np.log(np.pi / 2)
    au, bu = split_euler_coords(m, pts[:, m - 1:])
    a = au * phase_ranges(m)[None, :]
    b = bu * (np.pi / 2)
    log_wH = haar_log_density(b, lay) + np.log(box_volume(m))
    U = unitary_batch(a, b, m, lay)
    rho = np.einsum("bij,bj,bkj->bik", U, lam.astype(np.complex128), np.conj(U))
    degenerate = (lam < DEGENERATE_EPS).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        w_D = np.exp(log_wD)
        w_H = np.exp(log_wH)
    w_D[degenerate] = 0.0
    return param.DecodedBatch(rho, lam, w_D, w_H, w_D * w_H, degenerate)
