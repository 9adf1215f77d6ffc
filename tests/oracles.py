"""Reference computations the program does not use, kept to check it.

Each is the plain, one-point-at-a-time form of something the program computes
in batch or by another rule.
"""

import numpy as np

from sepvol import boundary, param, quantum


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
