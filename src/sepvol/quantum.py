"""Partial transposes and negativity; a state is PPT when its negativity is 0.

All operations accept a single matrix (m, m) or a batch (..., m, m).  The two
m = 6 forms are the in-place transposes of the 3x3 tiles (block=3) and of the
2x2 tiles (block=2); a block form b is the transpose of factor 1 of the split
(m/b, b).  General factor splits cover the m = 8, 9 bipartitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PPT_EPS = 1e-12


@dataclass(frozen=True)
class FactorSplit:
    """Tensor-factor dimensions and the subset of factors to transpose."""

    dims: tuple[int, ...]
    transposed: frozenset[int]

    def __post_init__(self):
        if not self.transposed or not self.transposed < set(range(len(self.dims))):
            raise ValueError("transposed set must be a nonempty proper subset of the factors")


def factor_partial_transpose(rho: np.ndarray, dims, transposed) -> np.ndarray:
    """Transpose the selected tensor factors of rho's multi-index."""
    m = rho.shape[-1]
    if math.prod(dims) != m:
        raise ValueError(f"factor dims {dims} do not multiply to m={m}")
    k = len(dims)
    if not transposed or not set(transposed) <= set(range(k)):
        raise ValueError(f"invalid transposed factor set {transposed} for {k} factors")
    lead = rho.shape[:-2]
    nl = len(lead)
    R = rho.reshape(lead + tuple(dims) + tuple(dims))
    for f in transposed:
        R = np.swapaxes(R, nl + f, nl + k + f)
    return R.reshape(lead + (m, m))


def partial_transpose(rho: np.ndarray, form) -> np.ndarray:
    """Apply a PT form: an int block size b (factor 1 of (m/b, b)) or a FactorSplit."""
    if isinstance(form, FactorSplit):
        return factor_partial_transpose(rho, form.dims, form.transposed)
    b = int(form)
    return factor_partial_transpose(rho, (rho.shape[-1] // b, b), (1,))


def forms_for(m: int) -> list:
    """The partial-transpose forms reported for each supported dimension."""
    if m == 4:
        return [2]
    if m == 6:
        return [3, 2]
    if m == 8:
        return [FactorSplit((2, 2, 2), frozenset({f})) for f in range(3)]
    if m == 9:
        return [FactorSplit((3, 3), frozenset({1}))]
    raise ValueError(f"no partial-transpose forms defined for m={m}")


def negativity(rho: np.ndarray, form) -> float | np.ndarray:
    """Absolute sum of the negative partial-transpose eigenvalues."""
    ev = np.linalg.eigvalsh(partial_transpose(rho, form))
    neg = np.where(ev < -PPT_EPS, -ev, 0.0).sum(axis=-1)
    return float(neg) if neg.ndim == 0 else neg
