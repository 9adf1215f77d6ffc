"""Partial transposes and negativity; a state is PPT when its negativity is 0.

All operations accept a single matrix (m, m) or a batch (..., m, m).  A form
is a FactorSplit: the tensor factors it transposes and the label of its output
columns.  At m = 6, block3 transposes the qutrit (the 3x3 tiles) and block2 the qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PPT_EPS = 1e-12


@dataclass(frozen=True)
class FactorSplit:
    """A partial-transpose form: factor dimensions, the factors transposed, and its label."""

    label: str
    dims: tuple[int, ...]
    transposed: frozenset[int]

    @property
    def decides_separability(self) -> bool:
        """PPT is equivalent to separability: two factors of product <= 6 (Horodecki 1996)."""
        return len(self.dims) == 2 and math.prod(self.dims) <= 6


_FORMS = {
    4: (FactorSplit("block2", (2, 2), frozenset({1})),),
    6: (FactorSplit("block3", (2, 3), frozenset({1})),
        FactorSplit("block2", (3, 2), frozenset({1}))),
    8: tuple(FactorSplit(f"factors2x2x2t{f}", (2, 2, 2), frozenset({f})) for f in range(3)),
    9: (FactorSplit("factors3x3t1", (3, 3), frozenset({1})),),
}
DIMENSIONS = frozenset(_FORMS)  # the m every command supports


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


def partial_transpose(rho: np.ndarray, form: FactorSplit) -> np.ndarray:
    """Apply a partial-transpose form."""
    return factor_partial_transpose(rho, form.dims, form.transposed)


def forms_for(m: int) -> tuple[FactorSplit, ...]:
    """The partial-transpose forms reported for each supported dimension."""
    if m not in _FORMS:
        raise ValueError(f"no partial-transpose forms defined for m={m}")
    return _FORMS[m]


def negativity(rho: np.ndarray, form: FactorSplit) -> float | np.ndarray:
    """Absolute sum of the negative partial-transpose eigenvalues."""
    ev = np.linalg.eigvalsh(partial_transpose(rho, form))
    neg = np.where(ev < -PPT_EPS, -ev, 0.0).sum(axis=-1)
    return float(neg) if neg.ndim == 0 else neg
