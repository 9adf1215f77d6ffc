"""Partial transposes and negativity; a state is PPT when its negativity is 0.

All operations accept a single matrix (m, m) or a batch (..., m, m).  A form
is a FactorSplit: the one tensor factor it transposes (either side of a cut
gives the same spectrum) and its column label.  At m = 6, block3 transposes the
qutrit (the 3x3 tiles) and block2 the qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PPT_EPS = 1e-12


@dataclass(frozen=True)
class FactorSplit:
    """A partial-transpose form: factor dimensions, the one factor transposed, and its label."""

    label: str
    dims: tuple[int, ...]
    transposed: int

    def __post_init__(self):
        if not 0 <= self.transposed < len(self.dims):
            raise ValueError(f"transposed factor {self.transposed} outside "
                             f"[0, {len(self.dims)}) for dims {self.dims}")

    @property
    def decides_separability(self) -> bool:
        """PPT is equivalent to separability: two factors of product <= 6 (Horodecki 1996)."""
        return len(self.dims) == 2 and math.prod(self.dims) <= 6


_FORMS = {
    4: (FactorSplit("block2", (2, 2), 1),),
    6: (FactorSplit("block3", (2, 3), 1), FactorSplit("block2", (3, 2), 1)),
    8: tuple(FactorSplit(f"factors2x2x2t{f}", (2, 2, 2), f) for f in range(3)),
    9: (FactorSplit("factors3x3t1", (3, 3), 1),),
}
DIMENSIONS = frozenset(_FORMS)  # the m every command supports


def partial_transpose(rho: np.ndarray, form: FactorSplit) -> np.ndarray:
    """Transpose the form's tensor factor of rho's multi-index."""
    f = rho.ndim - 2 + form.transposed  # its row axis; its column axis is len(dims) past it
    R = rho.reshape(rho.shape[:-2] + form.dims + form.dims)
    return np.swapaxes(R, f, f + len(form.dims)).reshape(rho.shape)


def forms_for(m: int) -> tuple[FactorSplit, ...]:
    """The partial-transpose forms reported for each supported dimension."""
    if m not in _FORMS:
        raise ValueError(f"no partial-transpose forms defined for m={m}")
    return _FORMS[m]


def negativity(rho: np.ndarray, form: FactorSplit) -> float | np.ndarray:
    """Absolute sum of the negative partial-transpose eigenvalues."""
    ev = np.linalg.eigvalsh(partial_transpose(rho, form))
    return np.where(ev < -PPT_EPS, -ev, 0.0).sum(axis=-1)
