"""Deterministic scrambled Halton sequences.

Scrambling applies an independent random digit permutation per prime base,
fixing digit 0 so trailing zeros cannot drift a coordinate toward 1.  The
permutations come from a counter-based generator keyed by (seed, base), so any
(seed, index, d) triple yields the same point in any process.
"""

from __future__ import annotations

import numpy as np

from .exactform import first_primes

DEFAULT_SKIP = 409


def permutation_for(seed: int, base: int) -> np.ndarray:
    """Digit permutation of {0..base-1} with perm[0] = 0, keyed by (seed, base)."""
    key = np.random.SeedSequence([seed, base]).generate_state(2, dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    perm = np.empty(base, dtype=np.int64)
    perm[0] = 0
    perm[1:] = rng.permutation(base - 1) + 1
    return perm


class ScrambleSpec:
    """Scrambling parameters plus lazily cached per-base digit permutations."""

    def __init__(self, seed: int, skip: int = DEFAULT_SKIP, identity: bool = False):
        if skip < 0:
            raise ValueError("skip must be nonnegative")
        self.seed = int(seed)
        self.skip = int(skip)
        self.identity = identity
        self._perms: dict[int, np.ndarray] = {}

    def permutation(self, base: int) -> np.ndarray:
        if base not in self._perms:
            self._perms[base] = (np.arange(base, dtype=np.int64) if self.identity
                                 else permutation_for(self.seed, base))
        return self._perms[base]


def radical_inverse(index: int, base: int, perm: np.ndarray | None = None) -> float:
    """Sum of permuted base-b digits of index over b^(j+1); van der Corput when perm is None."""
    x, scale, n = 0.0, 1.0 / base, index
    while n > 0:
        d = n % base
        x += (perm[d] if perm is not None else d) * scale
        n //= base
        scale /= base
    return x


def points(spec: ScrambleSpec, d: int, start: int, count: int) -> np.ndarray:
    """Points start..start+count-1 of the d-dimensional sequence, shape (count, d)."""
    idx = np.arange(start + spec.skip, start + spec.skip + count, dtype=np.int64)
    out = np.empty((count, d))
    for j, base in enumerate(first_primes(d)):
        perm = spec.permutation(base)
        x = np.zeros(count)
        scale = 1.0 / base
        rem = idx.copy()
        while rem.any():
            x += perm[rem % base] * scale
            rem //= base
            scale /= base
        out[:, j] = x
    return out


def point(spec: ScrambleSpec, d: int, index: int) -> np.ndarray:
    """Single point of the sequence (see points)."""
    return points(spec, d, index, 1)[0]

