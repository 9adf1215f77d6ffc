"""Deterministic scrambled Halton sequences.

Scrambling applies an independent random digit permutation per prime base,
fixing digit 0 so trailing zeros cannot drift a coordinate toward 1.  The
permutations come from a counter-based generator keyed by (seed, base), so any
(seed, index, d) triple yields the same point in any process.
"""

from __future__ import annotations

import functools

import numpy as np

from .exactform import first_primes

DEFAULT_SKIP = 409
MAX_INDEX = 2**63 - 1  # points() takes its indices, up to skip + count, as int64


@functools.lru_cache(maxsize=256)  # every base of a few seeds; a run keeps one seed
def permutation_for(seed: int, base: int) -> np.ndarray:
    """Read-only digit permutation of {0..base-1} with perm[0] = 0, keyed by (seed, base)."""
    key = np.random.SeedSequence([seed, base]).generate_state(2, dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    perm = np.empty(base, dtype=np.int64)
    perm[0] = 0
    perm[1:] = rng.permutation(base - 1) + 1
    perm.flags.writeable = False
    return perm


class ScrambleSpec:
    """Scrambling parameters of a stream of count points; permutations are cached per process."""

    def __init__(self, seed: int, skip: int = DEFAULT_SKIP, count: int = 0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if skip < 0:
            raise ValueError("skip must be nonnegative")
        if skip + count > MAX_INDEX:
            raise ValueError(f"skip={skip} plus {count} points passes the last index 2**63 - 1")
        self.seed = int(seed)
        self.skip = int(skip)


def points(spec: ScrambleSpec, d: int, start: int, count: int) -> np.ndarray:
    """Points start..start+count-1 of the d-dimensional sequence, shape (count, d)."""
    idx = np.arange(start + spec.skip, start + spec.skip + count, dtype=np.int64)
    out = np.empty((count, d))
    for j, base in enumerate(first_primes(d)):
        perm = permutation_for(spec.seed, base)
        x = np.zeros(count)
        scale = 1.0 / base
        rem = idx.copy()
        while rem.any():
            x += perm[rem % base] * scale
            rem //= base
            scale /= base
        out[:, j] = x
    return out
