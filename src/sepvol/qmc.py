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

SKIP = 409  # every stream starts at index SKIP, leaving out the leading points
MAX_INDEX = 2**63 - 1  # points() takes its indices, up to SKIP + count, as int64


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

    def __init__(self, seed: int, count: int = 0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if SKIP + count > MAX_INDEX:
            raise ValueError(f"{count} points from index {SKIP} pass the last index 2**63 - 1")
        self.seed = int(seed)


def points(spec: ScrambleSpec, d: int, start: int, count: int) -> np.ndarray:
    """Points start..start+count-1 of the d-dimensional sequence, shape (count, d).

    Digit k of an index is constant on each aligned run of base^k consecutive
    indices, so its scrambled value is looked up once per run and repeated.
    The digits are added lowest first, the same sums as digit by digit.
    """
    first = start + SKIP
    last = first + count - 1
    out = np.empty((count, d))
    for j, base in enumerate(first_primes(d)):
        perm = permutation_for(spec.seed, base)
        scale = 1.0 / base
        x = perm[np.arange(first, last + 1, dtype=np.int64) % base] * scale  # digit 0
        run = base  # base^k, a Python int: it passes int64 where last does not
        while count and last // run:
            scale /= base
            q0, q1 = first // run, last // run
            reps = np.full(q1 - q0 + 1, min(run, count), dtype=np.int64)
            reps[0] = min(last + 1, (q0 + 1) * run) - first
            reps[-1] = last + 1 - max(first, q1 * run)
            x += np.repeat(perm[np.arange(q0, q1 + 1, dtype=np.int64) % base] * scale, reps)
            run *= base
        out[:, j] = x
    return out
