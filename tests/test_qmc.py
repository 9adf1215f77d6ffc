"""Scrambled Halton sequence: radical inverses, scrambling, the leading offset."""

import numpy as np
import pytest
from oracles import radical_inverse

from sepvol import qmc
from sepvol.exactform import first_primes


def test_radical_inverse_base2():
    """Unscrambled, the radical-inverse oracle is the van der Corput sequence."""
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75


def test_radical_inverse_base3():
    assert radical_inverse(1, 3) == pytest.approx(1 / 3)
    assert radical_inverse(2, 3) == pytest.approx(2 / 3)
    assert radical_inverse(4, 3) == pytest.approx(1 / 3 + 1 / 9)


def test_points_match_radical_inverse():
    spec = qmc.ScrambleSpec(7)
    pts = qmc.points(spec, 3, 4, 8)
    for j, base in enumerate([2, 3, 5]):
        perm = qmc.permutation_for(spec.seed, base)
        for i in range(8):
            assert pts[i, j] == pytest.approx(radical_inverse(qmc.SKIP + 4 + i, base, perm))


@pytest.mark.parametrize("start, count", [
    (0, 0), (0, 1), (17, 1),
    (1990 - qmc.SKIP, 1200),        # indices across 2^11, 3^7, 5^5, 7^4, 13^3 and 47^2
    (2**62 - 2 - qmc.SKIP, 4),      # across 2^62, one run far longer than the count
    (qmc.MAX_INDEX - 10 - qmc.SKIP, 10),  # SKIP + start + count at MAX_INDEX
])
def test_points_match_radical_inverse_bytes(start, count):
    """points() has the bytes of the digit-by-digit radical inverse, run edges included."""
    d = 15
    spec = qmc.ScrambleSpec(7, count=start + count)
    perms = [qmc.permutation_for(7, base) for base in first_primes(d)]
    want = np.array([[radical_inverse(qmc.SKIP + start + i, perm.size, perm) for perm in perms]
                     for i in range(count)]).reshape(count, d)
    assert qmc.points(spec, d, start, count).tobytes() == want.tobytes()


def test_default_skip():
    """Every stream leaves out the sequence's first 409 points."""
    assert qmc.SKIP == 409
    perm = qmc.permutation_for(3, 2)
    assert qmc.points(qmc.ScrambleSpec(3), 1, 0, 1)[0, 0] == radical_inverse(409, 2, perm)


def test_permutation_properties():
    for base in (2, 3, 17, 149):
        perm = qmc.permutation_for(5, base)
        assert perm[0] == 0
        assert sorted(perm.tolist()) == list(range(base))
    assert not np.array_equal(qmc.permutation_for(0, 17), qmc.permutation_for(1, 17))


def test_permutation_reproducible_across_specs():
    """The same (seed, base) key yields the same digit permutation anywhere.

    The process-wide cache hands out read-only arrays equal to a fresh
    computation, and points drawn after the cache evicted their seed's
    permutations are bit-identical to those drawn before.
    """
    cached = qmc.permutation_for(11, 13)
    assert np.array_equal(cached, qmc.permutation_for.__wrapped__(11, 13))
    assert not cached.flags.writeable
    before = qmc.points(qmc.ScrambleSpec(11), 35, 0, 64)
    for seed in range(12, 12 + qmc.permutation_for.cache_info().maxsize // 35 + 1):
        qmc.points(qmc.ScrambleSpec(seed), 35, 0, 1)
    assert np.array_equal(qmc.points(qmc.ScrambleSpec(11), 35, 0, 64), before)


def test_points_deterministic_and_blockwise_consistent():
    spec = qmc.ScrambleSpec(21)
    whole = qmc.points(spec, 35, 0, 100)
    parts = np.vstack([qmc.points(qmc.ScrambleSpec(21), 35, s, 25) for s in (0, 25, 50, 75)])
    assert np.array_equal(whole, parts)
    assert np.array_equal(qmc.points(spec, 35, 42, 1)[0], whole[42])


def test_points_stay_in_unit_interval():
    pts = qmc.points(qmc.ScrambleSpec(9), 35, 0, 5000)
    assert pts.min() >= 0.0
    assert pts.max() < 1.0


def test_scrambled_marginals_uniform():
    """Kolmogorov-Smirnov sup-norm of each tested marginal stays small."""
    pts = qmc.points(qmc.ScrambleSpec(21), 35, 0, 20000)
    n = pts.shape[0]
    grid = (np.arange(n) + 1) / n
    for j in (0, 1, 16, 34):
        x = np.sort(pts[:, j])
        sup = max(np.abs(x - grid).max(), np.abs(x - grid + 1 / n).max())
        assert sup < 0.02


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        qmc.ScrambleSpec(-1)
