"""Scrambled Halton sequence: radical inverses, scrambling, skip."""

import numpy as np
import pytest
from oracles import radical_inverse

from sepvol import qmc


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
    spec = qmc.ScrambleSpec(7, skip=0)
    pts = qmc.points(spec, 3, 4, 8)
    for j, base in enumerate([2, 3, 5]):
        perm = spec.permutation(base)
        for i in range(8):
            assert pts[i, j] == pytest.approx(radical_inverse(4 + i, base, perm))


def test_skip_offsets_the_sequence():
    a = qmc.points(qmc.ScrambleSpec(3, skip=17), 4, 0, 10)
    b = qmc.points(qmc.ScrambleSpec(3, skip=0), 4, 17, 10)
    assert np.array_equal(a, b)


def test_default_skip():
    assert qmc.DEFAULT_SKIP == 409
    assert qmc.ScrambleSpec(0).skip == 409


def test_permutation_properties():
    for base in (2, 3, 17, 149):
        perm = qmc.permutation_for(5, base)
        assert perm[0] == 0
        assert sorted(perm.tolist()) == list(range(base))
    assert not np.array_equal(qmc.permutation_for(0, 17), qmc.permutation_for(1, 17))


def test_permutation_reproducible_across_specs():
    """The same (seed, base) key yields the same digit permutation anywhere."""
    a = qmc.ScrambleSpec(11).permutation(13)
    b = qmc.ScrambleSpec(11).permutation(13)
    assert np.array_equal(a, b)
    assert np.array_equal(a, qmc.permutation_for(11, 13))


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


def test_negative_skip_rejected():
    with pytest.raises(ValueError):
        qmc.ScrambleSpec(0, skip=-1)
