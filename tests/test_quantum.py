"""Partial transposes, PPT checks, negativity measures."""

import numpy as np
import pytest
from oracles import is_ppt, min_pt_eigenvalue

from sepvol import param, qmc, quantum

QUBIT_QUBIT = quantum.forms_for(4)[0]
QUBIT_QUTRIT = quantum.forms_for(6)[0]  # transposes the qutrit


def _split(transposed):
    """A (2, 3) split transposing the given factor."""
    return quantum.FactorSplit("t", (2, 3), transposed)


def test_block_partial_transpose_4x4():
    rho = np.arange(16, dtype=float).reshape(4, 4)
    expected = np.array([
        [0, 4, 2, 6],
        [1, 5, 3, 7],
        [8, 12, 10, 14],
        [9, 13, 11, 15],
    ], dtype=float)
    assert np.array_equal(quantum.partial_transpose(rho, QUBIT_QUBIT), expected)


def _random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_partial_transpose_on_kronecker_products():
    """On A (x) B the block3 form transposes exactly the 3-dimensional factor."""
    rng = np.random.default_rng(0)
    A, B = _random_complex(rng, 2), _random_complex(rng, 3)
    rho = np.kron(A, B)
    assert np.array_equal(quantum.partial_transpose(rho, QUBIT_QUTRIT), np.kron(A, B.T))
    assert np.array_equal(quantum.partial_transpose(rho, _split(1)), np.kron(A, B.T))
    assert np.array_equal(quantum.partial_transpose(rho, _split(0)), np.kron(A.T, B))


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(2)
    rho = _random_complex(rng, 6).reshape(1, 6, 6).repeat(8, axis=0)
    rho = rng.normal(size=(8, 6, 6)) + 1j * rng.normal(size=(8, 6, 6))
    for form in quantum.forms_for(6):
        pt = quantum.partial_transpose(rho, form)
        assert np.array_equal(quantum.partial_transpose(pt, form), rho)


def test_complementary_transposes_share_a_spectrum():
    rng = np.random.default_rng(3)
    M = _random_complex(rng, 6)
    rho = M @ M.conj().T
    a = np.linalg.eigvalsh(quantum.partial_transpose(rho, _split(0)))
    b = np.linalg.eigvalsh(quantum.partial_transpose(rho, _split(1)))
    assert np.abs(a - b).max() < 1e-10


def test_bell_state():
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert min_pt_eigenvalue(bell, QUBIT_QUBIT) == pytest.approx(-0.5, abs=1e-12)
    assert quantum.negativity(bell, QUBIT_QUBIT) == pytest.approx(0.5, abs=1e-12)
    assert not is_ppt(bell, QUBIT_QUBIT)


def test_werner_states():
    """p |psi-><psi-| + (1-p) I/4; the partial transpose turns at p = 1/3."""
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    proj = np.outer(psi, psi)
    for p, eig in ((0.5, -1 / 8), (0.25, 1 / 16)):
        rho = p * proj + (1 - p) * np.eye(4) / 4
        assert min_pt_eigenvalue(rho, QUBIT_QUBIT) == pytest.approx(eig, abs=1e-12)
    assert quantum.negativity(0.5 * proj + 0.5 * np.eye(4) / 4, QUBIT_QUBIT) == \
        pytest.approx(1 / 8, abs=1e-12)
    assert quantum.negativity(0.25 * proj + 0.75 * np.eye(4) / 4, QUBIT_QUBIT) == 0.0


def test_product_state_is_ppt():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    assert is_ppt(rho, QUBIT_QUBIT)
    assert quantum.negativity(rho, QUBIT_QUBIT) == 0.0


def test_forms_for():
    def splits(m):
        return [(f.dims, f.transposed) for f in quantum.forms_for(m)]
    assert splits(4) == [((2, 2), 1)]
    assert splits(6) == [((2, 3), 1), ((3, 2), 1)]
    assert splits(8) == [((2, 2, 2), 0), ((2, 2, 2), 1), ((2, 2, 2), 2)]
    assert splits(9) == [((3, 3), 1)]
    with pytest.raises(ValueError):
        quantum.forms_for(5)


def test_factor_split_validation():
    """A split rejects an out-of-range factor when built; dims that do not fit rho raise."""
    with pytest.raises(ValueError):
        _split(-1)
    with pytest.raises(ValueError):
        _split(2)
    with pytest.raises(ValueError):
        quantum.partial_transpose(np.eye(6), QUBIT_QUBIT)


def test_batch_outputs():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(5, 4, 4))
    rho = M @ np.swapaxes(M, 1, 2)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    neg = quantum.negativity(rho, QUBIT_QUBIT)
    assert neg.shape == (5,)
    assert isinstance(quantum.negativity(rho[0], QUBIT_QUBIT), float)


def test_ppt_iff_zero_negativity_on_sampled_states():
    """The estimator's PPT rule, negativity == 0, agrees with the min-eigenvalue oracle."""
    pts = qmc.points(qmc.ScrambleSpec(21), 35, 0, 2000)
    dec = param.decode_batch(pts, 6)
    rho = dec.rho[~dec.degenerate]
    for form in quantum.forms_for(6):
        ppt = is_ppt(rho, form)
        neg = quantum.negativity(rho, form)
        assert np.array_equal(ppt, neg == 0.0)


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_states_in_the_gurvits_barnum_ball_have_zero_negativity(m):
    """Every state with tr rho^2 <= 1/(m - 1) is separable across every cut
    (Gurvits and Barnum, PRA 66, 062311), so each form's negativity is 0 there.

    Each decoded state is mixed with I/m to 0.99 of the largest weight that keeps
    the mixture in the ball.
    """
    dec = param.decode_batch(qmc.points(qmc.ScrambleSpec(21), m * m - 1, 0, 2000), m)
    rho = dec.rho[~dec.degenerate]
    purity = np.einsum("nij,nji->n", rho, rho).real
    eps = 0.99 * np.sqrt(1 / (m * (m - 1) * (purity - 1 / m)))[:, None, None]
    mixed = (1 - eps) * np.eye(m) / m + eps * rho
    assert np.einsum("nij,nji->n", mixed, mixed).real.max() <= 1 / (m - 1)
    for form in quantum.forms_for(m):
        assert np.all(quantum.negativity(mixed, form) == 0.0), form.label


@pytest.mark.parametrize("m", [4, 9])
@pytest.mark.parametrize("p", [0.0, 0.2, "1/(d+1)", 0.5, 1.0])
def test_isotropic_state_negativity_closed_form(m, p):
    """p |Phi+><Phi+| + (1 - p) I/d^2 has negativity d(d - 1)/2 * max(0, p/d - (1 - p)/d^2):
    its partial transpose is p F/d + (1 - p) I/d^2 with F the swap, whose -1 eigenspace
    has dimension d(d - 1)/2.  At p = 1/(d + 1) the negativity turns on."""
    d = int(np.sqrt(m))
    p = 1 / (d + 1) if p == "1/(d+1)" else p
    phi = np.eye(d).reshape(m) / np.sqrt(d)
    rho = p * np.outer(phi, phi) + (1 - p) * np.eye(m) / m
    want = d * (d - 1) / 2 * max(0.0, p / d - (1 - p) / d**2)
    (form,) = quantum.forms_for(m)
    assert abs(quantum.negativity(rho, form) - want) <= 1e-14
