import numpy as np
import pytest

from minqc.errors import NonUnitaryArgument
from minqc.gates import (
    I2,
    X,
    Y,
    Z,
    cnot_gate,
    controlled,
    cz_gate,
    hadamard,
    param_u2,
    phase_gate,
    sct_gate,
    swap_gate,
    t_gate,
)
from minqc.linalg import random_unitary, tensor


def test_hadamard_action_and_involution():
    h = hadamard()
    np.testing.assert_allclose(h @ [1, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(h @ h, I2, atol=1e-15)


def test_hadamard_conjugates_z_to_x():
    h = hadamard()
    np.testing.assert_allclose(h @ Z @ h, X, atol=1e-15)


def test_phase_gate_zero_is_identity():
    np.testing.assert_allclose(phase_gate(0.0), I2, atol=0)


def test_t_seventh_power_is_adjoint():
    t = t_gate()
    np.testing.assert_allclose(np.linalg.matrix_power(t, 7), t.conj().T, atol=1e-12)


def test_t_eighth_power_is_identity():
    np.testing.assert_allclose(np.linalg.matrix_power(t_gate(), 8), I2, atol=1e-12)


def test_phase_gate_commutes_with_z():
    for theta in np.linspace(0, 2 * np.pi, 7):
        r = phase_gate(theta)
        np.testing.assert_allclose(r @ Z, Z @ r, atol=1e-15)


def test_controlled_identity_cases():
    np.testing.assert_allclose(controlled(I2, I2), np.eye(4), atol=0)
    psi = np.zeros(4)
    psi[3] = 1.0
    np.testing.assert_allclose(controlled(I2, Z) @ psi, -psi, atol=0)


def test_controlled_slot_semantics():
    rng = np.random.default_rng(2)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    np.testing.assert_allclose(controlled(u, v), tensor(p0, u) + tensor(p1, v), atol=1e-15)
    np.testing.assert_allclose(controlled(u, v, control=1), tensor(u, p0) + tensor(v, p1), atol=1e-15)


def test_controlled_rejects_non_unitary():
    with pytest.raises(NonUnitaryArgument):
        controlled(I2, 2 * I2)


def test_cz_symmetric_under_exchange():
    s = swap_gate()
    np.testing.assert_allclose(s @ cz_gate() @ s, cz_gate(), atol=0)


def test_swap_action_and_involution():
    s = swap_gate()
    psi = np.zeros(4)
    psi[1] = 1.0  # |01>: qubit 0 set
    out = s @ psi
    assert abs(out[2] - 1.0) < 1e-15  # |10>
    np.testing.assert_allclose(s @ s, np.eye(4), atol=0)


def test_swap_conjugation_exchanges_tensor_slots():
    rng = np.random.default_rng(4)
    s = swap_gate()
    for _ in range(20):
        a, b = random_unitary(2, rng), random_unitary(2, rng)
        np.testing.assert_allclose(s @ tensor(a, b) @ s, tensor(b, a), atol=1e-14)


def test_swap_controlled_composition():
    np.testing.assert_allclose(sct_gate(), swap_gate() @ controlled(I2, t_gate()), atol=0)


def test_pauli_algebra():
    for p in (X, Y, Z):
        np.testing.assert_allclose(p @ p, I2, atol=0)
    np.testing.assert_allclose(X @ Z @ X @ Z, -I2, atol=1e-14)


def test_cnot_matrix():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_allclose(cnot_gate(), expected, atol=0)


def test_param_u2_quarter_angle_is_hadamard():
    np.testing.assert_allclose(param_u2(0, 0, 0, np.pi / 4), hadamard(), atol=1e-15)


def test_param_u2_specific_pair_gives_t_and_ht():
    # the partnered parameter choice collapses to gate pair (T, HT) for any (eta, zeta)
    for eta, zeta in [(0.0, 0.0), (0.3, -0.7), (1.9, 2.4)]:
        u = param_u2(eta, zeta, zeta, np.pi / 8)
        v = param_u2(np.pi / 8 - eta, -zeta - np.pi / 8, zeta - np.pi / 8, np.pi / 8)
        np.testing.assert_allclose(u @ v, t_gate(), atol=1e-12)
        np.testing.assert_allclose(u @ Z @ v, hadamard() @ t_gate(), atol=1e-12)


def test_param_u2_always_unitary():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        eta, phi, psi, theta = rng.uniform(0, 2 * np.pi, size=4)
        p = param_u2(eta, phi, psi, theta)
        assert np.linalg.norm(p.conj().T @ p - I2) < 1e-14
