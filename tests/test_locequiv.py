import numpy as np
import pytest

from minqc.errors import NonUnitaryArgument
from minqc.gates import I2, cnot_gate, controlled_phase, cz_gate, hadamard, swap_gate
from minqc.linalg import random_unitary, tensor
from minqc.locequiv import INVARIANT_ATOL, invariants, is_entangling


def invariants_oracle(u):
    """Direct evaluation of the magic-basis invariant pair, written out
    independently of the implementation under test."""
    magic = np.array(
        [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
    ) / np.sqrt(2)
    um = magic.conj().T @ u @ magic
    m = um.T @ um
    g1 = np.trace(m) ** 2 / (16 * np.linalg.det(u))
    g2 = (np.trace(m) ** 2 - np.trace(m @ m)) / (4 * np.linalg.det(u))
    return complex(g1), float(np.real(g2))


def concurrence(psi):
    return 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])


def test_identity_invariants():
    g1, g2 = invariants_oracle(np.eye(4, dtype=complex))
    assert abs(g1 - 1) < 1e-14 and abs(g2 - 3) < 1e-14
    inv = invariants(np.eye(4, dtype=complex))
    assert abs(inv.g1 - 1) < 1e-14 and abs(inv.g2 - 3) < 1e-14


def test_named_gate_invariants_match_oracle():
    for gate in (cz_gate(), cnot_gate(), swap_gate(), controlled_phase(1.2)):
        inv = invariants(gate)
        g1, g2 = invariants_oracle(gate)
        assert abs(inv.g1 - g1) < 1e-12 and abs(inv.g2 - g2) < 1e-12


def test_local_gates_share_identity_invariants():
    rng = np.random.default_rng(21)
    identity_inv = invariants(np.eye(4, dtype=complex))
    for _ in range(50):
        local = tensor(random_unitary(2, rng), random_unitary(2, rng))
        assert invariants(local).distance(identity_inv) < 1e-9


def test_dressed_cz_is_locally_equivalent_to_cz():
    rng = np.random.default_rng(22)
    cz = cz_gate()
    for _ in range(100):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        m = tensor(u, u) @ cz @ tensor(v, v)
        assert invariants(m).distance(invariants(cz)) < INVARIANT_ATOL


def test_cnot_equivalent_to_cz_via_explicit_dressing():
    h = hadamard()
    dressing = tensor(I2, h)  # Hadamard on the target (lower) qubit
    np.testing.assert_allclose(dressing @ cz_gate() @ dressing, cnot_gate(), atol=1e-15)
    assert invariants(cz_gate()).distance(invariants(cnot_gate())) < INVARIANT_ATOL


def test_cz_not_equivalent_to_swap():
    assert invariants(cz_gate()).distance(invariants(swap_gate())) >= INVARIANT_ATOL


def test_dressing_invariance():
    rng = np.random.default_rng(23)
    for _ in range(500):
        base = random_unitary(4, rng)
        locals_ = [random_unitary(2, rng) for _ in range(4)]
        dressed = tensor(locals_[0], locals_[1]) @ base @ tensor(locals_[2], locals_[3])
        assert invariants(dressed).distance(invariants(base)) < 1e-9


def test_is_entangling_basics():
    assert not is_entangling(controlled_phase(0.0))  # identity
    assert not is_entangling(swap_gate())
    assert is_entangling(cz_gate())
    assert is_entangling(cnot_gate())
    for theta in (0.3, np.pi / 4, np.pi, 5.1):
        assert is_entangling(controlled_phase(theta))
        assert is_entangling(swap_gate() @ controlled_phase(theta))


def test_swap_preserves_product_states():
    # oracle for the SWAP exclusion: sampled product inputs stay product
    rng = np.random.default_rng(24)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        assert concurrence(swap_gate() @ psi) < 1e-12


def test_entangling_gates_actually_entangle_some_product_state():
    rng = np.random.default_rng(25)
    for gate in (cz_gate(), cnot_gate()):
        best = 0.0
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            best = max(best, concurrence(gate @ psi))
        assert best > 0.1


def test_invariants_reject_non_unitary():
    with pytest.raises(NonUnitaryArgument):
        invariants(np.ones((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        invariants(np.eye(2, dtype=complex))
