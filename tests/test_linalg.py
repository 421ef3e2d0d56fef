import numpy as np
import pytest

from minqc.errors import BadTargets, DimensionMismatch, NonHermitianInput
from minqc.gates import I2, X, Z, cz_gate, hadamard
from minqc.linalg import (
    apply_gate,
    dist_phase,
    embed_gate,
    herm_exp,
    phase_aligned_dist,
    random_unitary,
    tensor,
)


def kron_oracle(a, b):
    """Brute-force index-enumeration Kronecker product (independent of np.kron)."""
    m, n = a.shape[0], b.shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for ell in range(n):
                    out[i * n + k, j * n + ell] = a[i, j] * b[k, ell]
    return out


def embed_oracle(g, targets, n):
    """Dense embedding by explicit bit bookkeeping (independent of apply_gate)."""
    dim = 2**n
    m = len(targets)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> q) & 1 for q in range(n)]
        sub_in = sum(bits[t] << (m - 1 - i) for i, t in enumerate(targets))
        for sub_out in range(2**m):
            new_bits = bits.copy()
            for i, t in enumerate(targets):
                new_bits[t] = (sub_out >> (m - 1 - i)) & 1
            row = sum(new_bits[q] << q for q in range(n))
            out[row, col] += g[sub_out, sub_in]
    return out


def test_tensor_identity():
    np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_zz_eigenvalue_on_11():
    psi = np.zeros(4)
    psi[3] = 1.0
    out = tensor(Z, Z) @ psi
    np.testing.assert_allclose(out, psi, atol=1e-15)


def test_tensor_matches_index_oracle():
    np.testing.assert_allclose(tensor(X, Z), kron_oracle(X, Z), atol=0)
    rng = np.random.default_rng(3)
    a, b = random_unitary(2, rng), random_unitary(4, rng)
    np.testing.assert_allclose(tensor(a, b), kron_oracle(a, b), atol=1e-15)
    # kron_oracle multiplies Python complexes, which may round differently in
    # the last bit; np.kron forms each entry as the same single numpy product
    for _ in range(50):
        a, b = (random_unitary(int(d), rng) for d in rng.choice([2, 4], size=2))
        assert np.array_equal(tensor(a, b), np.kron(a, b))


def test_unitarity_closure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = random_unitary(2, rng), random_unitary(2, rng)
        for m in (a @ b, tensor(a, b)):
            residual = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
            assert residual < 1e-11


def test_herm_exp_pauli_z():
    u = herm_exp(Z, np.pi / 2)
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-15)
    assert dist_phase(u, Z) < 1e-15


def test_herm_exp_zero_matrix():
    np.testing.assert_allclose(herm_exp(np.zeros((4, 4)), 0.7), np.eye(4), atol=1e-15)


def test_herm_exp_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        herm_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


def test_herm_exp_unitary_output():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        u = herm_exp(h, rng.uniform(0, 3))
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10


def test_dist_phase_self_and_pure_phase():
    rng = np.random.default_rng(8)
    u = random_unitary(4, rng)
    assert dist_phase(u, u) < 1e-14
    assert dist_phase(u, np.exp(1j * np.pi / 3) * u) < 1e-12


def test_dist_phase_identity_vs_x():
    # tr(X) = 0, so the minimum over phases is sqrt(2*2 - 0) = 2
    assert abs(dist_phase(I2, X) - 2.0) < 1e-12


def test_dist_phase_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_phase(I2, np.eye(4))


def test_dist_phase_pseudometric():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b, c = (random_unitary(2, rng) for _ in range(3))
        assert abs(dist_phase(a, b) - dist_phase(b, a)) < 1e-9
        assert dist_phase(a, c) <= dist_phase(a, b) + dist_phase(b, c) + 1e-9


def test_phase_aligned_dist_resolves_machine_precision():
    rng = np.random.default_rng(17)
    u = random_unitary(4, rng)
    assert phase_aligned_dist(u, np.exp(0.52j) * u) < 1e-14


def basis(n, index):
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def test_apply_x_on_qubit0():
    out = apply_gate(basis(2, 0), X, [0])
    np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-15)


def test_apply_cz_on_11():
    out = apply_gate(basis(2, 3), cz_gate(), [1, 0])
    np.testing.assert_allclose(out, [0, 0, 0, -1], atol=1e-15)


def test_apply_h_on_qubit2_matches_dense_oracle():
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    h = hadamard()
    out = apply_gate(amps, h, [2])
    dense = np.kron(np.kron(I2, h), np.kron(I2, I2))  # qubits (3,2,1,0)
    np.testing.assert_allclose(out, dense @ amps, atol=1e-12)


def test_apply_gate_rejects_bad_targets():
    psi = basis(2, 0)
    with pytest.raises(BadTargets):
        apply_gate(psi, X, [2])
    with pytest.raises(BadTargets):
        apply_gate(psi, cz_gate(), [0, 0])
    with pytest.raises(BadTargets):
        apply_gate(psi, cz_gate(), [0])


def test_apply_gate_rejects_non_power_of_two_state():
    for shape in ((3,), (6, 2), (0,)):
        with pytest.raises(DimensionMismatch):
            apply_gate(np.ones(shape, dtype=complex), X, [0])


def test_random_circuit_reconstruction_matches_dense_product():
    rng = np.random.default_rng(31)
    n = 3
    for _ in range(10):
        dense = np.eye(2**n, dtype=complex)
        reconstructed = np.eye(2**n, dtype=complex)  # every basis input as one batch
        for _ in range(int(rng.integers(1, 11))):
            if rng.random() < 0.5:
                g = random_unitary(2, rng)
                targets = [int(rng.integers(0, n))]
            else:
                g = random_unitary(4, rng)
                targets = list(rng.choice(n, size=2, replace=False).astype(int))
            dense = embed_oracle(g, targets, n) @ dense
            reconstructed = apply_gate(reconstructed, g, targets)
        np.testing.assert_allclose(np.linalg.norm(reconstructed, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(reconstructed, dense, atol=1e-10)


def test_batched_apply_equals_column_by_column():
    # Small-integer entries make every product and sum exact, so the batch must
    # equal the columns bit for bit whatever order BLAS sums in; with general
    # entries, BLAS may round differently at another batch width.
    rng = np.random.default_rng(41)
    for n, m, batch in ((1, 1, 3), (2, 1, 4), (3, 2, 5), (4, 3, 8), (5, 2, 2)):
        g = rng.integers(-3, 4, (2**m, 2**m)) + 1j * rng.integers(-3, 4, (2**m, 2**m))
        targets = list(rng.choice(n, size=m, replace=False).astype(int))
        states = rng.integers(-3, 4, (2**n, batch)) + 1j * rng.integers(-3, 4, (2**n, batch))
        columns = np.stack([apply_gate(states[:, b], g, targets) for b in range(batch)], axis=1)
        assert np.array_equal(apply_gate(states, g, targets), columns)
        # further trailing axes are batch axes too
        cube = states.reshape(2**n, 1, batch)
        assert np.array_equal(apply_gate(cube, g, targets), columns.reshape(cube.shape))
        u = random_unitary(2**m, rng)
        unitary_columns = np.stack([apply_gate(states[:, b], u, targets) for b in range(batch)], axis=1)
        np.testing.assert_allclose(apply_gate(states, u, targets), unitary_columns, rtol=0, atol=1e-14)


def test_embed_gate_matches_oracle():
    rng = np.random.default_rng(37)
    g = random_unitary(4, rng)
    np.testing.assert_allclose(embed_gate(g, [2, 0], 3), embed_oracle(g, [2, 0], 3), atol=1e-13)
    np.testing.assert_allclose(embed_gate(g, [0, 1], 3), embed_oracle(g, [0, 1], 3), atol=1e-13)


def test_embed_gate_is_exact():
    rng = np.random.default_rng(43)
    for targets, n in (([0], 1), ([1], 3), ([2, 0], 3), ([0, 1], 3), ([3, 0, 2], 4)):
        g = random_unitary(2 ** len(targets), rng)
        np.testing.assert_allclose(embed_gate(g, targets, n), embed_oracle(g, targets, n), atol=0)
