import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minqc import linalg
from minqc.errors import BadTargets, DimensionMismatch, NonHermitianInput
from minqc.gates import I2, X, Z, cz_gate, hadamard
from minqc.linalg import (
    UNITARY_ATOL,
    apply_in_layout,
    dist_phase,
    embed_gate,
    herm_exp,
    frobenius,
    is_unitary,
    random_unitary,
    require_unitary,
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
    """Dense embedding by explicit bit bookkeeping (independent of apply_in_layout)."""
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


def apply_gate(state, g, targets, *, stack=0):
    """``g`` applied to the listed qubits of ``state``, as a product in the
    state's own axis order: the former ``linalg.apply_gate``, kept as an oracle.

    The first ``stack`` axes of ``state`` index states that each take their
    own product with ``g``; the next holds the 2^n basis amplitudes; any
    trailing axes are batch columns.  ``targets[0]`` addresses the
    highest-index qubit slot of ``g``.
    """
    g = linalg.as_matrix(g)
    state = np.asarray(state)
    lead = state.shape[:stack]
    n = state.shape[stack].bit_length() - 1
    product, layout = apply_in_layout(
        state.reshape(lead + (2,) * n + (-1,)), list(range(n + 1)), g, [n - 1 - t for t in targets], stack=stack
    )
    back = list(range(stack + n + 1))
    for k, a in enumerate(layout, stack):
        back[stack + a] = k
    return product.transpose(back).reshape(state.shape)


def in_qubit_order(block, layout):
    """A block that ``apply_in_layout`` left in ``layout``, back in its logical axis order."""
    return block.transpose(np.argsort(layout))


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
    # vector pairs: the same single product per entry
    for da, db in [(2, 2), (2, 4), (4, 2), (4, 8), (8, 2), (8, 8)]:
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
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
    assert dist_phase(u, np.exp(0.52j) * u) < 1e-14


def test_dist_phase_takes_any_equal_shape_arrays():
    rng = np.random.default_rng(19)
    stack = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    assert dist_phase(stack, np.exp(-1.1j) * stack) < 1e-14
    # a vector and its negation differ by a phase; a vector and its conjugate in general do not
    vec = stack[:, 0]
    assert dist_phase(vec, -vec) < 1e-15
    assert dist_phase(vec, vec.conj()) > 1e-3
    with pytest.raises(DimensionMismatch):
        dist_phase(stack, stack.T)


def _plain_dist_phase(a, b):
    """dist_phase as the plain expression: a minus the phase-aligned b."""
    overlap = np.vdot(b, a)
    if abs(overlap) > 0:
        b = b * (overlap / abs(overlap))
    return float(np.linalg.norm(a - b))


def test_in_place_checks_round_as_the_plain_expressions():
    # dist_phase subtracts in place and is_unitary takes I off the product's
    # diagonal in place; both round as the plain expressions in every layout
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4, 8, 16, 64):
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        for a, b in ((u, v), (u.T, v), (u, v.T), (u.T, v.T), (u[:, ::-1], v), (u, np.zeros_like(u)), (u[0], v[0])):
            assert dist_phase(a, b).hex() == _plain_dist_phase(a, b).hex()
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for scale in np.geomspace(1e-14, 1e-11, 13):
            m = u + scale * noise
            assert is_unitary(m) == (np.linalg.norm(m.conj().T @ m - np.eye(n)) < UNITARY_ATOL)


def test_require_unitary_on_a_large_claim_makes_no_full_size_copy():
    u = random_unitary(1024, np.random.default_rng(31))  # 16 MiB
    tracemalloc.start()
    try:
        require_unitary(u, "claim")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * u.nbytes  # row blocks of m^dag m - I: no full-size conjugate or product


def test_stacked_unitarity_and_norms_are_per_matrix(monkeypatch):
    rng = np.random.default_rng(41)
    stack = random_unitary(8, rng, (3, 2))
    stack[1, 0] += 1e-9  # one non-unitary matrix
    expected = [[is_unitary(m) for m in row] for row in stack]
    assert is_unitary(stack).tolist() == expected == [[True, True], [False, True], [True, True]]
    monkeypatch.setattr(linalg, "_GRAM_BLOCK_BYTES", 1)  # one row of m^dag per block
    assert is_unitary(stack).tolist() == expected
    noise = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    assert np.array_equal(frobenius(noise), [np.linalg.norm(m) for m in noise])
    assert frobenius(noise[0]) == np.linalg.norm(noise[0])


def test_dense_checks_make_one_full_size_temporary():
    rng = np.random.default_rng(29)
    u = np.kron(random_unitary(16, rng), random_unitary(16, rng))  # 256 x 256: 1 MiB
    v = u[::-1].copy()
    tracemalloc.start()
    try:
        dist_phase(u, v)
        dist_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        is_unitary(u)
        unitary_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist_peak < 1.5 * u.nbytes  # the phase-aligned copy (the plain expression makes two)
    assert unitary_peak < 2.25 * u.nbytes  # the conjugate and the product (I and a difference would add 1.5)


def basis(n, index):
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def test_apply_x_on_qubit0():
    np.testing.assert_allclose(embed_gate(X, [0], 2) @ basis(2, 0), [0, 1, 0, 0], atol=1e-15)
    # axis 1 of the (2, 2) state holds qubit 0
    out, layout = apply_in_layout(basis(2, 0).reshape(2, 2), [0, 1], X, [1])
    assert layout == [1, 0]
    np.testing.assert_allclose(in_qubit_order(out, layout).reshape(-1), [0, 1, 0, 0], atol=1e-15)


def test_apply_cz_on_11():
    np.testing.assert_allclose(embed_gate(cz_gate(), [1, 0], 2) @ basis(2, 3), [0, 0, 0, -1], atol=1e-15)
    out, layout = apply_in_layout(basis(2, 3).reshape(2, 2), [0, 1], cz_gate(), [0, 1])
    np.testing.assert_allclose(in_qubit_order(out, layout).reshape(-1), [0, 0, 0, -1], atol=1e-15)


def test_apply_h_on_qubit2_matches_dense_oracle():
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    h = hadamard()
    dense = np.kron(np.kron(I2, h), np.kron(I2, I2))  # qubits (3,2,1,0)
    np.testing.assert_allclose(embed_gate(h, [2], 4) @ amps, dense @ amps, atol=1e-12)
    out, layout = apply_in_layout(amps.reshape(2, 2, 2, 2), [0, 1, 2, 3], h, [1])
    np.testing.assert_allclose(in_qubit_order(out, layout).reshape(-1), dense @ amps, atol=1e-12)


def test_embed_gate_rejects_bad_targets():
    with pytest.raises(BadTargets):
        embed_gate(X, [2], 2)
    with pytest.raises(BadTargets):
        embed_gate(X, [-1], 2)
    with pytest.raises(BadTargets):
        embed_gate(cz_gate(), [0, 0], 2)
    with pytest.raises(BadTargets):
        embed_gate(cz_gate(), [0], 2)
    with pytest.raises(BadTargets):
        embed_gate(X, [0, 1], 2)


def test_random_circuit_reconstruction_matches_dense_product():
    # every basis input as one block, kept in the layout of its last product
    rng = np.random.default_rng(31)
    n = 3
    for _ in range(10):
        dense = np.eye(2**n, dtype=complex)
        block, layout = np.eye(2**n, dtype=complex).reshape((2,) * n + (-1,)), list(range(n + 1))
        for _ in range(int(rng.integers(1, 11))):
            if rng.random() < 0.5:
                g = random_unitary(2, rng)
                targets = [int(rng.integers(0, n))]
            else:
                g = random_unitary(4, rng)
                targets = list(rng.choice(n, size=2, replace=False).astype(int))
            dense = embed_oracle(g, targets, n) @ dense
            block, layout = apply_in_layout(block, layout, g, [n - 1 - t for t in targets])
        reconstructed = in_qubit_order(block, layout).reshape(2**n, -1)
        np.testing.assert_allclose(np.linalg.norm(reconstructed, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(reconstructed, dense, atol=1e-10)


def test_batched_apply_equals_column_by_column():
    # Small-integer entries make every product and sum exact, so the batch must
    # equal the columns bit for bit whatever order BLAS sums in; with general
    # entries, BLAS may round differently at another batch width.
    rng = np.random.default_rng(41)
    for n, m, batch in ((1, 1, 3), (2, 1, 4), (3, 2, 5), (4, 3, 8), (5, 2, 2)):
        g = rng.integers(-3, 4, (2**m, 2**m)) + 1j * rng.integers(-3, 4, (2**m, 2**m))
        axes = list(rng.choice(n, size=m, replace=False).astype(int))
        states = rng.integers(-3, 4, (2**n, batch)) + 1j * rng.integers(-3, 4, (2**n, batch))
        layout = list(range(n + 1))
        out, out_layout = apply_in_layout(states.reshape((2,) * n + (batch,)), layout, g, axes)
        columns = [apply_in_layout(states[:, b].reshape((2,) * n + (1,)), layout, g, axes) for b in range(batch)]
        assert all(column_layout == out_layout for _, column_layout in columns)
        assert np.array_equal(out, np.concatenate([column for column, _ in columns], axis=-1))
        # a stack of states, each with its own product, equals them one at a time
        stacked, stacked_layout = apply_in_layout(states.T.reshape((batch,) + (2,) * n), layout[:n], g, axes, stack=1)
        assert all(np.array_equal(stacked[b], apply_in_layout(states[:, b].reshape((2,) * n), layout[:n], g, axes)[0])
                   for b in range(batch))
        u = random_unitary(2**m, rng)
        out, _ = apply_in_layout(states.reshape((2,) * n + (batch,)), layout, u, axes)
        unitary_columns = [apply_in_layout(states[:, b].reshape((2,) * n + (1,)), layout, u, axes)[0]
                           for b in range(batch)]
        np.testing.assert_allclose(out, np.concatenate(unitary_columns, axis=-1), rtol=0, atol=1e-14)


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


# Gate entries include signed zeros: the copy must reproduce the sums'
# 0.0 wherever the product with identity columns gives it.
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1e-300, -3.25e17])


@st.composite
def embeddings(draw):
    """(gate or stack of gates, ordered targets, qubits, column start, column stop)."""
    n = draw(st.integers(1, 4))
    targets = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    lead = draw(st.sampled_from([(), (1,), (2,), (2, 3)]))
    d = 2 ** len(targets)
    shape = lead + (d, d)
    size = int(np.prod(shape))
    re = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    im = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    g = np.empty(shape, dtype=complex)  # set part by part, so the signed zeros stay
    g.real, g.imag = np.reshape(re, shape), np.reshape(im, shape)
    start = draw(st.integers(0, 2**n - 1))
    stop = draw(st.integers(start + 1, 2**n))
    return g, list(targets), n, start, stop


def identity_columns_oracle(g, targets, n, start, stop):
    """``apply_gate`` on columns ``start:stop`` of the identity, each column
    four times along a batch axis.  A BLAS kernel for the last one to three
    columns of a product may keep -0.0 where every term of a sum is -0.0;
    with a multiple of four product columns, every column runs the main
    kernel, whose sums start from 0.0."""
    lead, dim = g.shape[:-2], 2**n
    identity = np.broadcast_to(np.eye(dim, dtype=complex), lead + (dim, dim))
    columns = np.repeat(identity[..., start:stop, None], 4, axis=-1)
    return np.ascontiguousarray(apply_gate(columns, g, targets, stack=len(lead))[..., 0])


@settings(max_examples=200, deadline=None)
@given(embeddings())
def test_embed_gate_copy_has_the_bits_of_apply_gate_on_identity_columns(drawn):
    g, targets, n, start, stop = drawn
    expected = identity_columns_oracle(g, targets, n, 0, 2**n)
    assert embed_gate(g, targets, n).tobytes() == expected.tobytes()
    expected = identity_columns_oracle(g, targets, n, start, stop)
    assert embed_gate(g, targets, n, slice(start, stop)).tobytes() == expected.tobytes()
