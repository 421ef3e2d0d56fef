import dataclasses

import numpy as np

from minqc import cz_model
from minqc.catalog import cz_t_instance
from minqc.cz_model import (
    cz_interaction,
    entangling_gate,
    mediated_cz_residuals,
    single_qubit_schedule,
    two_qubit_schedule,
)
from minqc.gates import I2, X, Z, controlled, cz_gate, hadamard, t_gate
from minqc.linalg import dist_phase, random_unitary, tensor
from minqc.locequiv import INVARIANT_ATOL, invariants
from minqc.simulator import run
from minqc.synth import GateWord, synthesize, word_product


def embed_oracle(g, targets, n):
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


def test_plain_interaction():
    k = cz_interaction(I2, I2)
    np.testing.assert_allclose(k.gate0, I2, atol=0)
    np.testing.assert_allclose(k.gate1, Z, atol=0)
    np.testing.assert_allclose(k.matrix, tensor(I2, hadamard()) @ cz_gate(), atol=1e-15)


def test_t_instance_selected_gates():
    k = cz_t_instance()
    np.testing.assert_allclose(k.gate0, t_gate(), atol=1e-12)
    np.testing.assert_allclose(k.gate1, hadamard() @ t_gate(), atol=1e-12)
    # the construction is insensitive to the two free parameters
    k2 = cz_t_instance(eta=0.6, zeta=-1.2)
    np.testing.assert_allclose(k2.gate0, t_gate(), atol=1e-12)
    np.testing.assert_allclose(k2.gate1, hadamard() @ t_gate(), atol=1e-12)


def test_factorizations_agree_on_random_dressings():
    rng = np.random.default_rng(50)
    h = hadamard()
    for _ in range(100):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        k = cz_interaction(u, v)
        direct = tensor(u, h) @ cz_gate() @ tensor(v, I2)
        alt = tensor(I2, h) @ controlled(k.gate0, k.gate1, control=1)
        assert np.linalg.norm(k.matrix - direct) < 1e-12
        assert np.linalg.norm(k.matrix - alt) < 1e-12


def test_single_qubit_action_on_random_states():
    rng = np.random.default_rng(51)
    h = hadamard()
    for _ in range(100):
        k = cz_interaction(random_unitary(2, rng), random_unitary(2, rng))
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        for bit in (0, 1):
            gate = k.gate(bit)
            anc = np.zeros(2, dtype=complex)
            anc[bit] = 1.0
            out = k.matrix @ np.kron(psi, anc)
            expected = np.kron(gate @ psi, h @ anc)
            assert np.linalg.norm(out - expected) < 1e-12


def test_single_qubit_action_fixed_instances():
    k = cz_t_instance()
    np.testing.assert_allclose(k.gate(0), t_gate(), atol=1e-12)
    np.testing.assert_allclose(k.gate(1), hadamard() @ t_gate(), atol=1e-12)
    np.testing.assert_allclose(cz_interaction(I2, I2).gate(0), I2, atol=0)
    assert max(cz_model.action_residual(k, bit) for bit in (0, 1)) < cz_model.ACTION_ATOL


def test_entangling_gate_identity_dressing_is_cz():
    np.testing.assert_allclose(entangling_gate(cz_interaction(I2, I2)), cz_gate(), atol=1e-13)


def test_entangling_gate_t_instance_locally_equivalent_to_cz():
    gap = invariants(entangling_gate(cz_t_instance())).distance(invariants(cz_gate()))
    assert gap < INVARIANT_ATOL


def test_entangling_sequence_decouples_against_dense_oracle():
    rng = np.random.default_rng(52)
    for _ in range(50):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        k = cz_interaction(u, v)
        k_j = embed_oracle(k.matrix, [2, 0], 3)
        k_k = embed_oracle(k.matrix, [1, 0], 3)
        mid = embed_oracle(tensor(k.gate0.conj().T, k.gate0.conj().T), [2, 1], 3)
        sequence = k_k @ k_j @ mid @ k_k @ k_j
        induced = tensor(u, u) @ cz_gate() @ tensor(v, v)
        assert np.linalg.norm(sequence - tensor(induced, I2)) < 1e-11
        np.testing.assert_allclose(entangling_gate(k), induced, atol=1e-12)


def test_entangling_sequence_schmidt_rank_one():
    rng = np.random.default_rng(53)
    k = cz_interaction(random_unitary(2, rng), random_unitary(2, rng))
    k_j = embed_oracle(k.matrix, [2, 0], 3)
    k_k = embed_oracle(k.matrix, [1, 0], 3)
    mid = embed_oracle(tensor(k.gate0.conj().T, k.gate0.conj().T), [2, 1], 3)
    sequence = k_k @ k_j @ mid @ k_k @ k_j
    svals = np.linalg.svd(
        sequence.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4), compute_uv=False
    )
    assert svals[0] > 1.0
    assert svals[1] < 1e-10


def test_gate1_times_gate0_seventh_is_hadamard():
    k = cz_t_instance()
    residual = np.linalg.norm(k.gate1 @ np.linalg.matrix_power(k.gate0, 7) - hadamard())
    assert residual < 1e-12


def test_commuting_obstruction_for_diagonal_vu():
    rng = np.random.default_rng(54)
    for _ in range(50):
        u = random_unitary(2, rng)
        diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        k = cz_interaction(u, diag @ u.conj().T)  # v.u = diag
        np.testing.assert_allclose(
            k.gate0 @ k.gate1, k.gate1 @ k.gate0, atol=1e-12
        )


def test_synthesize_finds_exact_length_5_inverse_word_for_t_instance():
    # T^dagger over (T, HT): HT.T.HT.T.HT = HSHSH.T ~ S^dagger T, shorter than the paper's T^7
    k = cz_t_instance()
    tdg = t_gate().conj().T
    word = synthesize(t_gate(), hadamard() @ t_gate(), tdg, 1e-12)
    assert word.bits == (1, 0, 1, 0, 1) and word.distance < 1e-12
    assert dist_phase(word_product(word.bits, k.gate0, k.gate1), k.gate0.conj().T) < 1e-12
    schedule = two_qubit_schedule(k, word, "cz_t")
    assert schedule.ancilla_count() == 11
    assert schedule.interaction_count() == 14
    assert dist_phase(run(schedule).register_unitary, entangling_gate(k)) < 1e-9


def test_two_qubit_schedule_shape():
    k = cz_t_instance()
    schedule = two_qubit_schedule(k, GateWord((0,) * 7, 0.0), "cz_t")
    assert schedule.ancilla_count() == 15
    assert schedule.interaction_count() == 18
    trivial = two_qubit_schedule(cz_interaction(I2, I2), GateWord((), 0.0), "cz_plain")
    assert trivial.ancilla_count() == 1
    assert trivial.interaction_count() == 4


def test_two_qubit_schedule_simulates_to_induced_gate():
    k = cz_t_instance()
    induced = entangling_gate(k)
    schedule = two_qubit_schedule(k, GateWord((0,) * 7, 0.0), "cz_t")
    report = run(schedule)
    assert dist_phase(report.register_unitary, induced) < 1e-9
    # every word ancilla exits in H|bit>; all bits are zero here
    plus = hadamard() @ np.array([1.0, 0.0])
    for name, state in report.ancilla_exit_states.items():
        if name != "e":
            assert abs(abs(np.vdot(plus, state)) - 1.0) < 1e-10


def test_single_qubit_schedule_applies_selected_gate():
    k = cz_t_instance()
    for bit, expected in ((0, t_gate()), (1, hadamard() @ t_gate())):
        report = run(single_qubit_schedule(k, bit, "cz_t"))
        assert dist_phase(report.register_unitary, expected) < 1e-12
        h_exit = hadamard()[:, bit]
        exit_state = report.ancilla_exit_states["a0"]
        assert abs(abs(np.vdot(h_exit, exit_state)) - 1.0) < 1e-12


def test_mediated_cz_identity():
    loop, pauli = mediated_cz_residuals()
    assert loop < cz_model.MEDIATED_LOOP_ATOL and pauli < cz_model.PAULI_LOOP_ATOL


def test_mediated_cz_identity_breaks_without_final_factor():
    cx = controlled(I2, X)
    cz = cz_gate()
    cx_ka = embed_oracle(cx, [1, 0], 3)
    cz_ja = embed_oracle(cz, [2, 0], 3)
    broken = cx_ka @ cz_ja @ cx_ka  # final controlled-Z factor dropped
    expected = embed_oracle(cz, [2, 1], 3)
    assert np.linalg.norm(broken - expected) > 0.5


def test_residuals_detect_a_tampered_instance():
    # gate0 is read by all three identities (the sandwich never reads gate1)
    k = cz_t_instance()
    bad = dataclasses.replace(k, gate0=k.gate1)
    assert cz_model.factorization_residual(bad) > cz_model.FACTORIZATION_ATOL
    assert cz_model.action_residual(bad, 0) > cz_model.ACTION_ATOL
    assert cz_model.sandwich(bad)[2] > cz_model.SANDWICH_ATOL
