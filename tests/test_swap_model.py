import dataclasses

import numpy as np
import pytest

from minqc import swap_model
from minqc.catalog import sct_instance
from minqc.errors import NonUnitaryArgument
from minqc.gates import (
    I2,
    controlled,
    hadamard,
    phase_gate,
    sct_gate,
    swap_controlled_phase,
    swap_gate,
    t_gate,
)
from minqc.linalg import dist_phase, random_unitary, tensor
from minqc.locequiv import is_entangling
from minqc.simulator import run
from minqc.swap_model import (
    cnot_power_residual,
    entangling_gate,
    single_qubit_schedule,
    swap_interaction,
    two_qubit_schedule,
)
from minqc.synth import universality_diagnostic


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


def random_params(rng):
    return (
        random_unitary(2, rng),
        rng.uniform(0, 2 * np.pi),
        rng.uniform(0, 2 * np.pi),
        rng.uniform(0, 2 * np.pi),
    )


def test_plain_swap_instance():
    l = swap_interaction(I2, 0.0)
    np.testing.assert_allclose(l.matrix, swap_gate(), atol=0)
    np.testing.assert_allclose(l.gate0, I2, atol=0)
    np.testing.assert_allclose(l.gate1, I2, atol=0)


def test_sct_instance_matrix_and_selected_gates():
    l = sct_instance()
    np.testing.assert_allclose(l.matrix, tensor(I2, hadamard()) @ sct_gate(), atol=1e-15)
    np.testing.assert_allclose(l.gate0, hadamard(), atol=1e-15)
    np.testing.assert_allclose(l.gate1, t_gate() @ hadamard() @ t_gate(), atol=1e-15)


def test_factorizations_agree_on_random_parameters():
    rng = np.random.default_rng(60)
    for _ in range(100):
        u, th, tr, ta = random_params(rng)
        l = swap_interaction(u, th, tr, ta)
        direct = tensor(I2, u) @ swap_controlled_phase(th) @ tensor(phase_gate(tr), phase_gate(ta))
        alt = (
            swap_gate()
            @ controlled(u @ phase_gate(tr), u @ phase_gate(th + tr), control=1)
            @ tensor(I2, phase_gate(ta))
        )
        assert np.linalg.norm(l.matrix - direct) < 1e-12
        assert np.linalg.norm(l.matrix - alt) < 1e-12


def test_double_interaction_selected_gate_identity():
    rng = np.random.default_rng(61)
    for _ in range(100):
        u, th, tr, ta = random_params(rng)
        l = swap_interaction(u, th, tr, ta)
        double = l.matrix @ l.matrix
        for bit in (0, 1):
            gate = l.gate(bit)
            anc = np.zeros(2, dtype=complex)
            anc[bit] = 1.0
            out = np.stack([double @ np.kron(col, anc) for col in np.eye(2, dtype=complex)], axis=1)
            expected = np.stack(
                [np.kron(gate @ col, u @ anc) for col in np.eye(2, dtype=complex)], axis=1
            )
            assert dist_phase(out, expected) < 1e-11


def test_double_interaction_is_exact_without_local_offsets():
    rng = np.random.default_rng(62)
    u = random_unitary(2, rng)
    l = swap_interaction(u, 1.3)
    double = l.matrix @ l.matrix
    for bit in (0, 1):
        anc = np.zeros(2, dtype=complex)
        anc[bit] = 1.0
        for col in np.eye(2, dtype=complex):
            out = double @ np.kron(col, anc)
            expected = np.kron(l.gate(bit) @ col, u @ anc)
            assert np.linalg.norm(out - expected) < 1e-12


def test_sct_selected_gates_via_action():
    l = sct_instance()
    np.testing.assert_allclose(l.gate(0), hadamard(), atol=1e-15)
    np.testing.assert_allclose(l.gate(1), t_gate() @ hadamard() @ t_gate(), atol=1e-15)
    assert max(swap_model.action_residual(l, bit) for bit in (0, 1)) < swap_model.ACTION_ATOL


def test_entangling_gate_sct_closed_form():
    l = sct_instance()
    expected = tensor(hadamard(), I2) @ sct_gate() @ tensor(hadamard(), I2)
    np.testing.assert_allclose(entangling_gate(l), expected, atol=1e-12)
    assert is_entangling(expected)


def test_entangling_sequence_decouples_against_dense_oracle():
    rng = np.random.default_rng(63)
    for _ in range(50):
        u, th, tr, ta = random_params(rng)
        l = swap_interaction(u, th, tr, ta)
        l_j = embed_oracle(l.matrix, [2, 0], 3)
        l_k = embed_oracle(l.matrix, [1, 0], 3)
        sequence = l_j @ l_k @ l_j
        closed = entangling_gate(l)
        anc = np.zeros(2, dtype=complex)
        anc[0] = 1.0
        for col in np.eye(4, dtype=complex):
            out = sequence @ np.kron(col, anc)
            expected = np.kron(closed @ col, u @ anc)
            assert np.linalg.norm(out - expected) < 1e-11


def test_zero_angle_instance_not_entangling():
    l = swap_interaction(I2, 0.0)
    gate = entangling_gate(l)
    np.testing.assert_allclose(gate, swap_gate(), atol=1e-13)
    assert not is_entangling(gate)


def test_random_nontrivial_angles_are_entangling():
    rng = np.random.default_rng(64)
    for _ in range(100):
        u, _, tr, ta = random_params(rng)
        th = rng.uniform(0.0, 2 * np.pi)
        l = swap_interaction(u, th, tr, ta)
        assert is_entangling(entangling_gate(l))


def test_cnot_fourth_power_for_sct_instance():
    l = sct_instance()
    assert cnot_power_residual(l) < 1e-11
    n = entangling_gate(l)
    cnot_low = controlled(I2, np.array([[0, 1], [1, 0]], dtype=complex), control=1)
    # second power is not CNOT; eighth power is the identity up to phase
    assert dist_phase(np.linalg.matrix_power(n, 2), cnot_low) > 0.5
    assert dist_phase(np.linalg.matrix_power(n, 8), np.eye(4, dtype=complex)) < 1e-11


def test_entangler_generically_asymmetric_under_exchange():
    rng = np.random.default_rng(65)
    s = swap_gate()
    dists = []
    for _ in range(100):
        u, th, tr, ta = random_params(rng)
        n = entangling_gate(swap_interaction(u, th, tr, ta))
        dists.append(dist_phase(n, s @ n @ s))
    assert np.median(dists) > 0.1
    n = entangling_gate(sct_instance())
    assert dist_phase(n, s @ n @ s) > 0.1


def test_schedule_interaction_counts():
    l = sct_instance()
    two_q = two_qubit_schedule(l, "sct")
    assert two_q.interaction_count() == 3 and two_q.ancilla_count() == 1
    one_q = single_qubit_schedule(l, 0, "sct")
    assert one_q.interaction_count() == 2 and one_q.ancilla_count() == 1


def test_end_to_end_schedule_simulation():
    rng = np.random.default_rng(66)
    for _ in range(10):
        u, th, tr, ta = random_params(rng)
        l = swap_interaction(u, th, tr, ta)
        report = run(two_qubit_schedule(l, "swap"))
        assert dist_phase(report.register_unitary, entangling_gate(l)) < 1e-10
        exit_state = report.ancilla_exit_states["a0"]
        assert abs(abs(np.vdot(u @ np.array([1.0, 0.0]), exit_state)) - 1.0) < 1e-10
        for bit in (0, 1):
            report = run(single_qubit_schedule(l, bit, "swap"))
            assert dist_phase(report.register_unitary, l.gate(bit)) < 1e-10


def test_zero_offsets_still_universal_for_sct_parameters():
    l = swap_interaction(hadamard(), np.pi / 4, 0.0, 0.0)
    report = universality_diagnostic(l.gate0, l.gate1)
    assert report.verdict == "plausibly-universal"


def test_random_parameter_diagnostic_reports_a_verdict():
    # no parameter-space characterization is claimed; the diagnostic must
    # simply return one of its three verdicts on arbitrary instances
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(20):
        u, th, tr, ta = random_params(rng)
        l = swap_interaction(u, th, tr, ta)
        verdict = universality_diagnostic(l.gate0, l.gate1).verdict
        assert verdict in ("plausibly-universal", "not-universal", "inconclusive")
        seen.add(verdict)
    assert "plausibly-universal" in seen


def test_rejects_non_unitary_dressing():
    with pytest.raises(NonUnitaryArgument):
        swap_interaction(2 * I2, 0.3)


def test_residuals_detect_a_tampered_instance():
    # u is read by all three identities (only the action reads gate0/gate1)
    l = sct_instance()
    bad = dataclasses.replace(l, u=l.gate1)
    assert swap_model.factorization_residual(bad) > swap_model.FACTORIZATION_ATOL
    assert swap_model.action_residual(bad, 0) > swap_model.ACTION_ATOL
    assert swap_model.sandwich(bad)[1] > swap_model.SANDWICH_ATOL
