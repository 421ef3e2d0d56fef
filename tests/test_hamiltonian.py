import dataclasses

import numpy as np
import pytest

from minqc import hamiltonian
from minqc.errors import FactorizationFailure
from minqc.gates import I2, X, Y, Z, hadamard, phase_gate, t_gate
from minqc.hamiltonian import (
    ancilla_rotation,
    derived_swap_instance,
    evolve,
    product_form,
    xxz_hamiltonian,
)
from minqc.linalg import dist_phase, herm_exp, tensor
from minqc.swap_model import swap_interaction
from minqc.synth import NOT_UNIVERSAL, universality_diagnostic


def kron_oracle(a, b):
    m, n = a.shape[0], b.shape[0]
    out = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        for j in range(m):
            for k in range(n):
                for ell in range(n):
                    out[i * n + k, j * n + ell] = a[i, j] * b[k, ell]
    return out


def test_hamiltonian_structure():
    theta = 1.234
    h = xxz_hamiltonian(theta)
    expected = np.pi * (kron_oracle(X, X) + kron_oracle(Y, Y)) + (np.pi - theta) * kron_oracle(Z, Z)
    np.testing.assert_allclose(h, expected, atol=1e-13)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-13)
    assert abs(np.trace(h)) < 1e-13


def test_spectrum_matches_analytic_values():
    rng = np.random.default_rng(70)
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        spectrum = np.sort(np.linalg.eigvalsh(xxz_hamiltonian(theta)))
        expected = np.sort([np.pi - theta, np.pi - theta, np.pi + theta, theta - 3 * np.pi])
        np.testing.assert_allclose(spectrum, expected, atol=1e-10)


def test_evolution_matches_product_form_on_grid():
    for theta in [np.pi / 8, np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2]:
        assert dist_phase(evolve(theta), product_form(theta)) < 1e-10
    for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
        assert dist_phase(evolve(theta), product_form(theta)) < 1e-10


def test_quarter_pi_evolution_via_herm_exp():
    u = herm_exp(xxz_hamiltonian(np.pi / 4), 0.25)
    assert dist_phase(u, product_form(np.pi / 4)) < 1e-10


def test_zero_angle_evolution_is_swap():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert dist_phase(evolve(0.0), swap) < 1e-10


def test_derived_instance_quarter_pi_matches_sct_generators():
    inst = derived_swap_instance(np.pi / 4)
    np.testing.assert_allclose(inst.gate0, hadamard(), atol=1e-12)
    np.testing.assert_allclose(inst.gate1, t_gate() @ hadamard() @ t_gate(), atol=1e-12)


def test_derived_instance_gate0_is_hadamard_for_any_angle():
    rng = np.random.default_rng(71)
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        inst = derived_swap_instance(theta)
        np.testing.assert_allclose(inst.gate0, hadamard(), atol=1e-11)
        expected_gate1 = phase_gate(theta) @ hadamard() @ phase_gate(theta)
        np.testing.assert_allclose(inst.gate1, expected_gate1, atol=1e-11)


def test_derived_instance_zero_angle_rejected():
    inst = derived_swap_instance(0.0)
    np.testing.assert_allclose(inst.gate0, hadamard(), atol=1e-12)
    np.testing.assert_allclose(inst.gate1, hadamard(), atol=1e-12)
    assert universality_diagnostic(inst.gate0, inst.gate1).verdict == NOT_UNIVERSAL


def test_composite_realizes_swap_interaction_up_to_phase():
    theta = 2.13
    composite = tensor(I2, ancilla_rotation(theta)) @ evolve(theta)
    reference = swap_interaction(ancilla_rotation(theta), theta, -theta / 2, -theta / 2)
    assert dist_phase(composite, reference.matrix) < 1e-11


def test_ancilla_rotation_is_fixed_per_angle():
    theta = 0.77
    r = phase_gate(theta / 2)
    np.testing.assert_allclose(ancilla_rotation(theta), r @ hadamard() @ r, atol=0)
    np.testing.assert_array_equal(ancilla_rotation(theta), ancilla_rotation(theta))


def test_residuals_detect_a_tampered_instance(monkeypatch):
    theta = 1.1
    inst = derived_swap_instance(theta)
    assert max(hamiltonian.selected_gate_residuals(inst, theta)) < hamiltonian.DERIVED_ATOL
    swapped = dataclasses.replace(inst, gate0=inst.gate1, gate1=inst.gate0)
    gate0, gate1 = hamiltonian.selected_gate_residuals(swapped, theta)
    assert gate0 > hamiltonian.DERIVED_ATOL and gate1 > hamiltonian.DERIVED_ATOL

    assert hamiltonian.evolution_residual(theta) < hamiltonian.EVOLUTION_ATOL
    monkeypatch.setattr(hamiltonian, "product_form", lambda th: product_form(th + 0.1))
    assert hamiltonian.evolution_residual(theta) > hamiltonian.EVOLUTION_ATOL
    with pytest.raises(FactorizationFailure):
        evolve(theta)

    assert hamiltonian.spectrum_residual(theta) < hamiltonian.SPECTRUM_ATOL
    monkeypatch.setattr(hamiltonian, "xxz_hamiltonian", lambda th: xxz_hamiltonian(th + 0.1))
    assert hamiltonian.spectrum_residual(theta) > hamiltonian.SPECTRUM_ATOL
