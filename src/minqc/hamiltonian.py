"""Two-qubit XXZ-type Hamiltonian generating the swap-phase interaction.

H(theta) = pi (X (x) X + Y (x) Y) + (pi - theta) Z (x) Z, in units with
hbar = 1.  Evolving under it for t = 1/4 yields, up to a global phase,
SCR(theta) . (R(-theta/2) (x) R(-theta/2)); composing with a fixed ancilla
rotation R(theta/2) H R(theta/2) turns that into a swap-model interaction
whose selected gates are H and R(theta) H R(theta).

Every function of theta takes an array of angles as well, giving one matrix
(or residual) per angle.
"""
from __future__ import annotations

import numpy as np

from .errors import FactorizationFailure
from .gates import I2, X, Y, Z, hadamard, phase_gate, swap_controlled_phase
from .linalg import dist_phase, frobenius, herm_exp, tensor
from .swap_model import SwapInteraction, swap_interaction

EVOLUTION_TIME = 0.25
# Identity tolerances: ``minqc verify`` reports against them; the constructors raise at theirs.
EVOLUTION_ATOL = 1e-10
DERIVED_ATOL = 1e-11
SPECTRUM_ATOL = 1e-10


def xxz_hamiltonian(theta) -> np.ndarray:
    """Hermitian, traceless 4x4 generator of the interaction."""
    return np.pi * (tensor(X, X) + tensor(Y, Y)) + (np.pi - np.asarray(theta))[..., None, None] * tensor(Z, Z)


def spectrum_residual(theta):
    """Largest eigenvalue error of H(theta) against {pi-theta (x2), pi+theta, theta-3pi}."""
    spectrum = np.sort(np.linalg.eigvalsh(xxz_hamiltonian(theta)))
    expected = np.sort(np.stack([np.pi - theta, np.pi - theta, np.pi + theta, theta - 3 * np.pi], axis=-1))
    return np.abs(spectrum - expected).max(axis=-1)


def product_form(theta) -> np.ndarray:
    """Closed form of the t = 1/4 evolution (up to global phase)."""
    return swap_controlled_phase(theta) @ tensor(phase_gate(-theta / 2), phase_gate(-theta / 2))


def _evolution(theta) -> tuple[np.ndarray, np.ndarray]:
    u = herm_exp(xxz_hamiltonian(theta), EVOLUTION_TIME)
    return u, dist_phase(u, product_form(theta))


def evolution_residual(theta):
    """Phase-blind distance of e^{-i H(theta)/4} from :func:`product_form`."""
    return _evolution(theta)[1]


def evolve(theta) -> np.ndarray:
    """e^{-i H(theta)/4}, cross-checked against the closed product form."""
    u, residual = _evolution(theta)
    if np.any(residual >= EVOLUTION_ATOL):
        raise FactorizationFailure(
            f"evolution does not match the product form (residual {np.max(residual):.3e})"
        )
    return u


def ancilla_rotation(theta) -> np.ndarray:
    """The fixed (gate-independent) ancilla rotation R(theta/2) H R(theta/2)."""
    r = phase_gate(theta / 2)
    return r @ hadamard() @ r


def derived_swap_instance(theta) -> SwapInteraction:
    """Swap-model interaction realized by the evolution plus the fixed rotation.

    The composite (I (x) rotation) . U(theta) equals, up to global phase, the
    swap interaction with u = rotation and both local offsets -theta/2; its
    selected gates come out as gate0 = H and gate1 = R(theta) H R(theta).
    """
    rotation = ancilla_rotation(theta)
    composite = tensor(I2, rotation) @ evolve(theta)
    instance = swap_interaction(rotation, theta, -theta / 2, -theta / 2)
    if np.any(dist_phase(composite, instance.matrix) >= DERIVED_ATOL):
        raise FactorizationFailure("composite evolution does not realize the swap interaction")
    if np.any(np.maximum(*selected_gate_residuals(instance, theta)) >= DERIVED_ATOL):
        raise FactorizationFailure("derived instance selected gates are off")
    return instance


def selected_gate_residuals(instance: SwapInteraction, theta):
    """Frobenius distances of the selected gates from H and R(theta) H R(theta)."""
    h = hadamard()
    return (
        frobenius(instance.gate0 - h),
        frobenius(instance.gate1 - phase_gate(theta) @ h @ phase_gate(theta)),
    )
