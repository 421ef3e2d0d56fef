"""Second minimal-control model: a dressed swap-and-phase interaction.

The fixed gate is (I (x) u) . SCR(theta) . (R(theta_r) (x) R(theta_a)) where
SCR(theta) = SWAP . CR(theta), register on the first (higher) slot.  Two
consecutive interactions through one basis-prepared ancilla apply one of two
selected single-qubit gates; three interactions (j, k, j) through a
|0>-prepared ancilla implement an entangling register gate directly, with no
extra ancillas.

The constructors and residuals take stacks of unitaries and arrays of angles
as well, one instance (and one residual) per stacked parameter set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure
from .gates import I2, controlled, phase_gate, swap_controlled_phase, swap_gate, X
from .linalg import dist_phase, embed_gate, exit_residual, frobenius, per_matrix, require_unitary, tensor
from .simulator import Schedule, Step

# Identity tolerances: the constructors raise at them, ``minqc verify`` reports against them.
FACTORIZATION_ATOL = 1e-12
ACTION_ATOL = 1e-11
SANDWICH_ATOL = 1e-11


@dataclass(frozen=True)
class SwapInteraction:
    u: np.ndarray
    theta: float
    theta_r: float
    theta_a: float
    matrix: np.ndarray
    gate0: np.ndarray
    gate1: np.ndarray

    def gate(self, bit: int) -> np.ndarray:
        return self.gate0 if bit == 0 else self.gate1


def swap_interaction(u: np.ndarray, theta, theta_r=0.0, theta_a=0.0) -> SwapInteraction:
    """Build the interaction; the selected gates are
    gate_i = R(i*theta + theta_a) u R(i*theta + theta_r).

    Cross-checked against the equivalent ancilla-controlled form by
    :func:`factorization_residual`.
    """
    u = require_unitary(u, "u")
    interaction = SwapInteraction(
        u=u, theta=theta, theta_r=theta_r, theta_a=theta_a,
        matrix=tensor(I2, u) @ swap_controlled_phase(theta) @ tensor(
            phase_gate(theta_r), phase_gate(theta_a)
        ),
        gate0=phase_gate(theta_a) @ u @ phase_gate(theta_r),
        gate1=phase_gate(theta + theta_a) @ u @ phase_gate(theta + theta_r),
    )
    if np.any(factorization_residual(interaction) >= FACTORIZATION_ATOL):
        raise FactorizationFailure("swap-phase and ancilla-controlled forms disagree")
    return interaction


def factorization_residual(interaction: SwapInteraction):
    """Distance of the swap-phase matrix from the ancilla-controlled form
    SWAP . C(u R(theta_r), u R(theta + theta_r)) . (I (x) R(theta_a))."""
    u, theta, theta_r = interaction.u, interaction.theta, interaction.theta_r
    alt = (
        swap_gate()
        @ controlled(u @ phase_gate(theta_r), u @ phase_gate(theta + theta_r), control=1)
        @ tensor(I2, phase_gate(interaction.theta_a))
    )
    return frobenius(interaction.matrix - alt)


def action_residual(interaction: SwapInteraction, bit: int):
    """Phase-aligned distance of L L (psi (x) |bit>) from
    gate_bit psi (x) u|bit> over the register basis states psi.

    One global phase per preparation branch is allowed (it is exactly zero
    when both local rotation offsets vanish).
    """
    basis = np.eye(2, dtype=complex)[:, :, None]  # columns
    anc = basis[bit]
    double = interaction.matrix @ interaction.matrix
    out = np.concatenate([double @ tensor(e, anc) for e in basis], axis=-1)
    expected = np.concatenate([tensor(interaction.gate(bit) @ e, interaction.u @ anc) for e in basis], axis=-1)
    return per_matrix(dist_phase, out, expected)


def sandwich(interaction: SwapInteraction) -> tuple[np.ndarray, np.ndarray]:
    """The three-interaction sequence L_j L_k L_j through a |0>-prepared ancilla.

    Returns the closed form
    (R(theta_a) u (x) I) . SCR(theta) . (R(theta_a) u R(theta_r) (x) R(theta_r))
    and the largest distance, over register basis states, between the
    sequence's output and the closed form's output with the ancilla in u|0>.
    """
    l_on_j = embed_gate(interaction.matrix, [2, 0], 3)
    l_on_k = embed_gate(interaction.matrix, [1, 0], 3)
    sequence = l_on_j @ l_on_k @ l_on_j
    dressed_left = phase_gate(interaction.theta_a) @ interaction.u
    closed = (
        tensor(dressed_left, I2)
        @ swap_controlled_phase(interaction.theta)
        @ tensor(dressed_left @ phase_gate(interaction.theta_r), phase_gate(interaction.theta_r))
    )
    anc_in = np.eye(2, dtype=complex)[0]
    return closed, exit_residual(sequence, closed, anc_in, interaction.u @ anc_in)


def entangling_gate(interaction: SwapInteraction) -> np.ndarray:
    """Register gate induced by the :func:`sandwich`, whose ancilla must exit in u|0>."""
    closed, residual = sandwich(interaction)
    if np.any(residual >= SANDWICH_ATOL):
        raise FactorizationFailure(
            f"ancilla failed to decouple in u|0> (residual {np.max(residual):.3e})"
        )
    return closed


def cnot_power_residual(interaction: SwapInteraction) -> float:
    """Phase-insensitive distance of the fourth power of the induced
    entangling gate from CNOT with control on the second register qubit."""
    n = entangling_gate(interaction)
    cnot_low_control = controlled(I2, X, control=1)
    return dist_phase(np.linalg.matrix_power(n, 4), cnot_low_control)


def single_qubit_schedule(interaction: SwapInteraction, bit: int, interaction_name: str = "swap") -> Schedule:
    """Two interactions with one ancilla apply gate0 or gate1."""
    return Schedule(
        register_size=1,
        preps={"a0": bit},
        steps=[Step(interaction_name, 0, "a0"), Step(interaction_name, 0, "a0")],
        interactions={interaction_name: interaction.matrix},
    )


def two_qubit_schedule(interaction: SwapInteraction, interaction_name: str = "swap") -> Schedule:
    """Three interactions (j, k, j) with one |0>-prepared ancilla.

    Register qubit 1 plays the first role (j) and qubit 0 the second (k), so
    the induced operator matches :func:`entangling_gate` directly.
    """
    return Schedule(
        register_size=2,
        preps={"a0": 0},
        steps=[Step(interaction_name, qubit, "a0") for qubit in (1, 0, 1)],
        interactions={interaction_name: interaction.matrix},
    )
