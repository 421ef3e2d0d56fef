"""First minimal-control model: a dressed controlled-Z interaction.

The fixed register-ancilla gate is (u (x) H) . CZ . (v (x) I) with the
register on the first (higher) tensor slot.  Preparing the ancilla in |i>
deterministically applies one of two selected gates, gate0 = u v or
gate1 = u Z v, to the register qubit, with the ancilla always exiting in
H|i>.  A four-interaction sandwich around inverse-gate words implements an
entangling register gate locally equivalent to CZ; the words cost two fresh
ancillas per letter, prepared per the word's bits.

The constructors and residuals take stacks of dressing unitaries along
leading axes as well, one instance (and one residual) per stacked pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure
from .gates import I2, X, Z, controlled, cz_gate, hadamard
from .linalg import adjoint, embed_gate, exit_residual, frobenius, require_unitary, tensor
from .simulator import Schedule, Step
from .synth import GateWord

# Identity tolerances: the constructors raise at them, ``minqc verify`` reports against them.
FACTORIZATION_ATOL = 1e-12
ACTION_ATOL = 1e-12
SANDWICH_ATOL = 1e-11
MEDIATED_LOOP_ATOL = 1e-12
PAULI_LOOP_ATOL = 1e-14


@dataclass(frozen=True)
class CZInteraction:
    u: np.ndarray
    v: np.ndarray
    matrix: np.ndarray
    gate0: np.ndarray
    gate1: np.ndarray

    def gate(self, bit: int) -> np.ndarray:
        return self.gate0 if bit == 0 else self.gate1


def cz_interaction(u: np.ndarray, v: np.ndarray) -> CZInteraction:
    """Build the interaction from its dressing unitaries.

    Both factorizations are constructed and cross-checked by
    :func:`factorization_residual`.
    """
    u = require_unitary(u, "u")
    v = require_unitary(v, "v")
    interaction = CZInteraction(
        u=u, v=v, matrix=tensor(u, hadamard()) @ cz_gate() @ tensor(v, I2),
        gate0=u @ v, gate1=u @ Z @ v,
    )
    if np.any(factorization_residual(interaction) >= FACTORIZATION_ATOL):
        raise FactorizationFailure("dressed-CZ and ancilla-controlled forms disagree")
    return interaction


def factorization_residual(interaction: CZInteraction):
    """Distance of the dressed-CZ matrix from (I (x) H) . C(gate0, gate1),
    the ancilla-controlled form (control on the ancilla slot)."""
    alt = tensor(I2, hadamard()) @ controlled(interaction.gate0, interaction.gate1, control=1)
    return frobenius(interaction.matrix - alt)


def action_residual(interaction: CZInteraction, bit: int):
    """Largest |K (psi (x) |bit>) - gate_bit psi (x) H|bit>| over basis states psi."""
    anc = np.eye(2, dtype=complex)[bit]
    return exit_residual(interaction.matrix, interaction.gate(bit), anc, hadamard() @ anc)


def sandwich(interaction: CZInteraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four-interaction sandwich K_k K_j (gate0^dag (x) gate0^dag (x) I)
    K_k K_j on (j, k, ancilla).

    Returns the three-qubit operator, the induced register gate
    (u (x) u) . CZ . (v (x) v), and the Frobenius distance between the
    operator and the induced gate times the ancilla identity.
    """
    k_on_j = embed_gate(interaction.matrix, [2, 0], 3)
    k_on_k = embed_gate(interaction.matrix, [1, 0], 3)
    inverse_pair = embed_gate(tensor(adjoint(interaction.gate0), adjoint(interaction.gate0)), [2, 1], 3)
    sequence = k_on_k @ k_on_j @ inverse_pair @ k_on_k @ k_on_j
    induced = tensor(interaction.u, interaction.u) @ cz_gate() @ tensor(interaction.v, interaction.v)
    return sequence, induced, frobenius(sequence - tensor(induced, I2))


def entangling_gate(interaction: CZInteraction) -> np.ndarray:
    """Register gate induced by the :func:`sandwich`, whose ancilla factor must be I."""
    _, induced, residual = sandwich(interaction)
    if np.any(residual >= SANDWICH_ATOL):
        raise FactorizationFailure(
            f"ancilla failed to decouple from the register (residual {np.max(residual):.3e})"
        )
    return induced


def single_qubit_schedule(interaction: CZInteraction, bit: int, interaction_name: str = "cz") -> Schedule:
    """One interaction with one prepared ancilla applies gate0 or gate1."""
    return Schedule(
        register_size=1,
        preps={"a0": bit},
        steps=[Step(interaction_name, 0, "a0")],
        interactions={interaction_name: interaction.matrix},
    )


def two_qubit_schedule(interaction: CZInteraction, word: GateWord, interaction_name: str = "cz") -> Schedule:
    """Full minimal-control schedule for the induced entangling gate.

    Register qubit 1 plays the first role (j) and qubit 0 the second (k), so
    the induced operator matches :func:`entangling_gate` directly.  Layout:
    the two opening interactions with the entangling ancilla, the inverse
    word on each register qubit (one fresh ancilla per letter, prepared in
    that letter), then the two closing interactions.
    """
    steps = [Step(interaction_name, 1, "e"), Step(interaction_name, 0, "e")]
    preps = {"e": 0}
    for qubit, tag in ((1, "j"), (0, "k")):
        for idx, bit in enumerate(word.bits, start=1):
            ancilla = f"w{tag}{idx}"
            preps[ancilla] = bit
            steps.append(Step(interaction_name, qubit, ancilla))
    steps += [Step(interaction_name, 1, "e"), Step(interaction_name, 0, "e")]
    return Schedule(
        register_size=2,
        preps=preps,
        steps=steps,
        interactions={interaction_name: interaction.matrix},
    )


def mediated_cz_residuals() -> tuple[float, float]:
    """Residuals of the controlled-displacement loop identity behind the model.

    Alternating controlled-X and controlled-Z from two register qubits onto
    one ancilla composes to a controlled-Z between the register qubits with
    the ancilla untouched: C^k_a X . C^j_a Z . C^k_a X . C^j_a Z = C^j_k Z.
    Returns the loop's Frobenius distance from C^j_k Z and that of XZXZ
    from -I.
    """
    cx_ka = embed_gate(controlled(I2, X), [1, 0], 3)
    cz_ja = embed_gate(cz_gate(), [2, 0], 3)
    loop = cx_ka @ cz_ja @ cx_ka @ cz_ja
    return (
        float(np.linalg.norm(loop - embed_gate(cz_gate(), [2, 1], 3))),
        float(np.linalg.norm(X @ Z @ X @ Z + I2)),
    )
