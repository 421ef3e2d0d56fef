"""First minimal-control model: a dressed controlled-Z interaction.

The fixed register-ancilla gate is (u (x) H) . CZ . (v (x) I) with the
register on the first (higher) tensor slot.  Preparing the ancilla in |i>
deterministically applies one of two selected gates, gate0 = u v or
gate1 = u Z v, to the register qubit, with the ancilla always exiting in
H|i>.  A four-interaction sandwich around inverse-gate words implements an
entangling register gate locally equivalent to CZ; the words cost two fresh
ancillas per letter, prepared per the word's bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, SearchExhausted
from .gates import I2, X, Z, controlled, cz_gate, hadamard
from .linalg import dagger, dist_phase, embed_gate, require_unitary, tensor
from .simulator import Schedule, Step
from .synth import (
    NOT_UNIVERSAL,
    DEFAULT_MAX_WORD_LEN,
    GateWord,
    synthesize,
    universality_diagnostic,
)

EXACT_WORD_ATOL = 1e-12
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
    if factorization_residual(interaction) >= FACTORIZATION_ATOL:
        raise FactorizationFailure("dressed-CZ and ancilla-controlled forms disagree")
    return interaction


def factorization_residual(interaction: CZInteraction) -> float:
    """Distance of the dressed-CZ matrix from (I (x) H) . C(gate0, gate1),
    the ancilla-controlled form (control on the ancilla slot)."""
    alt = tensor(I2, hadamard()) @ controlled(interaction.gate0, interaction.gate1, control=1)
    return float(np.linalg.norm(interaction.matrix - alt))


def action_residual(interaction: CZInteraction, bit: int) -> float:
    """Largest |K (psi (x) |bit>) - gate_bit psi (x) H|bit>| over basis states psi."""
    anc = np.zeros(2, dtype=complex)
    anc[bit] = 1.0
    h_anc = hadamard() @ anc
    return max(
        float(np.linalg.norm(
            interaction.matrix @ np.kron(col, anc) - np.kron(interaction.gate(bit) @ col, h_anc)
        ))
        for col in np.eye(2, dtype=complex)
    )


def sandwich(interaction: CZInteraction) -> tuple[np.ndarray, np.ndarray, float]:
    """The four-interaction sandwich K_k K_j (gate0^dag (x) gate0^dag (x) I)
    K_k K_j on (j, k, ancilla).

    Returns the three-qubit operator, the induced register gate
    (u (x) u) . CZ . (v (x) v), and the Frobenius distance between the
    operator and the induced gate times the ancilla identity.
    """
    k_on_j = embed_gate(interaction.matrix, [2, 0], 3)
    k_on_k = embed_gate(interaction.matrix, [1, 0], 3)
    inverse_pair = embed_gate(tensor(dagger(interaction.gate0), dagger(interaction.gate0)), [2, 1], 3)
    sequence = k_on_k @ k_on_j @ inverse_pair @ k_on_k @ k_on_j
    induced = tensor(interaction.u, interaction.u) @ cz_gate() @ tensor(interaction.v, interaction.v)
    return sequence, induced, float(np.linalg.norm(sequence - tensor(induced, I2)))


def entangling_gate(interaction: CZInteraction) -> np.ndarray:
    """Register gate induced by the :func:`sandwich`, whose ancilla factor must be I."""
    _, induced, residual = sandwich(interaction)
    if residual >= SANDWICH_ATOL:
        raise FactorizationFailure(
            f"ancilla failed to decouple from the register (residual {residual:.3e})"
        )
    return induced


def expand_gate0_inverse(
    interaction: CZInteraction,
    epsilon: float,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> GateWord:
    """Word over {gate0, gate1} approximating gate0^dagger.

    Exact words (distance below 1e-12) are preferred over shorter approximate
    ones whenever one exists within the depth bound.
    """
    target = dagger(interaction.gate0)
    identity_dist = dist_phase(I2, target)
    if identity_dist < EXACT_WORD_ATOL and identity_dist < epsilon:
        return GateWord((), identity_dist)
    report = universality_diagnostic(interaction.gate0, interaction.gate1)
    if report.verdict == NOT_UNIVERSAL:
        raise ValueError("selected gate pair fails the universality diagnostic")
    if epsilon > EXACT_WORD_ATOL:
        try:
            return synthesize(interaction.gate0, interaction.gate1, target, EXACT_WORD_ATOL, max_len)
        except SearchExhausted:
            pass
    return synthesize(interaction.gate0, interaction.gate1, target, epsilon, max_len)


def single_qubit_schedule(
    interaction: CZInteraction, bit: int, interaction_name: str = "cz"
) -> Schedule:
    """One interaction with one prepared ancilla applies gate0 or gate1."""
    return Schedule(
        register_size=1,
        preps={"a0": bit},
        steps=[Step(interaction_name, 0, "a0")],
        interactions={interaction_name: interaction.matrix},
    )


def two_qubit_schedule(
    interaction: CZInteraction,
    word: GateWord,
    interaction_name: str = "cz",
) -> Schedule:
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
