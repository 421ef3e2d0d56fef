"""Constructors for the named one- and two-qubit gates.

Two-qubit matrices follow the package convention: the first tensor slot is
the higher-index qubit.  ``controlled(u, v, control=0)`` puts the control on
that first slot; pass ``control=1`` to condition on the second slot instead.
"""
from __future__ import annotations

import numpy as np

from .linalg import require_unitary, tensor

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def _phase_diagonal(dim: int, theta) -> np.ndarray:
    """diag(1, ..., 1, e^{i theta}) of size dim; a stack of them for an array of angles."""
    phase = np.exp(1j * np.asarray(theta))
    gate = np.zeros(phase.shape + (dim * dim,), dtype=complex)
    gate[..., :: dim + 1] = 1
    gate[..., -1] = phase
    return gate.reshape(phase.shape + (dim, dim))


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def phase_gate(theta) -> np.ndarray:
    """diag(1, e^{i theta}); a stack of them for an array of angles."""
    return _phase_diagonal(2, theta)


def t_gate() -> np.ndarray:
    return phase_gate(np.pi / 4)


def controlled(u: np.ndarray, v: np.ndarray, control: int = 0) -> np.ndarray:
    """Two-qubit gate applying ``u`` when the control qubit is |0>, ``v`` when |1>."""
    u = require_unitary(u, "u")
    v = require_unitary(v, "v")
    if control == 0:
        return tensor(_P0, u) + tensor(_P1, v)
    if control == 1:
        return tensor(u, _P0) + tensor(v, _P1)
    raise ValueError("control slot must be 0 (first/high) or 1 (second/low)")


def swap_gate() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def cz_gate() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def cnot_gate() -> np.ndarray:
    """Controlled-X, control on the first (higher) slot."""
    return controlled(I2, X)


def controlled_phase(theta) -> np.ndarray:
    """diag(1, 1, 1, e^{i theta}); symmetric in the two qubits.  A stack of
    them for an array of angles."""
    return _phase_diagonal(4, theta)


def swap_controlled_phase(theta) -> np.ndarray:
    """SWAP composed with a controlled phase."""
    return swap_gate() @ controlled_phase(theta)


def sct_gate() -> np.ndarray:
    """SWAP followed by a controlled pi/4 phase."""
    return swap_controlled_phase(np.pi / 4)


def param_u2(eta: float, phi: float, psi: float, theta: float) -> np.ndarray:
    """Four-angle parametrization covering all of U(2).

    e^{i eta} [[e^{i phi} cos(theta),  e^{-i psi} sin(theta)],
               [e^{i psi} sin(theta), -e^{-i phi} cos(theta)]]
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.exp(1j * eta) * np.array(
        [
            [np.exp(1j * phi) * c, np.exp(-1j * psi) * s],
            [np.exp(1j * psi) * s, -np.exp(-1j * phi) * c],
        ],
        dtype=complex,
    )
