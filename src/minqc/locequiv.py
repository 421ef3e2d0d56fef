"""Local equivalence of two-qubit gates via magic-basis invariants.

Two 4x4 unitaries are locally equivalent when they differ only by single-qubit
unitaries on each side; the (g1, g2) invariant pair computed in the magic
basis is constant exactly on those classes, so equality of invariants decides
equivalence without recovering the dressing unitaries.  Both functions take
a stack of gates along leading axes as well, giving one result per gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, frobenius, require_unitary, tensor

INVARIANT_ATOL = 1e-8

_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)

# Non-entangling classes: local gates share the identity's invariants, and
# local gates composed with SWAP share SWAP's.
_IDENTITY_CLASS = (1.0 + 0.0j, 3.0)
_SWAP_CLASS = (-1.0 + 0.0j, -3.0)


@dataclass(frozen=True)
class LocalInvariants:
    """The (g1, g2) pair, or arrays of them for a stack of gates."""

    g1: complex
    g2: float

    def distance(self, other: "LocalInvariants"):
        g1_gap = np.subtract(self.g1, other.g1)  # hypot: np.abs of a complex array may round otherwise
        return np.maximum(np.hypot(g1_gap.real, g1_gap.imag), abs(self.g2 - other.g2))


def invariants(u: np.ndarray) -> LocalInvariants:
    """Invariant pair of a two-qubit unitary, computed in the magic basis."""
    u = require_unitary(u, "u")
    if u.shape[-2:] != (4, 4):
        raise ValueError("invariants are defined for 4x4 unitaries")
    um = adjoint(_MAGIC) @ u @ _MAGIC
    m = um.swapaxes(-1, -2) @ um
    det = np.linalg.det(u)
    tr2 = np.trace(m, axis1=-2, axis2=-1) ** 2
    g1 = tr2 / (16 * det)
    g2 = (tr2 - np.trace(m @ m, axis1=-2, axis2=-1)) / (4 * det)
    return LocalInvariants(g1, np.real(g2))


def _creates_entanglement(u: np.ndarray) -> np.ndarray:
    """Search fallback: does each gate of a stack map one of 64 seeded random
    product states to an entangled one?"""
    normals = np.random.default_rng(0).standard_normal((64, 4, 2, 1))  # per state: re a, im a, re b, im b
    a, b = normals[:, 0] + 1j * normals[:, 1], normals[:, 2] + 1j * normals[:, 3]
    psi = tensor(a / frobenius(a)[:, None, None], b / frobenius(b)[:, None, None])
    amp = (u[:, None] @ psi)[..., 0]
    # concurrence 2|ad - bc| of amplitudes (a, b, c, d): zero exactly on product states
    gap = amp[..., 0] * amp[..., 3] - amp[..., 1] * amp[..., 2]
    return (2 * np.hypot(gap.real, gap.imag) > 1e-6).any(axis=-1)


def is_entangling(u: np.ndarray) -> bool:
    """True when u can map a product state to an entangled state.

    Gates locally equivalent to the identity or to SWAP preserve product
    states and are excluded.  Decided by invariants; near-class borderline
    cases are settled by the explicit product-state search.
    """
    u = np.asarray(u)
    inv = invariants(u)
    gap = np.minimum(*(inv.distance(LocalInvariants(*c)) for c in (_IDENTITY_CLASS, _SWAP_CLASS)))
    near = np.asarray(gap < INVARIANT_ATOL)
    entangling = np.ones(near.shape, dtype=bool)
    if near.any():
        entangling[near] = _creates_entanglement(u[near])
    return entangling[()]

