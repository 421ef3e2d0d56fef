"""Dense complex linear algebra for few-qubit operators and state arrays.

Conventions, used consistently everywhere in this package:
  * matrices are complex128 ndarrays, row-major;
  * basis ordering is little-endian over qubit labels: qubit 0 is the least
    significant bit of the basis index;
  * ``tensor(a, b)`` places ``a`` on the higher-index qubit block, so for a
    two-qubit operator ``tensor(a, b)`` acts with ``a`` on qubit 1 and ``b``
    on qubit 0.
"""
from __future__ import annotations

import numpy as np

from .errors import BadTargets, DimensionMismatch, NonHermitianInput, NonUnitaryArgument

# Tolerance of the unitarity check on constructor arguments.
UNITARY_ATOL = 1e-12


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(m: np.ndarray) -> bool:
    m = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries are simply not unitary
        gram = m.conj().T @ m
        gram.reshape(-1)[:: len(m) + 1] -= 1  # m^dag m - I in place: a fresh product is C-contiguous
        return bool(np.linalg.norm(gram) < UNITARY_ATOL)


def require_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    if not is_unitary(m):
        raise NonUnitaryArgument(f"{name} is not unitary within {UNITARY_ATOL:g}")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices or of two vectors; ``a`` acts
    on the higher-index qubit block."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    a, b = as_matrix(a), as_matrix(b)
    dim = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)


def herm_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, via eigendecomposition (exact, no series)."""
    h = as_matrix(h)
    if np.linalg.norm(h - h.conj().T) >= 1e-10:
        raise NonHermitianInput("herm_exp requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def dist_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-insensitive distance of two equal-shape arrays:
    min over alpha of ||a - e^{i alpha} b||_F.

    Aligns b to the optimal phase arg(<b, a>) and takes the Frobenius norm of
    the difference.  Unlike the equal closed form sqrt(|a|^2 + |b|^2 - 2|<b, a>|),
    this resolves distances down to machine precision (cancellation under the
    square root floors the closed form near 1e-8).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.vdot(b, a)
    mag = abs(overlap)
    # one full-size temporary, laid out as numpy lays out a - b (C unless both are
    # Fortran) so the norm sums in the same order: the phase-aligned b, less a in place
    order = "A" if a.flags.f_contiguous else "C"
    diff = np.multiply(b, overlap / mag, order=order) if mag > 0 else np.array(b, order=order)
    diff -= a  # b - a is -(a - b) exactly, so the norm has the same bits
    return float(np.linalg.norm(diff))


def exit_residual(op: np.ndarray, gate: np.ndarray, anc_in: np.ndarray, anc_out: np.ndarray) -> float:
    """Largest ||op (e (x) anc_in) - (gate e) (x) anc_out|| over basis states e: zero
    exactly when ``op`` applies ``gate`` to every register input, taking its
    ancilla (the low slot) from ``anc_in`` to ``anc_out``."""
    return max(
        float(np.linalg.norm(op @ tensor(e, anc_in) - tensor(gate @ e, anc_out)))
        for e in np.eye(len(gate), dtype=complex)
    )


def apply_gate(state: np.ndarray, g: np.ndarray, targets: list[int], *, stack: int = 0) -> np.ndarray:
    """Apply ``g`` to the listed qubits of ``state`` (identity elsewhere).

    The first ``stack`` axes of ``state`` index states that each take their
    own product with ``g``; the next holds the 2^n basis amplitudes,
    little-endian; any trailing axes are batch columns, transformed alike in
    one product.  Returns an array of the same shape.  ``targets[0]``
    addresses the highest-index qubit slot of ``g``, matching the ``tensor``
    convention; order is significant for non-symmetric gates.
    """
    g = as_matrix(g)
    state = np.asarray(state)
    lead = state.shape[:stack]
    n = state.shape[stack].bit_length() - 1
    if state.shape[stack] != 2**n:
        raise DimensionMismatch(f"state axis of length {state.shape[stack]} is not 2**n")
    m = len(targets)
    if g.shape[0] != 2**m:
        raise BadTargets(f"gate dimension {g.shape[0]} does not match {m} targets")
    if len(set(targets)) != m or any(not (0 <= t < n) for t in targets):
        raise BadTargets(f"targets {targets} invalid for {n} qubits")
    # axis for qubit q in the reshaped tensor is stack+n-1-q (row-major, little-endian)
    axes = [stack + n - 1 - t for t in targets]
    order = [*range(stack), *axes, *(a for a in range(stack, stack + n + 1) if a not in axes)]
    moved = state.reshape(lead + (2,) * n + (-1,)).transpose(order)
    block = g @ moved.reshape(lead + (2**m, -1))
    return block.reshape(moved.shape).transpose(np.argsort(order)).reshape(state.shape)


def embed_gate(g: np.ndarray, targets: list[int], num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n operator acting as ``g`` on ``targets``, identity elsewhere."""
    return apply_gate(np.eye(2**num_qubits, dtype=complex), g, targets)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
