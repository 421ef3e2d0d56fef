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

# Default tolerance of the unitarity check on constructor arguments.
UNITARY_ATOL = 1e-12


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(m: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    m = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries are simply not unitary
        return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) < atol)


def require_unitary(m: np.ndarray, name: str = "matrix", atol: float = UNITARY_ATOL) -> np.ndarray:
    m = as_matrix(m)
    if not is_unitary(m, atol):
        raise NonUnitaryArgument(f"{name} is not unitary within {atol:g}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; ``a`` acts on the higher-index qubit block."""
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


def phase_aligned_dist(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_F for equal-shape arrays."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.vdot(b, a)
    if abs(overlap) > 0:
        b = b * (overlap / abs(overlap))
    return float(np.linalg.norm(a - b))


def dist_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Global-phase-insensitive distance of unitaries:
    min over alpha of ||a - e^{i alpha} b||_F.

    Computed by aligning b to the optimal phase arg(tr(a^dag b)) and taking the
    Frobenius norm of the difference.  Mathematically identical to the closed
    form sqrt(2d - 2|tr(a^dag b)|), but resolves distances all the way down to
    machine precision, which the closed form cannot (cancellation under the
    square root floors it near 1e-8).
    """
    return phase_aligned_dist(as_matrix(a), as_matrix(b))


def apply_gate(state: np.ndarray, g: np.ndarray, targets: list[int]) -> np.ndarray:
    """Apply ``g`` to the listed qubits of ``state`` (identity elsewhere).

    The first axis of ``state`` holds the 2^n basis amplitudes, little-endian;
    any trailing axes are batch columns, each transformed alike.  Returns an
    array of the same shape.  ``targets[0]`` addresses the highest-index qubit
    slot of ``g``, matching the ``tensor`` convention; order is significant
    for non-symmetric gates.
    """
    g = as_matrix(g)
    state = np.asarray(state)
    n = state.shape[0].bit_length() - 1
    if state.shape[0] != 2**n:
        raise DimensionMismatch(f"state axis of length {state.shape[0]} is not 2**n")
    m = len(targets)
    if g.shape[0] != 2**m:
        raise BadTargets(f"gate dimension {g.shape[0]} does not match {m} targets")
    if len(set(targets)) != m or any(not (0 <= t < n) for t in targets):
        raise BadTargets(f"targets {targets} invalid for {n} qubits")
    # axis for qubit q in the reshaped tensor is n-1-q (row-major, little-endian)
    axes = [n - 1 - t for t in targets]
    moved = np.moveaxis(state.reshape([2] * n + [-1]), axes, range(m))
    block = g @ moved.reshape(2**m, -1)
    return np.moveaxis(block.reshape(moved.shape), range(m), axes).reshape(state.shape)


def embed_gate(g: np.ndarray, targets: list[int], num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n operator acting as ``g`` on ``targets``, identity elsewhere."""
    return apply_gate(np.eye(2**num_qubits, dtype=complex), g, targets)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
