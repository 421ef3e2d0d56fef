"""Dense complex linear algebra for few-qubit operators and state arrays.

Conventions, used consistently everywhere in this package:
  * matrices are complex128 ndarrays, row-major;
  * basis ordering is little-endian over qubit labels: qubit 0 is the least
    significant bit of the basis index;
  * ``tensor(a, b)`` places ``a`` on the higher-index qubit block, so for a
    two-qubit operator ``tensor(a, b)`` acts with ``a`` on qubit 1 and ``b``
    on qubit 0;
  * gates act through :func:`apply_in_layout`; :func:`embed_gate` is a copy, not a product.
"""
from __future__ import annotations

import numpy as np

from .errors import BadTargets, DimensionMismatch, NonHermitianInput, NonUnitaryArgument

# Tolerance of the unitarity check on constructor arguments.
UNITARY_ATOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """``m`` as a complex square matrix, or a stack of them along leading axes."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def per_matrix(f, *stacks: np.ndarray):
    """``f`` of each matrix of stacks with one leading shape, one call per
    matrix: a float for matrices with no leading axes, else an array of that shape."""
    lead = stacks[0].shape[:-2]
    out = np.empty(lead)
    for idx in np.ndindex(lead):
        out[idx] = f(*(s[idx] for s in stacks))
    return out[()]


def _squared_norms(m: np.ndarray):
    m = np.asarray(m)
    flat = m.reshape(m.shape[:-2] + (1, -1))
    if flat.dtype.kind != "c":
        return (flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    re, im = flat.real, flat.imag
    return (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def frobenius(m: np.ndarray):
    """Frobenius norm of a real or complex matrix, or of each matrix of a
    stack (a float for one).

    The bits are those of ``np.linalg.norm`` on each C-ordered matrix, which
    the batched ``axis=(-2, -1)`` form does not keep: the same BLAS dot
    products (of the real and of the imaginary parts), one row-by-column
    product each.
    """
    return np.sqrt(_squared_norms(m))


# Budget of one row block of the unitarity check's Gram matrix m^dag m.
_GRAM_BLOCK_BYTES = 8 << 20


def is_unitary(m: np.ndarray):
    """Whether ||m^dag m - I||_F < UNITARY_ATOL: a bool, or one per matrix of a stack.

    The Gram matrix is formed a block of rows of m^dag at a time, so no
    full-size conjugate or product of a large matrix exists.
    """
    m = as_matrix(m)
    dim = m.shape[-1]
    rows = max(1, _GRAM_BLOCK_BYTES * dim // max(m.nbytes, 1))
    squares = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries are simply not unitary
        for start in range(0, dim, rows):
            gram = adjoint(m[..., start:start + rows]) @ m
            # the block's part of m^dag m - I, in place: a fresh product is C-contiguous
            gram.reshape(gram.shape[:-2] + (-1,))[..., start :: dim + 1] -= 1
            squares = squares + _squared_norms(gram)
            del gram  # so the next block's product does not coexist with it
        return np.sqrt(squares) < UNITARY_ATOL


def require_unitary(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    if not is_unitary(m).all():
        raise NonUnitaryArgument(f"{name} is not unitary within {UNITARY_ATOL:g}")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, or over the last two axes of two
    matrices or stacks of them (a stack of vectors is a stack of (d, 1)
    columns); ``a`` acts on the higher-index qubit block."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def herm_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, or each matrix of a stack, via
    eigendecomposition (exact, no series)."""
    h = as_matrix(h)
    if np.any(frobenius(h - adjoint(h)) >= 1e-10):
        raise NonHermitianInput("herm_exp requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ adjoint(v)


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


def exit_residual(op: np.ndarray, gate: np.ndarray, anc_in: np.ndarray, anc_out: np.ndarray):
    """Largest ||op (e (x) anc_in) - (gate e) (x) anc_out|| over basis states e: zero
    exactly when ``op`` applies ``gate`` to every register input, taking its
    ancilla (the low slot) from ``anc_in`` to ``anc_out``.  Stacks of operators,
    gates and ancilla vectors give one residual per stacked instance."""
    anc_in, anc_out = anc_in[..., :, None], anc_out[..., :, None]
    return np.max([
        frobenius(op @ tensor(e, anc_in) - tensor(gate @ e, anc_out))
        for e in np.eye(gate.shape[-1], dtype=complex)[:, :, None]
    ], axis=0)


def apply_in_layout(
    block: np.ndarray, layout: list[int], g: np.ndarray, axes: list[int], *, stack: int = 0
) -> tuple[np.ndarray, list[int]]:
    """The product of ``g`` with ``axes`` of ``block``, and the product's layout.

    Past its first ``stack`` axes, axis ``stack + k`` of ``block`` holds
    logical axis ``layout[k]``.  The target axes, named logically and in
    ``g``'s slot order, move to the front in one copy and take one product
    with ``g``.  The product stays in that order: its layout is the targets,
    then the other axes in their previous order.  A caller that applies
    several gates keeps the returned layout and transposes once at the end.
    """
    where = [layout.index(a) for a in axes]
    order = where + [k for k in range(len(layout)) if k not in where]
    moved = block.transpose(list(range(stack)) + [stack + k for k in order])
    product = g @ moved.reshape(block.shape[:stack] + (g.shape[-1], -1))
    return product.reshape(moved.shape), [layout[k] for k in order]


def embed_gate(g: np.ndarray, targets: list[int], num_qubits: int, columns: slice = slice(None)) -> np.ndarray:
    """The ``columns`` (all by default) of the dense 2^n x 2^n operator acting
    as ``g`` on ``targets``, identity elsewhere; one per gate of a stack.

    ``targets[0]`` addresses the highest-index qubit slot of ``g``, matching
    the ``tensor`` convention.  No product is taken: column c is g's column
    t(c), the slot index of c's target bits, plus 0.0, on the rows whose other
    bits equal c's, and zero elsewhere.  These are the bits of ``g`` times
    identity columns by sums that start from 0.0, so a -0.0 of ``g`` gives 0.0.
    """
    g = as_matrix(g)
    m, dim = len(targets), 2**num_qubits
    if g.shape[-1] != 2**m:
        raise BadTargets(f"gate dimension {g.shape[-1]} does not match {m} targets")
    if len(set(targets)) != m or any(not (0 <= t < num_qubits) for t in targets):
        raise BadTargets(f"targets {targets} invalid for {num_qubits} qubits")
    if m == num_qubits and all(t == m - 1 - i for i, t in enumerate(targets)):  # g in its own index order
        return g[..., :, columns] + 0.0
    cols = np.arange(dim)[columns]
    bits = np.left_shift(1, targets)  # each target's bit of a basis index
    slot_bits = np.left_shift(1, np.arange(m - 1, -1, -1))  # its bit of g's index, targets[0] the highest
    sub = (cols[:, None] & bits > 0) @ slot_bits
    places = (np.arange(2**m)[:, None] & slot_bits > 0) @ bits  # g's index -> the target bits
    rows = (cols & ~bits.sum()) | places[:, None]
    out = np.zeros(g.shape[:-2] + (dim, len(cols)), dtype=complex)
    out[..., rows, np.arange(len(cols))] = g[..., :, sub] + 0.0
    return out


def random_unitary(dim: int, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random unitary, or a ``size`` stack of them: :func:`ginibre_unitary`
    of one draw of normals, so a stack draws what as many single calls do."""
    return ginibre_unitary(rng.standard_normal(tuple(size) + (2, dim, dim)))


def ginibre_unitary(normals: np.ndarray) -> np.ndarray:
    """The Haar unitary of a Ginibre matrix via QR: ``normals[..., 0, :, :]``
    and ``normals[..., 1, :, :]`` are its real and imaginary parts."""
    z = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
