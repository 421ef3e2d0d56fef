"""Independent oracles for the benchmark workloads.

Nothing here calls the minqc function whose output it checks.  The synthesis
oracle enumerates every word product by brute force; the schedule oracle
composes the blocks' known register gates on the 2^n identity with plain
numpy; the verify oracle reads the JSON report.
"""
from __future__ import annotations

import json
import re

import numpy as np

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1, np.exp(1j * np.pi / 4)])
THT = T_GATE @ HADAMARD @ T_GATE
HT = HADAMARD @ T_GATE

# Rounding grid of the projective dedup key, and the tolerance under which two
# entry magnitudes count as tied when the key picks its phase pivot.  Distinct
# products of short Clifford+T words differ by far more than either.
_KEY_GRID = 1e7
_PIVOT_TIE = 1e-6


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-random unitary by QR of a Ginibre matrix (the draw of acceptance check 09)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phase_blind_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over alpha of ||a - e^{i alpha} b||_F."""
    overlap = np.vdot(b, a)
    if abs(overlap) > 0:
        b = b * (overlap / abs(overlap))
    return float(np.linalg.norm(a - b))


def _projective_keys(products: np.ndarray) -> list[bytes]:
    """Global-phase-free hash keys of a stack of 2x2 matrices."""
    flat = products.reshape(len(products), 4)
    mags = np.abs(flat)
    pivot = np.argmax(mags >= mags.max(axis=1, keepdims=True) - _PIVOT_TIE, axis=1)
    phase = flat[np.arange(len(flat)), pivot]
    canon = flat * (np.abs(phase) / phase)[:, None]
    grid = np.round(canon.view(np.float64) * _KEY_GRID).astype(np.int64)
    return [row.tobytes() for row in grid]


class WordTable:
    """Every distinct product (up to phase) of words over {g0, g1} up to ``max_len``.

    Breadth first: level m holds the products first reached at length m, each
    tagged with the lexicographically first length-m word giving it.  Entries
    are ordered by (length, word), so the first entry within epsilon of a
    target is the minimal-length, lex-minimal answer.  A word lists generator
    indices in application order, so word (k1..km) is g_km ... g_k1.
    """

    def __init__(self, g0: np.ndarray, g1: np.ndarray, max_len: int):
        gens = np.stack([g0, g1])
        identity = np.eye(2, dtype=complex)
        seen = set(_projective_keys(identity[None]))
        words: list[tuple[int, ...]] = [()]
        chunks = [identity[None]]
        level_words, level = [()], identity[None]
        for _ in range(max_len):
            # candidates ordered (u0+0, u0+1, u1+0, ...): lexicographic, since
            # the level itself is
            cand = np.einsum("kab,nbc->nkac", gens, level).reshape(-1, 2, 2)
            keep = []
            for idx, key in enumerate(_projective_keys(cand)):
                if key not in seen:
                    seen.add(key)
                    keep.append(idx)
            level = cand[keep]
            level_words = [level_words[i // 2] + (i % 2,) for i in keep]
            words.extend(level_words)
            chunks.append(level)
        self.words = words
        self.products = np.concatenate(chunks)

    def __len__(self) -> int:
        return len(self.words)

    def expected(self, target: np.ndarray, epsilon: float) -> tuple[tuple[int, ...], float] | None:
        """(word, distance) that minimal-length, lex-first synthesis must return,
        or None when no word in the table is within ``epsilon``."""
        overlap = np.einsum("nab,ab->n", self.products.conj(), target)
        mag = np.abs(overlap)
        phase = np.where(mag > 0, overlap / np.where(mag > 0, mag, 1), 1)
        diff = target[None] - self.products * phase[:, None, None]
        dist = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))
        hits = np.flatnonzero(dist < epsilon)
        if len(hits) == 0:
            return None
        return self.words[hits[0]], float(dist[hits[0]])


def word_product(bits, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for k in bits:
        out = (g0, g1)[k] @ out
    return out


def apply_on_qubits(op: np.ndarray, num_qubits: int, gate: np.ndarray, targets: list[int]) -> np.ndarray:
    """gate (on ``targets``, identity elsewhere) times op, for an op of 2^n rows.

    Little-endian: qubit q is row-index bit q; ``targets[0]`` is the gate's
    most significant slot.
    """
    m = len(targets)
    axes = [num_qubits - 1 - q for q in targets]
    tensor = op.reshape((2,) * num_qubits + (-1,))
    out = np.tensordot(gate.reshape((2,) * (2 * m)), tensor, axes=(list(range(m, 2 * m)), axes))
    return np.moveaxis(out, list(range(m)), axes).reshape(op.shape)


def dense_reference(num_qubits: int, blocks, block_gates: dict[str, np.ndarray]) -> np.ndarray:
    """Register operator of a block list, composed on the 2^n identity."""
    op = np.eye(2**num_qubits, dtype=complex)
    for kind, qubits in blocks:
        op = apply_on_qubits(op, num_qubits, block_gates[kind], list(qubits))
    return op


_WALL_TIME = re.compile(r'\n\s*"wall_time_s": [^\n]*')


def verify_report_failures(code: int, text: str) -> list[str]:
    """Reasons a ``verify`` invocation failed: nonzero exit or any check not passing."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    bad = [f"{c['suite']}: {c['claim']}" for c in report.get("checks", []) if c.get("pass") is not True]
    if not report.get("checks") or report.get("overall_pass") is not True:
        bad.append("overall_pass is not true")
    return bad


def report_without_wall_time(text: str) -> str:
    """Report bytes with the wall_time_s field removed (the only nondeterministic one)."""
    return _WALL_TIME.sub("", text)
