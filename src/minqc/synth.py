"""Single-qubit generator analysis and gate-word synthesis.

A word over a two-element generator set lists generator indices in
*application order*: the word (k1, ..., kn) denotes the operator product
g_{kn} ... g_{k1}, i.e. k1 acts first.  Products are compared to targets up
to global phase throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SearchExhausted
from .linalg import adjoint, dist_phase, frobenius, random_unitary, require_unitary

PLAUSIBLY_UNIVERSAL = "plausibly-universal"
NOT_UNIVERSAL = "not-universal"
INCONCLUSIVE = "inconclusive"

RATIONAL_ANGLE_ATOL = 1e-9
RATIONAL_ANGLE_MAX_DEN = 64
AXIS_PARALLEL_ATOL = 1e-6
_WITNESS_DEPTH = 6

DEFAULT_MAX_WORD_LEN = 24


def _require_gate(g: np.ndarray, name: str, *, stack: bool = False) -> np.ndarray:
    """``g`` as a complex 2x2 unitary, or with ``stack`` a stack of them;
    raises on any other shape, then as :func:`require_unitary`."""
    if (np.shape(g)[-2:] if stack else np.shape(g)) != (2, 2):
        raise DimensionMismatch(f"{name} has shape {np.shape(g)}: synthesis operates on 2x2 gates")
    return require_unitary(g, name)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation form of a 2x2 unitary: e^{i global_phase} e^{i phi (axis . sigma)}.

    phi is reduced to [0, pi/2] by the sign of the SU(2) representative; when
    sin(phi) vanishes the axis is undefined and reported as +z with
    ``degenerate`` set.  For a stack of gates each field holds one entry per gate.
    """

    phi: float
    axis: np.ndarray
    global_phase: float
    degenerate: bool


def _su2_quaternions(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The det-1 representatives of a stack of 2x2 unitaries and their unit
    quaternions (w, x, y, z), su = w I + i (x X + y Y + z Z), sign as it falls."""
    su = mats / np.sqrt(np.linalg.det(mats))[..., None, None]
    a, b, c, d = su[..., 0, 0], su[..., 0, 1], su[..., 1, 0], su[..., 1, 1]
    return su, np.stack([np.real(a + d), np.imag(b + c), np.real(b - c), np.imag(a - d)], axis=-1) / 2


def _rotation(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angle phi in [0, pi/2], unit axis and degeneracy (sin(phi) < 1e-9, axis
    +z) of each unit quaternion of a stack.  Near the identity phi is the
    arcsin of the vector norm: the arccos of a w that rounds to 1 - 1e-16
    reads phi = 1.5e-8, no longer degenerate."""
    sin_norm = frobenius(q[..., None, 1:])
    with np.errstate(invalid="ignore", divide="ignore"):  # the branches np.where drops
        phi = np.where(sin_norm < 1e-6, np.arcsin(sin_norm), np.arccos(np.minimum(np.abs(q[..., 0]), 1.0)))
        sin_phi = np.sin(phi)
        degenerate = sin_phi < 1e-9
        axis = q[..., 1:] / sin_phi[..., None]
        axis = axis / frobenius(axis[..., None, :])[..., None]
    return phi[()], np.where(degenerate[..., None], [0.0, 0.0, 1.0], axis), degenerate


def axis_angle(g: np.ndarray) -> AxisAngle:
    """Extract the rotation angle and unit axis of a 2x2 unitary, or of each of a stack."""
    g = _require_gate(g, "g", stack=True)
    su, q = _su2_quaternions(g)
    phase = np.trace(g @ adjoint(su), axis1=-2, axis2=-1) / 2
    flip = q[..., 0] < 0  # the SU(2) representative with non-negative real trace
    phi, axis, degenerate = _rotation(np.where(flip[..., None], -q, q))
    degenerate = degenerate if degenerate.ndim else bool(degenerate)  # a Python bool for one gate
    return AxisAngle(phi, axis, np.angle(np.where(flip, -phase, phase)), degenerate)


def from_axis_angle(aa: AxisAngle) -> np.ndarray:
    """Rebuild the matrix from its axis-angle form (inverse of :func:`axis_angle`)."""
    nx, ny, nz = np.moveaxis(aa.axis, -1, 0)
    pauli_part = np.stack([np.stack([nz, nx - 1j * ny], -1), np.stack([nx + 1j * ny, -nz], -1)], -2)
    phi = np.asarray(aa.phi)[..., None, None]
    su = np.cos(phi) * np.eye(2) + 1j * np.sin(phi) * pauli_part
    return np.exp(1j * np.asarray(aa.global_phase))[..., None, None] * su


def _quaternions(mats: np.ndarray) -> np.ndarray:
    """Projective unit quaternions (w, x, y, z) of a stack of 2x2 unitaries.

    Row k is the quaternion of ``mats[k]``, sign-canonical: its first
    component above 1e-9 in magnitude is positive.
    """
    q = _su2_quaternions(mats)[1]
    lead = q[np.arange(len(q)), np.argmax(np.abs(q) > 1e-9, axis=1)]
    return np.where(lead[:, None] < 0, -q, q)


def best_rational(x: float) -> tuple[Fraction, float]:
    frac = Fraction(x).limit_denominator(RATIONAL_ANGLE_MAX_DEN)
    return frac, abs(x - float(frac))


def _classify_angle_fraction(x: float) -> str:
    _, err = best_rational(x)
    if err < RATIONAL_ANGLE_ATOL:
        return "rational"
    if err < 10 * RATIONAL_ANGLE_ATOL:
        return "boundary"
    return "irrational"


@dataclass(frozen=True)
class UniversalityReport:
    """Outcome of the two-generator universality heuristic.

    phi_plus / phi_minus are the rotation angles of g0 g1 and g1 g0;
    axis_angle_between is the angle between the lines spanned by their axes.
    rational_angle_flag is set when either product angle over pi matches a
    rational with denominator <= 64.
    """

    phi0: float
    phi1: float
    phi_plus: float
    phi_minus: float
    axis_angle_between: float
    rational_angle_flag: bool
    verdict: str


def _line_angle(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.arccos(np.clip(abs(np.dot(a, b)), 0.0, 1.0)))


def universality_diagnostic(g0: np.ndarray, g1: np.ndarray) -> UniversalityReport:
    """Heuristic verdict on whether words over {g0, g1} are dense in SU(2).

    A pair of rotations with angles that are plausibly irrational multiples
    of pi about non-parallel axes certifies density.  One scan looks for such
    a witness pair among the products of all words up to a small depth: the
    generators, g0 g1 and g1 g0 and the longer words alike (the product
    angles can be rational even for universal pairs).  Commuting generators
    share an axis and are rejected outright.
    """
    g0 = _require_gate(g0, "g0")
    g1 = _require_gate(g1, "g1")
    plus = axis_angle(g0 @ g1)
    minus = axis_angle(g1 @ g0)
    report = dict(
        phi0=axis_angle(g0).phi,
        phi1=axis_angle(g1).phi,
        phi_plus=plus.phi,
        phi_minus=minus.phi,
        axis_angle_between=_line_angle(plus.axis, minus.axis) if not (plus.degenerate or minus.degenerate) else 0.0,
        rational_angle_flag=any(_classify_angle_fraction(aa.phi / np.pi) == "rational" for aa in (plus, minus)),
    )
    if np.linalg.norm(g0 @ g1 - g1 @ g0) < 1e-10:
        return UniversalityReport(verdict=NOT_UNIVERSAL, **report)

    levels = _levels_for(g0, g1)
    phi, axis, _ = _rotation(np.concatenate([levels.level(m).quats for m in range(1, _WITNESS_DEPTH + 1)]))
    # a product without an axis has phi / pi < 1e-9: a rational angle, never a witness
    kinds = [_classify_angle_fraction(p / np.pi) for p in phi]
    axes = axis[[kind == "irrational" for kind in kinds]]
    if np.any(np.arccos(np.clip(np.abs(axes @ axes.T), 0.0, 1.0)) > AXIS_PARALLEL_ATOL):
        return UniversalityReport(verdict=PLAUSIBLY_UNIVERSAL, **report)
    verdict = INCONCLUSIVE if ("boundary" in kinds or len(axes)) else NOT_UNIVERSAL
    return UniversalityReport(verdict=verdict, **report)


@dataclass(frozen=True)
class GateWord:
    """Generator word (application order) with its certified distance to target."""

    bits: tuple[int, ...]
    distance: float

    def __len__(self) -> int:
        return len(self.bits)


def word_product(bits, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Operator product of a word: later letters multiply on the left."""
    gens = (np.asarray(g0, dtype=complex), np.asarray(g1, dtype=complex))
    out = np.eye(2, dtype=complex)
    for k in bits:
        out = gens[k] @ out
    return out


class _Level(NamedTuple):
    """Distinct products of one word length, in the lex order of their lex-first words."""

    parents: np.ndarray  # (N,): the row of the word's first m - 1 letters in level m - 1
    letters: np.ndarray  # (N,): the word's last letter
    products: np.ndarray  # (N, 2, 2)
    quats: np.ndarray  # (N, 4), from _quaternions


# A generic pair has 2^m distinct products at level m, so a long search would
# exhaust memory: building levels 0..18 of a Haar-random pair peaks at 187 MB RSS
# (x86_64, numpy 2.4).  No level that could exceed this size is built.
_MAX_LEVEL_PRODUCTS = 1 << 18
# A pair whose levels grow polynomially never meets that cap, so the products
# held over all levels are bounded too: a doubling pair holds 2^19 - 1 at the
# level cap, well within it.
_MAX_HELD_PRODUCTS = 1 << 20
# Products whose projective quaternions agree within this tolerance are one product, at every epsilon.
_DEDUP_ATOL = 1e-10


class _WordLevels:
    """Length-graded products of a generator pair, deduplicated projectively.

    Level m holds the products of length-m words that no shorter word has,
    each tagged with the lexicographically first word producing it.
    Products merge only when their projective quaternions agree within
    ``_DEDUP_ATOL``: a row is kept when its rounded quaternion, its key, is
    not yet in ``seen``, the keys of every product held.  Built parent-major,
    letter 0 first, the rows run in lex word order (:func:`synthesize` relies
    on it).  Each level is the generators times the one before, so once one
    is empty all later ones are.
    """

    def __init__(self, g0: np.ndarray, g1: np.ndarray):
        self.gens = np.array([g0, g1], dtype=complex)
        identity = np.eye(2, dtype=complex)[None]
        self.levels = [_Level(None, None, identity, _quaternions(identity))]
        self.seen = set(self._keys(self.levels[0].quats))  # probed, never iterated

    def _keys(self, quats: np.ndarray) -> list[bytes]:
        return np.round(quats / _DEDUP_ATOL).astype(np.int64).view("V32").ravel().tolist()

    def level(self, m: int) -> _Level:
        """Level m, built on demand; raises :class:`SearchExhausted` rather
        than build a level that could hold more than ``_MAX_LEVEL_PRODUCTS``
        or bring the products held above ``_MAX_HELD_PRODUCTS``."""
        while len(self.levels) <= m:
            last = self.levels[-1]
            most = 2 * len(last.products)
            if most > _MAX_LEVEL_PRODUCTS:
                raise SearchExhausted(
                    f"level {len(self.levels)} could hold {most} products, above the cap of {_MAX_LEVEL_PRODUCTS}"
                )
            if len(self.seen) + most > _MAX_HELD_PRODUCTS:
                raise SearchExhausted(
                    f"level {len(self.levels)} could bring the products held to {len(self.seen) + most}, "
                    f"above the bound of {_MAX_HELD_PRODUCTS}"
                )
            # row 2i + k is gens[k] @ last.products[i]: parents in order, letter 0 first
            products = (self.gens[None] @ last.products[:, None]).reshape(-1, 2, 2)
            quats = _quaternions(products)
            keep = []  # the rows whose key first appears here, in row order
            for row, key in enumerate(self._keys(quats)):
                if key not in self.seen:
                    self.seen.add(key)
                    keep.append(row)
            keep = np.array(keep, dtype=np.int64)
            self.levels.append(_Level(keep // 2, keep % 2, products[keep], quats[keep]))
        return self.levels[m]

    def word(self, m: int, row: int) -> tuple[int, ...]:
        """The word of row ``row`` of level m, spelled out through its parent rows."""
        letters = []
        for level in self.levels[m:0:-1]:
            letters.append(int(level.letters[row]))
            row = level.parents[row]
        return tuple(letters[::-1])


# Level sets kept for reuse across calls.  Levels depend only on their key,
# so the cache changes no result; its bound caps the memory held.
_LEVELS_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_LEVELS_CACHE_SIZE)
def _cached_levels(g0: bytes, g1: bytes) -> _WordLevels:
    gens = [np.frombuffer(g, dtype=complex).reshape(2, 2) for g in (g0, g1)]
    return _WordLevels(*gens)


def _levels_for(g0: np.ndarray, g1: np.ndarray) -> _WordLevels:
    return _cached_levels(g0.tobytes(), g1.tobytes())


# Slack on the overlap prefilter.  It sits far above the rounding and the
# unitarity drift (< 1e-12 per generator) of the quaternions, so the
# prefilter never rejects a pair that the exact recheck would accept.
_OVERLAP_MARGIN = 1e-9
_MATCH_BLOCK = 1 << 20  # overlap-matrix entries computed at once


def _overlapping_pairs(queries: np.ndarray, points: np.ndarray, min_overlap: float):
    """Index pairs (j, i) with |<queries[j], points[i]>| >= min_overlap, by j
    then by i: this row-major order is :func:`synthesize`'s lex tie-break."""
    rows = max(1, _MATCH_BLOCK // len(points))
    for start in range(0, len(queries), rows):
        j, i = np.nonzero(np.abs(queries[start:start + rows] @ points.T) >= min_overlap)
        yield from zip((j + start).tolist(), i.tolist())


def synthesize(
    g0: np.ndarray,
    g1: np.ndarray,
    target: np.ndarray,
    epsilon: float,
    max_len: int = DEFAULT_MAX_WORD_LEN,
) -> GateWord:
    """Shortest word over {g0, g1} within ``epsilon`` of ``target`` (mod phase).

    Meet-in-the-middle search: words of length n are split as prefix + suffix
    at n//2.  For 2x2 unitaries dist_phase(a, b) = 2 sqrt(1 - |<qa, qb>|) in
    terms of their quaternions, and dist_phase(s p, t) = dist_phase(p, s^dag t),
    so one overlap matrix between the prefix quaternions and every suffix's
    pulled-back target s^dag t finds all pairs within ``epsilon``.  That
    prefilter keeps a small margin, since the overlap form cancels at tiny
    ``epsilon``; each pair it passes is re-checked exactly with
    :func:`dist_phase`.  Level rows are in lex word order, so the first
    (prefix, suffix) pair in row-major order to pass is the lex-first word
    (0 before 1) of minimal length: the result is deterministic.
    """
    g0 = _require_gate(g0, "g0")
    g1 = _require_gate(g1, "g1")
    target = _require_gate(target, "target")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")

    levels = _levels_for(g0, g1)
    min_overlap = 1 - min(epsilon, 2.0)**2 / 4 - _OVERLAP_MARGIN  # every distance is at most 2
    for n in range(max_len + 1):
        try:
            prefixes = levels.level((n + 1) // 2)
            suffixes = levels.level(n // 2)
        except SearchExhausted as exc:
            raise SearchExhausted(
                f"no word of length <= {n - 1} within {epsilon:g} of the target; length {n}: {exc}"
            ) from None
        if not len(prefixes.products):
            break  # every word of length >= n has the product of a shorter word, already searched
        pulled_back = _quaternions(suffixes.products.conj().transpose(0, 2, 1) @ target)
        for i, j in _overlapping_pairs(prefixes.quats, pulled_back, min_overlap):
            dist = dist_phase(suffixes.products[j] @ prefixes.products[i], target)
            if dist < epsilon:
                return GateWord(levels.word((n + 1) // 2, i) + levels.word(n // 2, j), dist)
    raise SearchExhausted(
        f"no word of length <= {max_len} within {epsilon:g} of the target"
    )


def density_probe(
    g0: np.ndarray,
    g1: np.ndarray,
    depth: int,
    samples: int = 1000,
    seed: int = 20,
) -> float:
    """Covering-radius estimate of the word set at the given depth.

    Enumerates all (deduplicated) words up to ``depth``, then reports the
    maximum over a Haar sample of the phase-distance to the nearest word.
    Decreasing values with depth are empirical evidence of density in SU(2).
    """
    g0 = _require_gate(g0, "g0")
    g1 = _require_gate(g1, "g1")
    levels = _levels_for(g0, g1)
    word_mat = np.concatenate([levels.level(m).quats for m in range(depth + 1)])

    rng = np.random.default_rng(seed)
    sample_mat = _quaternions(random_unitary(2, rng, (samples,)))

    # dist_phase(a, b) = 2 sqrt(1 - |<qa, qb>|) for 2x2 unitaries; samples in blocks, as _overlapping_pairs
    rows = max(1, _MATCH_BLOCK // len(word_mat))
    nearest = np.concatenate([np.abs(sample_mat[start:start + rows] @ word_mat.T).max(axis=1)
                              for start in range(0, samples, rows)])
    return float(np.max(2 * np.sqrt(np.maximum(0.0, 1.0 - nearest))))
