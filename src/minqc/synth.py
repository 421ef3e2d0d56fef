"""Single-qubit generator analysis and gate-word synthesis.

A word over a two-element generator set lists generator indices in
*application order*: the word (k1, ..., kn) denotes the operator product
g_{kn} ... g_{k1}, i.e. k1 acts first.  Products are compared to targets up
to global phase throughout.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import SearchExhausted
from .linalg import dist_phase, random_unitary, require_unitary

PLAUSIBLY_UNIVERSAL = "plausibly-universal"
NOT_UNIVERSAL = "not-universal"
INCONCLUSIVE = "inconclusive"

RATIONAL_ANGLE_ATOL = 1e-9
RATIONAL_ANGLE_MAX_DEN = 64
AXIS_PARALLEL_ATOL = 1e-6
_WITNESS_DEPTH = 6

DEFAULT_MAX_WORD_LEN = 24


@dataclass(frozen=True)
class AxisAngle:
    """Rotation form of a 2x2 unitary: e^{i global_phase} e^{i phi (axis . sigma)}.

    phi is reduced to [0, pi/2] by the sign of the SU(2) representative; when
    sin(phi) vanishes the axis is undefined and reported as +z with
    ``degenerate`` set.
    """

    phi: float
    axis: np.ndarray
    global_phase: float
    degenerate: bool


def _su2_representative(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalize det to 1 and pick the branch with non-negative real trace."""
    det = np.linalg.det(g)
    su = g / np.sqrt(det)
    phase = np.trace(g @ su.conj().T) / 2
    if np.real(np.trace(su)) < 0:
        su = -su
        phase = -phase
    return su, float(np.angle(phase))


def axis_angle(g: np.ndarray) -> AxisAngle:
    """Extract the rotation angle and unit axis of a 2x2 unitary."""
    g = require_unitary(g, "g")
    su, global_phase = _su2_representative(g)
    cos_phi = float(np.clip(np.real(su[0, 0] + su[1, 1]) / 2, -1.0, 1.0))
    phi = float(np.arccos(cos_phi))
    sin_phi = np.sin(phi)
    if sin_phi < 1e-9:
        return AxisAngle(phi, np.array([0.0, 0.0, 1.0]), global_phase, True)
    axis = np.array(
        [
            np.imag(su[0, 1] + su[1, 0]) / 2,
            np.real(su[0, 1] - su[1, 0]) / 2,
            np.imag(su[0, 0] - su[1, 1]) / 2,
        ]
    ) / sin_phi
    return AxisAngle(phi, axis / np.linalg.norm(axis), global_phase, False)


def from_axis_angle(aa: AxisAngle) -> np.ndarray:
    """Rebuild the matrix from its axis-angle form (inverse of :func:`axis_angle`)."""
    nx, ny, nz = aa.axis
    pauli_part = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
    su = np.cos(aa.phi) * np.eye(2) + 1j * np.sin(aa.phi) * pauli_part
    return np.exp(1j * aa.global_phase) * su


def _quaternions(mats: np.ndarray) -> np.ndarray:
    """Projective unit quaternions (w, x, y, z) of a stack of 2x2 unitaries.

    Row k is the quaternion of ``mats[k]``, sign-canonical: its first
    component above 1e-9 in magnitude is positive.
    """
    su = mats / np.sqrt(np.linalg.det(mats))[:, None, None]
    a, b, c, d = su[:, 0, 0], su[:, 0, 1], su[:, 1, 0], su[:, 1, 1]
    q = np.stack([np.real(a + d), np.imag(b + c), np.real(b - c), np.imag(a - d)], axis=1) / 2
    lead = q[np.arange(len(q)), np.argmax(np.abs(q) > 1e-9, axis=1)]
    return np.where(lead[:, None] < 0, -q, q)


def best_rational(x: float, max_den: int = RATIONAL_ANGLE_MAX_DEN) -> tuple[Fraction, float]:
    frac = Fraction(x).limit_denominator(max_den)
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
    of pi about non-parallel axes certifies density.  The two generator
    products are tried first; if they fail (their angles can be rational even
    for universal pairs), all words up to a small depth are scanned for such
    a witness pair.  Commuting generators share an axis and are rejected
    outright.
    """
    g0 = require_unitary(g0, "g0")
    g1 = require_unitary(g1, "g1")
    plus = axis_angle(g0 @ g1)
    minus = axis_angle(g1 @ g0)
    between = _line_angle(plus.axis, minus.axis) if not (plus.degenerate or minus.degenerate) else 0.0
    kinds = (_classify_angle_fraction(plus.phi / np.pi), _classify_angle_fraction(minus.phi / np.pi))
    report = dict(
        phi0=axis_angle(g0).phi,
        phi1=axis_angle(g1).phi,
        phi_plus=plus.phi,
        phi_minus=minus.phi,
        axis_angle_between=between,
        rational_angle_flag="rational" in kinds,
    )

    if np.linalg.norm(g0 @ g1 - g1 @ g0) < 1e-10:
        return UniversalityReport(verdict=NOT_UNIVERSAL, **report)

    if kinds == ("irrational", "irrational") and not plus.degenerate and not minus.degenerate \
            and between > AXIS_PARALLEL_ATOL:
        return UniversalityReport(verdict=PLAUSIBLY_UNIVERSAL, **report)

    # Fallback witness scan over short words (includes the generators themselves).
    witnesses: list[AxisAngle] = []
    saw_boundary = "boundary" in kinds
    for _, product in _enumerate_words((g0, g1), _WITNESS_DEPTH):
        aa = axis_angle(product)
        if aa.degenerate:
            continue
        kind = _classify_angle_fraction(aa.phi / np.pi)
        if kind == "boundary":
            saw_boundary = True
        elif kind == "irrational":
            witnesses.append(aa)
    for a, b in itertools.combinations(witnesses, 2):
        if _line_angle(a.axis, b.axis) > AXIS_PARALLEL_ATOL:
            return UniversalityReport(verdict=PLAUSIBLY_UNIVERSAL, **report)
    verdict = INCONCLUSIVE if (saw_boundary or witnesses) else NOT_UNIVERSAL
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
    """Distinct products of one word length: lex-first words and their arrays."""

    bits: list[tuple[int, ...]]
    products: np.ndarray  # (N, 2, 2)
    quats: np.ndarray  # (N, 4), from _quaternions


# A generic pair has 2^m distinct products at level m, so a long search would
# exhaust memory: building level 18 of a Haar-random pair peaks at 247 MB RSS
# (x86_64, numpy 2.4).  No level that could exceed this size is built.
_MAX_LEVEL_PRODUCTS = 1 << 18
# Dedup keys are quaternion entries (|q| <= 1) over the tolerance: at this floor they fit in int64.
_MIN_DEDUP_ATOL = 1e-18


class _WordLevels:
    """Length-graded products of a generator pair, deduplicated projectively.

    Level m holds all distinct products of length-m words, each tagged with
    the lexicographically first word producing it.  Duplicates merge only
    when their projective quaternions agree within ``dedup_atol``, so the
    lex-minimal candidate at any search level is preserved.
    """

    def __init__(self, g0: np.ndarray, g1: np.ndarray, dedup_atol: float = 1e-10):
        self.gens = np.array([g0, g1], dtype=complex)
        self.dedup_atol = dedup_atol
        identity = np.eye(2, dtype=complex)[None]
        self.levels = [_Level([()], identity, _quaternions(identity))]

    def level(self, m: int) -> _Level:
        """Level m, built on demand; raises :class:`SearchExhausted` rather
        than build a level that could hold more than ``_MAX_LEVEL_PRODUCTS``."""
        while len(self.levels) <= m:
            last = self.levels[-1]
            if 2 * len(last.bits) > _MAX_LEVEL_PRODUCTS:
                raise SearchExhausted(
                    f"level {len(self.levels)} could hold {2 * len(last.bits)} products, "
                    f"above the cap of {_MAX_LEVEL_PRODUCTS}"
                )
            # row 2i + k is gens[k] @ last.products[i]: parents in order, letter 0 first
            products = (self.gens[None] @ last.products[:, None]).reshape(-1, 2, 2)
            quats = _quaternions(products)
            keys = np.round(quats / self.dedup_atol).astype(np.int64)
            _, first = np.unique(keys, axis=0, return_index=True)
            keep = np.sort(first)
            bits = [last.bits[i // 2] + (int(i % 2),) for i in keep]
            self.levels.append(_Level(bits, products[keep], quats[keep]))
        return self.levels[m]


# Level sets kept for reuse across calls.  Levels depend only on their key,
# so the cache changes no result; its bound caps the memory held.
_LEVELS_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_LEVELS_CACHE_SIZE)
def _cached_levels(g0: bytes, g1: bytes, dedup_atol: float) -> _WordLevels:
    gens = [np.frombuffer(g, dtype=complex).reshape(2, 2) for g in (g0, g1)]
    return _WordLevels(*gens, dedup_atol)


def _levels_for(g0: np.ndarray, g1: np.ndarray, dedup_atol: float = 1e-10) -> _WordLevels:
    return _cached_levels(g0.tobytes(), g1.tobytes(), float(dedup_atol))


def _enumerate_words(gens: tuple[np.ndarray, np.ndarray], depth: int):
    """All deduplicated words of length 1..depth as (bits, product) pairs."""
    levels = _levels_for(gens[0], gens[1])
    for m in range(1, depth + 1):
        level = levels.level(m)
        yield from zip(level.bits, level.products)


# Slack on the overlap prefilter.  It sits far above the rounding and the
# unitarity drift (< 1e-12 per generator) of the quaternions, so the
# prefilter never rejects a pair that the exact recheck would accept.
_OVERLAP_MARGIN = 1e-9
_MATCH_BLOCK = 1 << 20  # overlap-matrix entries computed at once


def _overlapping_pairs(queries: np.ndarray, points: np.ndarray, min_overlap: float):
    """Index pairs (j, i) with |<queries[j], points[i]>| >= min_overlap."""
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
    :func:`dist_phase`.  Ties at the minimal length break lexicographically
    (0 before 1), so the result is deterministic.
    """
    g0 = require_unitary(g0, "g0")
    g1 = require_unitary(g1, "g1")
    target = require_unitary(target, "target")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")

    d = dist_phase(np.eye(2, dtype=complex), target)
    if d < epsilon:
        return GateWord((), d)

    levels = _levels_for(g0, g1, dedup_atol=max(min(1e-10, epsilon / 10), _MIN_DEDUP_ATOL))
    min_overlap = 1 - epsilon**2 / 4 - _OVERLAP_MARGIN
    for n in range(1, max_len + 1):
        try:
            prefixes = levels.level((n + 1) // 2)
            suffixes = levels.level(n // 2)
        except SearchExhausted as exc:
            raise SearchExhausted(
                f"no word of length <= {n - 1} within {epsilon:g} of the target; length {n}: {exc}"
            ) from None
        pulled_back = _quaternions(suffixes.products.conj().transpose(0, 2, 1) @ target)
        candidates: list[tuple[tuple[int, ...], float]] = []
        for j, i in _overlapping_pairs(pulled_back, prefixes.quats, min_overlap):
            dist = dist_phase(suffixes.products[j] @ prefixes.products[i], target)
            if dist < epsilon:
                candidates.append((prefixes.bits[i] + suffixes.bits[j], dist))
        if candidates:
            bits, dist = min(candidates)
            return GateWord(bits, dist)
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
    g0 = require_unitary(g0, "g0")
    g1 = require_unitary(g1, "g1")
    levels = _levels_for(g0, g1)
    word_mat = np.concatenate([levels.level(m).quats for m in range(depth + 1)])

    rng = np.random.default_rng(seed)
    sample_mat = _quaternions(np.array([random_unitary(2, rng) for _ in range(samples)]))

    # dist_phase(a, b) = 2 sqrt(1 - |<qa, qb>|) for 2x2 unitaries
    overlaps = np.abs(sample_mat @ word_mat.T)
    nearest = overlaps.max(axis=1)
    return float(np.max(2 * np.sqrt(np.maximum(0.0, 1.0 - nearest))))
