import itertools
import math

import numpy as np
import pytest

from minqc import synth
from minqc.errors import SearchExhausted
from minqc.gates import I2, X, Z, hadamard, t_gate
from minqc.linalg import dist_phase, random_unitary
from minqc.synth import (
    INCONCLUSIVE,
    NOT_UNIVERSAL,
    PLAUSIBLY_UNIVERSAL,
    axis_angle,
    best_rational,
    density_probe,
    from_axis_angle,
    synthesize,
    universality_diagnostic,
    word_product,
)


def aligned_dist_oracle(p, target):
    """Phase-insensitive distance via explicit element alignment, written
    independently of the implementation under test."""
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    alpha = p[idx] / target[idx] if abs(target[idx]) > 1e-12 else 1.0
    alpha = alpha / abs(alpha) if abs(alpha) > 0 else 1.0
    return float(np.linalg.norm(p - alpha * target))


def exhaustive_min_exact_length(gens, target, max_len, tol=1e-10):
    """Breadth-first oracle: least word length whose product hits the target."""
    for n in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            p = np.eye(2, dtype=complex)
            for b in bits:
                p = gens[b] @ p
            if aligned_dist_oracle(p, target) < tol:
                return n
    return None


def words_in_scan_order(gens, max_len):
    """Every word of length 0..max_len with its product, in (length,
    lexicographic) order, built letter by letter without deduplication."""
    words = [()]
    products = [np.eye(2, dtype=complex)]
    level = list(zip(words, products))
    for _ in range(max_len):
        level = [(bits + (k,), gens[k] @ p) for bits, p in level for k in (0, 1)]
        words.extend(bits for bits, _ in level)
        products.extend(p for _, p in level)
    return words, np.array(products)


def first_hit_oracle(words, products, target, epsilon):
    """First scanned word within epsilon of the target, or None.  Distances
    use the closed form sqrt(|p|^2 + |t|^2 - 2|tr(p^dag t)|), minimal over
    phase and accurate to ~1e-8, ample at epsilon ~ 0.3."""
    overlap = np.abs(np.einsum("nij,ij->n", products.conj(), target))
    dists = np.sqrt(np.maximum(0.0, 4.0 - 2.0 * overlap))
    hits = np.flatnonzero(dists < epsilon)
    if len(hits) == 0:
        return None
    return words[hits[0]], float(dists[hits[0]])


def test_product_angles_of_the_h_tht_pair():
    h = hadamard()
    tht = t_gate() @ h @ t_gate()
    plus = axis_angle(h @ tht)
    minus = axis_angle(tht @ h)
    target = np.cos(np.pi / 8) ** 2
    assert abs(np.cos(plus.phi) - target) < 1e-12
    assert abs(np.cos(minus.phi) - target) < 1e-12

    cot = 1 / np.tan(np.pi / 8)
    n_plus = -np.array([cot, -1.0, cot])
    n_plus /= np.linalg.norm(n_plus)
    n_minus = -np.array([cot, 1.0, cot])
    n_minus /= np.linalg.norm(n_minus)
    np.testing.assert_allclose(plus.axis, n_plus, atol=1e-9)
    np.testing.assert_allclose(minus.axis, n_minus, atol=1e-9)
    assert np.linalg.norm(np.cross(plus.axis, minus.axis)) > 0.4


def test_axis_angle_identity_is_degenerate():
    aa = axis_angle(I2)
    assert aa.degenerate
    assert aa.phi == 0.0
    np.testing.assert_allclose(aa.axis, [0.0, 0.0, 1.0])


def test_axis_angle_reconstruction_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        g = random_unitary(2, rng)
        assert dist_phase(from_axis_angle(axis_angle(g)), g) < 1e-11


def test_axis_angle_reconstruction_includes_global_phase():
    rng = np.random.default_rng(43)
    for _ in range(50):
        g = random_unitary(2, rng)
        np.testing.assert_allclose(from_axis_angle(axis_angle(g)), g, atol=1e-10)


def test_best_rational_helper():
    frac, err = best_rational(1 / 3)
    assert frac.numerator == 1 and frac.denominator == 3 and err < 1e-15
    _, err = best_rational(0.4127785699)
    assert err > 1e-9


def test_diagnostic_h_tht_pair():
    report = universality_diagnostic(hadamard(), t_gate() @ hadamard() @ t_gate())
    assert report.verdict == PLAUSIBLY_UNIVERSAL
    assert not report.rational_angle_flag
    assert report.axis_angle_between > 1e-6


def test_diagnostic_t_ht_pair_needs_witness_fallback():
    # both direct products of this pair rotate by exactly pi/3, yet the pair
    # is universal; short words supply irrational-angle witnesses
    report = universality_diagnostic(t_gate(), hadamard() @ t_gate())
    assert abs(report.phi_plus - np.pi / 3) < 1e-12
    assert abs(report.phi_minus - np.pi / 3) < 1e-12
    assert report.rational_angle_flag
    assert report.verdict == PLAUSIBLY_UNIVERSAL


def test_diagnostic_rejects_commuting_pairs():
    assert universality_diagnostic(Z, t_gate()).verdict == NOT_UNIVERSAL
    rng = np.random.default_rng(44)
    for _ in range(10):
        g = random_unitary(2, rng)
        assert universality_diagnostic(g, g).verdict == NOT_UNIVERSAL


def test_diagnostic_finite_projective_group():
    # X and Z generate only finite-order rotations; no witness exists
    assert universality_diagnostic(X, Z).verdict in (NOT_UNIVERSAL, INCONCLUSIVE)


def test_word_product_application_order():
    g0, g1 = t_gate(), hadamard() @ t_gate()
    np.testing.assert_allclose(word_product((0, 1), g0, g1), g1 @ g0, atol=0)
    np.testing.assert_allclose(word_product((), g0, g1), I2, atol=0)


def test_synthesize_trivial_cases():
    g0, g1 = t_gate(), hadamard() @ t_gate()
    assert synthesize(g0, g1, I2, 1e-10).bits == ()
    assert synthesize(g0, g1, g0, 1e-10).bits == (0,)
    assert synthesize(g0, g1, g1, 1e-10).bits == (1,)


def test_synthesize_hadamard_over_t_ht_is_minimal():
    g0, g1 = t_gate(), hadamard() @ t_gate()
    target = hadamard()
    word = synthesize(g0, g1, target, 1e-10)
    minimal = exhaustive_min_exact_length((g0, g1), target, 8)
    assert minimal is not None
    assert len(word.bits) == minimal
    assert aligned_dist_oracle(word_product(word.bits, g0, g1), target) < 1e-10
    assert word.distance < 1e-10


def test_synthesize_lexicographic_tie_break():
    # identical generators: words (0,) and (1,) have the same product
    word = synthesize(X, X, X, 1e-10)
    assert word.bits == (0,)


def test_synthesize_deterministic():
    g0, g1 = hadamard(), t_gate() @ hadamard() @ t_gate()
    rng = np.random.default_rng(45)
    target = random_unitary(2, rng)
    first = synthesize(g0, g1, target, 0.4)
    second = synthesize(g0, g1, target, 0.4)
    assert first.bits == second.bits and first.distance == second.distance


def test_synthesize_exhausts_on_commuting_generators():
    with pytest.raises(SearchExhausted):
        synthesize(Z, t_gate(), X, 0.01, max_len=12)


@pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf, -1.0])
def test_synthesize_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError):
        synthesize(Z, t_gate(), X, epsilon)


@pytest.mark.parametrize("epsilon", [1e-17, 1e-100, 1e-300, 5e-324])
def test_synthesize_at_tiny_epsilon_keeps_the_levels_distinct(epsilon):
    # the dedup keys are quaternions over the dedup tolerance, cast to int64
    g0, g1 = hadamard(), t_gate() @ hadamard() @ t_gate()
    word = synthesize(g0, g1, word_product((1, 0, 1), g0, g1), epsilon, 12)
    assert word.bits == (1, 0, 1) and word.distance == 0.0


def test_level_cache_is_bounded():
    # each epsilon below 1e-9 sets its own dedup tolerance, hence its own levels
    g0, g1 = t_gate(), hadamard() @ t_gate()
    for k in range(10, 15):
        assert synthesize(g0, g1, g1, 10.0**-k).bits == (1,)
    info = synth._cached_levels.cache_info()
    assert info.maxsize == synth._LEVELS_CACHE_SIZE < 5
    assert info.currsize <= info.maxsize


def test_level_cap_exhausts_the_search_before_building_a_larger_level(monkeypatch):
    monkeypatch.setattr(synth, "_MAX_LEVEL_PRODUCTS", 8)
    synth._cached_levels.cache_clear()
    try:
        rng = np.random.default_rng(5)
        g0, g1, target = (random_unitary(2, rng) for _ in range(3))
        # a generic pair doubles each level, so level 4 would hold 16 products
        with pytest.raises(SearchExhausted, match=r"length <= 6 .* length 7: level 4 could hold 16 products"):
            synthesize(g0, g1, target, 1e-9, max_len=44)
        assert [len(level.bits) for level in synth._levels_for(g0, g1).levels] == [1, 2, 4, 8]
    finally:
        synth._cached_levels.cache_clear()


def test_synthesize_recovers_reachable_targets():
    g0, g1 = hadamard(), t_gate() @ hadamard() @ t_gate()
    rng = np.random.default_rng(46)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(4, 15))))
        target = word_product(bits, g0, g1)
        word = synthesize(g0, g1, target, 1e-8)
        assert len(word.bits) <= len(bits)
        assert aligned_dist_oracle(word_product(word.bits, g0, g1), target) < 1e-8
        assert abs(word.distance - dist_phase(word_product(word.bits, g0, g1), target)) < 1e-12


# bounds at which the 16 targets split between found and exhausted words
@pytest.mark.parametrize("pair, max_len", [("H,THT", 12), ("T,HT", 7)])
def test_synthesize_matches_brute_force_scan_in_approximate_regime(pair, max_len):
    h, t = hadamard(), t_gate()
    gens = {"H,THT": (h, t @ h @ t), "T,HT": (t, h @ t)}[pair]
    epsilon = 0.3
    words, products = words_in_scan_order(gens, max_len)
    rng = np.random.default_rng(47)
    found = exhausted = 0
    for _ in range(16):
        target = random_unitary(2, rng)
        expected = first_hit_oracle(words, products, target, epsilon)
        if expected is None:
            with pytest.raises(SearchExhausted):
                synthesize(*gens, target, epsilon, max_len=max_len)
            exhausted += 1
            continue
        word = synthesize(*gens, target, epsilon, max_len=max_len)
        assert word.bits == expected[0]
        assert abs(word.distance - expected[1]) < 1e-9
        # the oracle's letter-by-letter product is the word's product
        assert aligned_dist_oracle(products[words.index(word.bits)], word_product(word.bits, *gens)) < 1e-12
        found += 1
    assert found and exhausted


def test_density_probe_depth_zero_is_max_distance_from_identity():
    radius = density_probe(hadamard(), t_gate() @ hadamard() @ t_gate(), 0)
    assert radius > 1.9


def test_density_probe_commuting_pair_stays_uncovered():
    assert density_probe(Z, t_gate(), 8) > 0.5


def test_density_probe_decreases_with_depth():
    h, tht = hadamard(), t_gate() @ hadamard() @ t_gate()
    assert density_probe(h, tht, 16) < density_probe(h, tht, 8)
