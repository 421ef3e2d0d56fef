import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minqc import synth
from minqc.errors import DimensionMismatch, SearchExhausted
from minqc.gates import I2, X, Z, cnot_gate, cz_gate, hadamard, phase_gate, swap_gate, t_gate
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


def scan_distances(products, target):
    """Phase-blind distances by the closed form sqrt(|p|^2 + |t|^2 -
    2|tr(p^dag t)|), minimal over phase.  Rounding of ~1e-14 under the
    square root leaves an error of about 1e-14/d at distance d, and up to
    ~1e-7 near d = 0: ample to pick the words within epsilon >= 0.05, not to
    give a near-exact hit's distance."""
    overlap = np.abs(np.einsum("nij,ij->n", products.conj(), target))
    return np.sqrt(np.maximum(0.0, 4.0 - 2.0 * overlap))


def aligned_frobenius(p, target):
    """min over alpha of ||p - e^{i alpha} target||_F, exact to rounding: the
    target is turned to the phase of <target, p>, the optimum, and subtracted."""
    overlap = np.vdot(target, p)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(p - phase * target))


def first_hit_oracle(words, products, target, epsilon):
    """First scanned word within epsilon of the target and its distance, or None."""
    hits = np.flatnonzero(scan_distances(products, target) < epsilon)
    if len(hits) == 0:
        return None
    return words[hits[0]], aligned_frobenius(products[hits[0]], target)


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


def test_axis_angle_reads_a_product_at_the_identity_as_degenerate():
    # this word's product is I within 1e-15; the arccos of its cosine alone reads 1.49e-8
    g1 = hadamard() @ phase_gate(np.pi / 3) @ hadamard()
    aa = axis_angle(word_product((0, 1, 0, 1), phase_gate(np.pi), g1))
    assert aa.degenerate
    assert aa.phi < 1e-15


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


def reference_verdict(g0, g1):
    """The verdict of a per-word ``axis_angle`` scan over every word of length 1..6."""
    def kind(phi):
        _, err = best_rational(phi / np.pi)
        return "rational" if err < 1e-9 else "boundary" if err < 1e-8 else "irrational"

    def line(a, b):
        return np.arccos(np.clip(abs(np.dot(a.axis, b.axis)), 0.0, 1.0))

    if np.linalg.norm(g0 @ g1 - g1 @ g0) < 1e-10:
        return NOT_UNIVERSAL
    words = [bits for m in range(1, 7) for bits in itertools.product((0, 1), repeat=m)]
    rotations = [axis_angle(word_product(bits, g0, g1)) for bits in words]
    kinds = [kind(aa.phi) for aa in rotations]
    witnesses = [aa for aa, k in zip(rotations, kinds) if k == "irrational"]
    if any(line(a, b) > 1e-6 for a, b in itertools.combinations(witnesses, 2)):
        return PLAUSIBLY_UNIVERSAL
    return INCONCLUSIVE if "boundary" in kinds or witnesses else NOT_UNIVERSAL


@st.composite
def diagnostic_pairs(draw):
    """A Haar pair, a finite-group pair, two rational phase gates R(pi p/q)
    (the second about x when conjugated by H), or an R(angle) with X."""
    kind = draw(st.sampled_from(["haar", "finite", "rational", "same-axis"]))
    if kind == "haar":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_unitary(2, rng), random_unitary(2, rng)
    if kind == "finite":
        return draw(st.sampled_from(FINITE_PAIRS))
    if kind == "same-axis":
        return phase_gate(draw(st.floats(0.1, 3.0))), X
    p0, p1 = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    q0, q1 = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    g1 = phase_gate(np.pi * p1 / q1)
    return phase_gate(np.pi * p0 / q0), hadamard() @ g1 @ hadamard() if draw(st.booleans()) else g1


@settings(max_examples=150, deadline=None)
@given(diagnostic_pairs())
@example(pair=(phase_gate(1.0), X))
@example(pair=(t_gate(), hadamard() @ t_gate()))
@example(pair=(Z, hadamard() @ phase_gate(np.pi / 3) @ hadamard()))  # words whose product rounds near I
def test_diagnostic_verdict_matches_the_per_product_reference(pair):
    assert universality_diagnostic(*pair).verdict == reference_verdict(*pair)


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


def test_synthesize_stops_once_a_finite_group_pair_stops_growing():
    # {Z, T} reach only the 8 powers of T: the search ends as soon as a
    # length adds no new product, with the ordinary exhaustion text
    synth._cached_levels.cache_clear()
    start = time.perf_counter()
    with pytest.raises(SearchExhausted) as long_search:
        synthesize(Z, t_gate(), X, 0.01, max_len=10_000)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SearchExhausted) as short_search:
        synthesize(Z, t_gate(), X, 0.01, max_len=24)
    assert str(long_search.value) == str(short_search.value).replace("24", "10000")
    # T^7, the last new product, first appears at length 4, one below the stop
    assert synthesize(Z, t_gate(), t_gate().conj().T, 0.01, max_len=10_000).bits == (0, 1, 1, 1)


# Finite projective groups ({Z, T}: powers of T; {X, Z}: the Paulis; {H, S}:
# the Clifford group) stop growing within a few letters.
FINITE_PAIRS = [(Z, t_gate()), (X, Z), (hadamard(), phase_gate(np.pi / 2)), (X, X)]


@st.composite
def synthesis_cases(draw):
    """(generators, target, epsilon, max_len): a Haar-random or finite-group
    pair, and a Haar-random or word-reachable target."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gens = (random_unitary(2, rng), random_unitary(2, rng))
    else:
        gens = draw(st.sampled_from(FINITE_PAIRS))
    if draw(st.booleans()):
        target = random_unitary(2, rng)
    else:
        target = word_product(tuple(rng.integers(0, 2, size=int(rng.integers(0, 9)))), *gens)
    epsilon = draw(st.floats(0.05, 0.6))
    return gens, target, epsilon, draw(st.integers(0, 10))


def exact_hit_case():
    """A Haar pair and the product of one of its words: ``synthesize`` finds
    the word at distance 1.3e-16, where the closed form reads 1.15e-7."""
    rng = np.random.default_rng(521170865)
    gens = (random_unitary(2, rng), random_unitary(2, rng))
    return gens, word_product((0, 0, 0, 1, 0, 1, 0), *gens), 0.125, 7


@settings(max_examples=80, deadline=None)
@given(synthesis_cases())
@example(case=exact_hit_case())
def test_synthesize_matches_brute_force_scan(case):
    gens, target, epsilon, max_len = case
    words, products = words_in_scan_order(gens, max_len)
    # the closed form is accurate to ~1e-12 at epsilon >= 0.05: skip draws with a word at the threshold
    assume(not np.any(np.abs(scan_distances(products, target) - epsilon) < 1e-6))
    expected = first_hit_oracle(words, products, target, epsilon)
    if expected is None:
        with pytest.raises(SearchExhausted):
            synthesize(*gens, target, epsilon, max_len=max_len)
        return
    word = synthesize(*gens, target, epsilon, max_len=max_len)
    assert word.bits == expected[0]
    assert abs(word.distance - expected[1]) < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(FINITE_PAIRS)))
def test_levels_keep_the_words_whose_product_is_new_at_their_length(pair):
    if isinstance(pair, int):
        rng = np.random.default_rng(pair)
        pair = (random_unitary(2, rng), random_unitary(2, rng))
    levels = synth._WordLevels(*pair)
    words, products = words_in_scan_order(pair, 8)
    keys = levels._keys(synth._quaternions(products))
    seen = set()
    new_at = []  # scan indices of the words whose key first appears there
    for index, key in enumerate(map(tuple, keys)):
        if key not in seen:
            seen.add(key)
            new_at.append(index)
    for m in range(9):
        expected = [index for index in new_at if len(words[index]) == m]
        level = levels.level(m)
        assert [levels.word(m, row) for row in range(len(level.products))] == [words[index] for index in expected]
        # the scan's letter-by-letter products may differ from the batched ones in the last bits
        assert np.allclose(level.products, products[expected], rtol=0, atol=1e-14)


def test_tiny_epsilon_search_over_a_finite_group_pair_stays_small():
    # the dedup tolerance does not follow epsilon down to the products'
    # rounding, so the levels of a finite group empty and the search stops
    synth._cached_levels.cache_clear()
    start = time.perf_counter()
    with pytest.raises(SearchExhausted) as exc:
        synthesize(Z, t_gate(), X, 1e-16, max_len=40_000)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == "no word of length <= 40000 within 1e-16 of the target"
    levels = synth._levels_for(Z, t_gate()).levels
    assert len(levels) <= 9 and len(levels[-1].products) == 0


@pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf, -1.0])
def test_synthesize_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError):
        synthesize(Z, t_gate(), X, epsilon)


@pytest.mark.parametrize(
    "call",
    [
        lambda: axis_angle(cnot_gate()),
        lambda: universality_diagnostic(cz_gate(), swap_gate()),
        lambda: universality_diagnostic(hadamard(), cz_gate()),
        lambda: synthesize(hadamard(), t_gate(), cnot_gate(), 0.1),
        lambda: density_probe(cz_gate(), hadamard(), 2),
        lambda: synthesize(np.stack([hadamard(), t_gate()]), t_gate(), hadamard(), 0.1),
    ],
    ids=["axis-angle", "diagnostic", "diagnostic-g1", "synthesize-target", "density-probe", "synthesize-stack"],
)
def test_synth_rejects_gates_that_are_not_2x2(call):
    # a 4x4 gate is neither a degenerate rotation nor a verdict, and fails before any numpy error
    with pytest.raises(DimensionMismatch, match="synthesis operates on 2x2 gates"):
        call()


@pytest.mark.parametrize("epsilon", [1e-17, 1e-100, 1e-300, 5e-324])
def test_synthesize_at_tiny_epsilon_keeps_the_levels_distinct(epsilon):
    # an exact hit, found at every epsilon: the dedup tolerance does not follow epsilon
    g0, g1 = hadamard(), t_gate() @ hadamard() @ t_gate()
    word = synthesize(g0, g1, word_product((1, 0, 1), g0, g1), epsilon, 12)
    assert word.bits == (1, 0, 1) and word.distance == 0.0


def test_level_cache_is_bounded():
    # the levels depend on the generators alone, so every epsilon shares one level set
    g0, g1 = t_gate(), hadamard() @ t_gate()
    synth._cached_levels.cache_clear()
    for epsilon in (0.1, 1e-9, 1e-12, 1e-16):
        assert synthesize(g0, g1, g1, epsilon).bits == (1,)
    assert synth._cached_levels.cache_info().currsize == 1
    for k in range(10, 15):
        assert synthesize(g0, g1, g1, 10.0**-k).bits == (1,)
    for k in range(5):  # more generator pairs than the cache holds
        density_probe(g0, phase_gate(k + 0.5), 2, samples=1)
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
        assert [len(level.products) for level in synth._levels_for(g0, g1).levels] == [1, 2, 4, 8]
    finally:
        synth._cached_levels.cache_clear()


def test_held_products_bound_exhausts_a_polynomially_growing_pair(monkeypatch):
    # level m - 1 of this commuting pair holds m products, far below the level cap,
    # so only the bound on the products held over all levels stops its search
    monkeypatch.setattr(synth, "_MAX_HELD_PRODUCTS", 64)
    synth._cached_levels.cache_clear()
    try:
        g0, g1 = phase_gate(1.0), phase_gate(np.sqrt(2))
        # levels 0..9 hold 55 products, and level 10 could add 20
        with pytest.raises(SearchExhausted, match=r"length <= 18 .* length 19: level 10 could bring "
                                                  r"the products held to 75, above the bound of 64"):
            synthesize(g0, g1, X, 0.01, max_len=1000)
        assert [len(level.products) for level in synth._levels_for(g0, g1).levels] == list(range(1, 11))
    finally:
        synth._cached_levels.cache_clear()


def test_commuting_incommensurate_pair_levels_build_without_resorting_the_keys():
    # each level dedups against one growing key set, not against a re-sort of every key seen
    start = time.perf_counter()
    levels = synth._WordLevels(phase_gate(1.0), phase_gate(np.sqrt(2)))
    assert len(levels.level(600).products) == 601
    assert time.perf_counter() - start < 2.0


def test_commuting_incommensurate_pair_search_stays_small_in_memory():
    # level m holds m + 1 new products; each keeps its word as a parent row and a letter
    tracemalloc.start()
    try:
        with pytest.raises(SearchExhausted):
            synthesize(phase_gate(1.0), phase_gate(np.sqrt(2)), X, 0.01, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def test_density_probe_memory_stays_bounded_at_depth_14():
    # 1000 samples against the 32767 products of a Haar pair: the whole overlap matrix would be 250 MiB
    rng = np.random.default_rng(3)
    g0, g1 = random_unitary(2, rng), random_unitary(2, rng)
    synth._levels_for(g0, g1).level(14)
    tracemalloc.start()
    try:
        density_probe(g0, g1, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_density_probe_decreases_with_depth():
    h, tht = hadamard(), t_gate() @ hadamard() @ t_gate()
    assert density_probe(h, tht, 16) < density_probe(h, tht, 8)
