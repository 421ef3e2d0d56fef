"""Stacked evaluation: each stack-aware function gives, on a stack, the bits it
gives on each slice, and the ``verify`` draws consume their generators as
one draw at a time did, in bounded memory."""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minqc import cli, cz_model, hamiltonian, locequiv, swap_model, synth
from minqc.gates import I2, X, cz_gate, hadamard, swap_gate, t_gate
from minqc.linalg import random_unitary, tensor

ANGLES = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, np.pi / 4, np.pi, 2 * np.pi, -np.pi / 2]))


def assert_stack_matches_slices(stacked, per_slice):
    """Every array in ``stacked`` equals, bitwise, the stack of the same
    arrays computed slice by slice."""
    for got, parts in zip(stacked, zip(*per_slice)):
        assert np.array_equal(got, np.stack(parts)), (got, parts)


def fields(instance):
    return instance.matrix, instance.gate0, instance.gate1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_cz_model_on_a_stack_equals_each_slice(seed, n):
    pairs = random_unitary(2, np.random.default_rng(seed), (n, 2))
    stacked = cz_model.cz_interaction(pairs[:, 0], pairs[:, 1])
    singles = [cz_model.cz_interaction(u, v) for u, v in pairs]

    def outputs(k):
        return (*fields(k), cz_model.factorization_residual(k), cz_model.action_residual(k, 0),
                cz_model.action_residual(k, 1), *cz_model.sandwich(k))

    assert_stack_matches_slices(outputs(stacked), [outputs(k) for k in singles])
    cz_class = locequiv.invariants(cz_gate())

    def invariants(gate):
        inv = locequiv.invariants(gate)
        return inv.g1, inv.g2, inv.distance(cz_class)

    induced = cz_model.sandwich(stacked)[1]
    assert_stack_matches_slices(invariants(induced), [invariants(g) for g in induced])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1, max_size=6))
def test_swap_model_on_a_stack_equals_each_slice(seed, angles):
    angles = np.array(angles)
    u = random_unitary(2, np.random.default_rng(seed), (len(angles),))
    stacked = swap_model.swap_interaction(u, *angles.T)
    singles = [swap_model.swap_interaction(ui, *a) for ui, a in zip(u, angles)]

    def outputs(l):
        return (*fields(l), swap_model.factorization_residual(l), swap_model.action_residual(l, 0),
                swap_model.action_residual(l, 1), *swap_model.sandwich(l))

    assert_stack_matches_slices(outputs(stacked), [outputs(l) for l in singles])


@settings(max_examples=60, deadline=None)
@given(st.lists(ANGLES, min_size=1, max_size=6))
def test_hamiltonian_on_a_stack_equals_each_slice(theta):
    theta = np.array(theta)

    def outputs(th):
        instance = hamiltonian.derived_swap_instance(th)
        return (hamiltonian.evolution_residual(th), hamiltonian.spectrum_residual(th), *fields(instance),
                *hamiltonian.selected_gate_residuals(instance, th))

    assert_stack_matches_slices(outputs(theta), [outputs(th) for th in theta])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["haar", "I", "X", "H", "T", "-I"]), min_size=1, max_size=6))
def test_axis_angle_on_a_stack_equals_each_slice(seed, kinds):
    rng = np.random.default_rng(seed)
    named = {"I": I2, "X": X, "H": hadamard(), "T": t_gate(), "-I": -I2}
    gates = np.array([random_unitary(2, rng) if k == "haar" else named[k] for k in kinds])

    def outputs(g):
        aa = synth.axis_angle(g)
        return aa.phi, aa.axis, aa.global_phase, aa.degenerate, synth.from_axis_angle(aa)

    assert_stack_matches_slices(outputs(gates), [outputs(g) for g in gates])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["I", "SWAP", "local", "SWAP local", "CZ", "haar"]), min_size=1, max_size=6))
def test_is_entangling_on_a_stack_equals_each_slice(seed, kinds):
    # the identity's and SWAP's classes take the product-state fallback
    rng = np.random.default_rng(seed)

    def gate(kind):
        local = tensor(random_unitary(2, rng), random_unitary(2, rng))
        return {"I": np.eye(4, dtype=complex), "SWAP": swap_gate(), "local": local, "SWAP local": swap_gate() @ local,
                "CZ": cz_gate(), "haar": random_unitary(4, rng)}[kind]

    gates = np.array([gate(k) for k in kinds])
    assert_stack_matches_slices((locequiv.is_entangling(gates),), [(locequiv.is_entangling(g),) for g in gates])


def test_stacked_draws_consume_the_generator_as_single_draws():
    seed, count = 11, cli._DRAW_BLOCK + 3  # across a block boundary
    pairs = [np.concatenate(parts) for parts in zip(*cli._draws(seed, "k", 0, count, cli._unitary_pairs))]
    rng = np.random.default_rng([seed, cli._SUITE_IDS["k"], 0])
    for u, v in zip(*pairs):
        assert np.array_equal(u, random_unitary(2, rng))
        assert np.array_equal(v, random_unitary(2, rng))

    unitaries, angles = (np.concatenate(parts) for parts in zip(*cli._draws(seed, "l", 0, count, cli._swap_parameters)))
    rng = np.random.default_rng([seed, cli._SUITE_IDS["l"], 0])
    for u, theta in zip(unitaries, angles):
        assert np.array_equal(u, random_unitary(2, rng))
        assert np.array_equal(theta, [rng.uniform(0, 2 * np.pi) for _ in range(3)])


def test_suite_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (cli._DRAW_BLOCK, 20 * cli._DRAW_BLOCK):
        tracemalloc.start()
        try:
            checks = cli._suite_k(5, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(c["pass"] for c in checks)
    assert peaks[1] < 2 * peaks[0], peaks
