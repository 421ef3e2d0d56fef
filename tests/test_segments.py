"""Segment-by-segment simulation against a dense whole-register reference.

``simulator.run`` simulates each segment (a maximal run of overlapping
ancilla lifetimes) on the register qubits it touches and composes the
segment operators.  The reference here never segments: it carries the
whole register, every register input at once and every live ancilla, applies
each interaction as an ``embed_gate`` matrix, and projects each ancilla out
after its last use onto the top singular vector of its joint block.

The simulator runs all basis inputs of a segment as one stack; a second
reference runs them one at a time, as 1-D statevectors, and must give the
same bits, messages and warnings.
"""
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minqc.catalog import standard_interactions
from minqc.errors import AncillaEntangledAtExit
from minqc.gates import cnot_gate, hadamard, swap_gate
from minqc.linalg import dist_phase, embed_gate, herm_exp, random_unitary, tensor
from minqc import simulator
from minqc.simulator import (
    DECOUPLE_ATOL,
    WARN_ATOL,
    Schedule,
    Step,
    run,
    schedule_from_text,
    schedule_to_text,
)
from test_linalg import apply_gate  # the former linalg.apply_gate, kept as an oracle

INTERACTIONS = standard_interactions()

# Override preparations come from a fixed set of pure states.  The simulator
# measures purity deficits on the basis inputs of a segment's qubits, the
# reference on whole-register inputs; the two agree exactly when an ancilla
# decouples and differ in size otherwise, so states are drawn from a set for
# which each ancilla either decouples or is rejected by a wide margin.
OVERRIDES = [
    np.array([1, 1]) / np.sqrt(2),
    np.array([1, -1j]) / np.sqrt(2),
    np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)]),
]
# Step patterns of one ancilla over register qubits j and k: a selection,
# a two-step selection, the (j, k, j) entangler and the (j, k, j, k) sandwich.
PATTERNS = ["j", "jj", "jkj", "jkjk"]
# Blocks that decouple for computational-basis preparations: the paper's
# selections and entanglers, and the plain-CZ sandwich (mediated CZ); the
# swap_plain blocks and the sandwich decouple for any preparation.  Three in
# four drawn blocks come from here, so that many schedules run to the end.
DECOUPLING = [
    ("cz_t", "j"), ("cz_plain", "j"), ("sct", "jj"), ("sct", "jkj"),
    ("swap_plain", "jj"), ("swap_plain", "jkj"), ("cz_plain", "jkjk"),
]


@st.composite
def schedules(draw):
    """A random schedule of blocks, some nested inside an earlier block's lifetime.

    Returns (schedule, prep overrides).  Each block is one ancilla, one
    registry interaction and one step pattern; a nested block's steps are
    inserted right after the first step of the block before it, so the two
    lifetimes overlap and join into one segment.
    """
    n = draw(st.sampled_from([4, 3, 2, 1]))
    steps: list[Step] = []
    preps: dict[str, int] = {}
    overrides: dict[str, np.ndarray] = {}
    last_block_start = 0
    for b in range(draw(st.integers(1, 6))):
        ancilla = f"a{b}"
        if draw(st.integers(0, 3)):
            name, pattern = draw(st.sampled_from(DECOUPLING))
        else:
            name, pattern = draw(st.sampled_from(sorted(INTERACTIONS))), draw(st.sampled_from(PATTERNS))
        j, k = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        preps[ancilla] = draw(st.integers(0, 1))
        if not draw(st.integers(0, 2)):
            overrides[ancilla] = draw(st.sampled_from(OVERRIDES))
        block = [Step(name, j if c == "j" else k, ancilla) for c in pattern]
        at = last_block_start + 1 if steps and draw(st.booleans()) else len(steps)
        steps[at:at] = block
        last_block_start = at
    return Schedule(n, preps, steps, INTERACTIONS), overrides


def dense_reference(schedule: Schedule, overrides):
    """(register operator, exit states, purity deficits), or None when an ancilla stays entangled."""
    n = schedule.register_size
    last_use = {step.ancilla: i for i, step in enumerate(schedule.steps)}
    m = np.eye(2**n, dtype=complex)  # rows: register then live ancillas; columns: register inputs
    live: list[str] = []
    exits, deficits = {}, {}
    for i, step in enumerate(schedule.steps):
        if step.ancilla not in live:
            prep = overrides.get(step.ancilla, np.eye(2)[schedule.preps[step.ancilla]])
            m = np.kron(np.asarray(prep, dtype=complex).reshape(2, 1), m)
            live.append(step.ancilla)
        width = n + len(live)
        position = n + live.index(step.ancilla)
        m = embed_gate(schedule.interactions[step.interaction], [step.register_qubit, position], width) @ m
        if last_use[step.ancilla] == i:
            joint = np.moveaxis(m.reshape([2] * width + [-1]), width - 1 - position, 0)
            chi = np.linalg.svd(joint.reshape(2, -1))[0][:, 0]
            rest = np.tensordot(chi.conj(), joint, axes=1)  # [2]*(width - 1) + [inputs]
            per_input = 1.0 - (np.abs(rest) ** 2).reshape(-1, 2**n).sum(axis=0) / (
                np.abs(joint) ** 2
            ).reshape(-1, 2**n).sum(axis=0)
            deficits[step.ancilla] = float(max(0.0, per_input.max()))
            if deficits[step.ancilla] >= WARN_ATOL:
                return None
            exits[step.ancilla] = chi
            m = rest.reshape(-1, 2**n)
            live.remove(step.ancilla)
    return m, exits, deficits


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_segment_run_matches_dense_reference(drawn):
    schedule, overrides = drawn
    expected = dense_reference(schedule, overrides)
    if expected is None:
        with pytest.raises(AncillaEntangledAtExit):
            run(schedule, prep_overrides=overrides)
        return
    report = run(schedule, prep_overrides=overrides)
    unitary, exits, deficits = expected
    assert dist_phase(report.register_unitary, unitary) <= 1e-12
    assert report.ancilla_exit_states.keys() == exits.keys()
    for name, chi in exits.items():
        assert abs(abs(np.vdot(chi, report.ancilla_exit_states[name])) - 1.0) <= 1e-12
    assert report.purity_deficits.keys() == deficits.keys()
    for name, deficit in deficits.items():
        assert abs(report.purity_deficits[name] - deficit) <= 1e-12


def one_input_at_a_time(schedule: Schedule, overrides):
    """``run`` with each basis input of a segment simulated on its own.

    Returns (register operator, exit states, purity deficits, warnings), or
    the rejection message of the lowest failing input at its first failing
    step.
    """
    last_use, segments = schedule.validate()
    preps = simulator._prep_states(schedule, overrides)
    exits, deficits, warnings, operators = {}, {}, [], []
    for start, stop, qubits, _ in segments:
        local = {q: j for j, q in enumerate(qubits)}
        operator = np.empty((2 ** len(qubits),) * 2, dtype=complex)
        deficits.update({a: 0.0 for a in schedule.preps if start <= last_use[a] < stop})
        for col in range(len(operator)):
            state = np.eye(len(operator), dtype=complex)[col]
            live = []
            for i, step in enumerate(schedule.steps[start:stop], start):
                if step.ancilla not in live:
                    live.append(step.ancilla)
                    state = tensor(preps[step.ancilla], state)
                position = len(qubits) + live.index(step.ancilla)
                gate = schedule.interactions[step.interaction]
                state = apply_gate(state, gate, [local[step.register_qubit], position])
                if last_use[step.ancilla] != i:
                    continue
                live.remove(step.ancilla)
                n = len(state).bit_length() - 1
                block = np.moveaxis(state.reshape([2] * n), n - 1 - position, 0).reshape(2, -1)
                evals, evecs = np.linalg.eigh(block @ block.conj().T)
                own = float(max(0.0, 1.0 - evals[-1] / evals.sum()))
                if step.ancilla not in exits:
                    top = evecs[:, -1]
                    pivot = top[np.argmax(np.abs(top))]
                    exits[step.ancilla] = top * (abs(pivot) / pivot)
                state = exits[step.ancilla].conj() @ block
                ref = float(max(0.0, 1.0 - np.linalg.norm(state) ** 2 / evals.sum()))
                where = f"sub-register input {col} of register qubits {list(qubits)}"
                if own >= WARN_ATOL:
                    return (f"ancilla {step.ancilla!r} exits step {i} entangled with the register "
                            f"(purity deficit {own:.3e}, {where})")
                if ref >= WARN_ATOL:
                    return f"ancilla {step.ancilla!r} exits step {i} in a different state for {where} (residual {ref:.3e})"
                if max(own, ref) >= DECOUPLE_ATOL:
                    warnings.append(f"ancilla {step.ancilla!r}: purity deficit {max(own, ref):.3e} above clean threshold")
                deficits[step.ancilla] = max(deficits[step.ancilla], own, ref)
            operator[:, col] = state
        operators.append((operator, qubits))
    return simulator._compose(simulator._fuse(operators), schedule.register_size), exits, deficits, warnings


# One segment whose ancillas a (qubit 0, exits step 2) and b (qubit 1, exits
# step 1) each warn on the inputs that set their qubit: in (input, step)
# order the warnings name a, b, b, a; in (step, input) order b, b, a, a.
NEARLY_SWAPS = Schedule(
    2, {"a": 0, "b": 0}, [Step("ns", 0, "a"), Step("ns", 1, "b"), Step("ns", 0, "a")],
    {"ns": herm_exp(swap_gate(), 1e-4)},
)


# Repeats of one segment, which ``run`` simulates once.  Two equal CZ-T
# selections whose preparations differ only by an override: the second is
# no repeat of the first.  And NEARLY_SWAPS again on qubits 2 and 3, whose
# warnings name its own ancillas c and d.
TWO_SELECTIONS = Schedule(2, {"a": 0, "b": 0}, [Step("cz_t", 0, "a"), Step("cz_t", 1, "b")], INTERACTIONS)
NEARLY_SWAPS_TWICE = Schedule(
    4, {"a": 0, "b": 0, "c": 0, "d": 0},
    NEARLY_SWAPS.steps + [Step("ns", 2, "c"), Step("ns", 3, "d"), Step("ns", 2, "c")],
    NEARLY_SWAPS.interactions,
)

# Input 1 (qubit 0 set) leaves the |+>-prepared a1 in |->, so a1 is rejected
# at step 1 with residual 1: that input's row of the stack is zero when a0
# detaches at step 2, and its deficits there are 0/0.
ZERO_ROW = Schedule(
    3, {"a0": 0, "a1": 0}, [Step("cz_plain", 0, "a0"), Step("cz_plain", 0, "a1"), Step("cz_plain", 0, "a0")],
    INTERACTIONS,
)


# Three ancillas live when a0 detaches, under two generic near-identity
# interactions: the detach's bits depend on the order of the other qubits in
# its blocks, which must be their index order, as one input at a time has it.
_re, _im = np.random.default_rng(0).standard_normal((2, 2, 4, 4))
_h = _re + 1j * _im
THREE_LIVE = Schedule(
    3, {"a0": 1, "a1": 1, "a2": 0},
    [Step(g, q, a) for g, q, a in (("g2", 1, "a0"), ("g1", 0, "a1"), ("g1", 2, "a2"),
                                   ("g1", 0, "a0"), ("g2", 0, "a1"), ("g1", 2, "a2"))],
    dict(zip(("g1", "g2"), herm_exp(_h + _h.conj().swapaxes(-1, -2), 1e-4))),
)

# a3 attaches, with a generic preparation, to rows of generic amplitudes:
# the products keep the bits of tensor(prep, row) only with prep the first factor.
GENERIC_ATTACH = Schedule(
    3, {"a0": 0, "a1": 0, "a2": 1, "a3": 0},
    [Step(g, q, a) for g, q, a in (("cz_plain", 0, "a0"), ("cz_t", 1, "a1"), ("cz_t", 1, "a2"), ("swap_plain", 0, "a3"),
                                   ("swap_plain", 0, "a3"), ("cz_plain", 1, "a0"), ("cz_plain", 0, "a0"),
                                   ("cz_plain", 1, "a0"))],
    INTERACTIONS,
)


@settings(max_examples=200, deadline=None)
@given(schedules(), st.integers(0, 2))
@example(drawn=(NEARLY_SWAPS, {}), slack=2)
@example(drawn=(THREE_LIVE, {}), slack=0)
@example(drawn=(GENERIC_ATTACH, {"a0": OVERRIDES[1], "a3": OVERRIDES[2]}), slack=0)
@example(drawn=(TWO_SELECTIONS, {"b": OVERRIDES[0]}), slack=0)
@example(drawn=(NEARLY_SWAPS_TWICE, {}), slack=0)
@example(drawn=(ZERO_ROW, {"a1": OVERRIDES[0]}), slack=0)
def test_stacked_inputs_match_one_input_at_a_time(drawn, slack):
    # a live-qubit cap `slack` above the schedule's peak cuts the largest
    # segments' stacks into runs of 2^slack inputs
    schedule, overrides = drawn
    expected = one_input_at_a_time(schedule, overrides)
    _, segments = schedule.validate()
    peak = max(live - len(qubits) for _, _, qubits, live in segments)
    with mock.patch.object(simulator, "MAX_LIVE_QUBITS", schedule.register_size + peak + slack):
        if isinstance(expected, str):
            with pytest.raises(AncillaEntangledAtExit) as err:
                run(schedule, prep_overrides=overrides)
            assert str(err.value) == expected
            return
        report = run(schedule, prep_overrides=overrides)
    unitary, exits, deficits, warnings = expected
    assert np.array_equal(report.register_unitary, unitary)
    assert report.ancilla_exit_states.keys() == exits.keys()
    assert all(np.array_equal(report.ancilla_exit_states[a], chi) for a, chi in exits.items())
    assert report.purity_deficits == deficits
    assert report.warnings == warnings


def test_rejection_names_the_lowest_failing_input_at_its_first_failing_step():
    # Input 1 (qubit 0 set) turns the controlled-H ancilla a to |+>, so a
    # exits step 1 in another state than for input 0.  Input 0 passes there
    # and fails only at step 2, where b, half-swapped with qubit 1 at step 0,
    # exits entangled.  One input at a time, input 0 is rejected first.
    controlled_h = np.eye(4, dtype=complex)
    controlled_h[2:, 2:] = hadamard()
    interactions = {**INTERACTIONS, "ch": controlled_h, "half_swap": herm_exp(swap_gate(), np.pi / 4)}
    text = "REGISTER 2\nPREP b 1\nINT half_swap 1 b\nPREP a 0\nINT ch 0 a\nINT cz_plain 1 b\n"
    schedule = schedule_from_text(text, interactions)
    with pytest.raises(AncillaEntangledAtExit) as err:
        run(schedule)
    assert str(err.value) == one_input_at_a_time(schedule, {})
    assert str(err.value).startswith("ancilla 'b' exits step 2 entangled with the register")
    assert str(err.value).endswith("sub-register input 0 of register qubits [0, 1])")


def test_segment_stack_stays_under_the_live_qubit_cap():
    # One ancilla on all 12 register qubits: 4,096 inputs of 2^13 amplitudes,
    # 512 MiB as one stack.  Runs of 2^(MAX_LIVE_QUBITS - 13) = 128 inputs
    # take 16 MiB each.  The ancilla picks up the register's parity, so input
    # 1 is rejected after the first run; by then the traced peak holds that
    # run and the 256 MiB segment operator, allocated up front and untouched.
    schedule = Schedule(12, {"a": 0}, [Step("cx", q, "a") for q in range(12)], {"cx": cnot_gate()})
    tracemalloc.start()
    try:
        with pytest.raises(AncillaEntangledAtExit, match="step 11 in a different state for sub-register input 1 "):
            run(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 4**12 * 16 < 64 * 2**20


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_schedule_text_round_trips(drawn):
    schedule, _ = drawn
    text = schedule_to_text(schedule)
    parsed = schedule_from_text(text, INTERACTIONS)
    assert parsed.register_size == schedule.register_size
    assert parsed.preps == schedule.preps
    assert parsed.steps == schedule.steps
    assert schedule_to_text(parsed) == text


def test_entangled_exit_names_segment_qubits_and_sub_register_input():
    interactions = {**INTERACTIONS, "half_swap": herm_exp(swap_gate(), np.pi / 4)}
    selection = "REGISTER 3\nPREP a 0\nINT cz_t 0 a\n"
    entangled = schedule_from_text(selection + "PREP b 0\nINT half_swap 2 b\n", interactions)
    with pytest.raises(AncillaEntangledAtExit) as err:
        run(entangled)
    assert str(err.value).startswith("ancilla 'b' exits step 1 entangled with the register")
    assert "sub-register input 1 of register qubits [2]" in str(err.value)

    inconsistent = schedule_from_text(selection + "PREP b 0\nINT cz_plain 2 b\nINT cz_plain 1 b\n", interactions)
    with pytest.raises(AncillaEntangledAtExit) as err:
        run(inconsistent)
    assert str(err.value).startswith("ancilla 'b' exits step 2 in a different state")
    assert "sub-register input 1 of register qubits [1, 2]" in str(err.value)


@pytest.mark.parametrize("fuse_qubits, column_block", [(1, 2), (2, 4), (4, 64)])
def test_fusion_and_column_blocks_keep_the_operator(monkeypatch, fuse_qubits, column_block):
    text = """REGISTER 4
PREP s 1
INT cz_t 0 s
PREP e 0
INT sct 1 e
INT sct 3 e
INT sct 1 e
PREP m 0
INT cz_plain 2 m
INT cz_plain 0 m
INT cz_plain 2 m
INT cz_plain 0 m
PREP w 1
INT swap_plain 3 w
INT swap_plain 2 w
INT swap_plain 3 w
PREP h 1
INT sct 2 h
INT sct 2 h
"""
    schedule = schedule_from_text(text, INTERACTIONS)
    monkeypatch.setattr(simulator, "FUSE_QUBITS", fuse_qubits)
    monkeypatch.setattr(simulator, "COLUMN_BLOCK", column_block)
    unitary, _, _ = dense_reference(schedule, {})
    assert dist_phase(run(schedule).register_unitary, unitary) <= 1e-12


@pytest.mark.parametrize("fuse_qubits, column_block", [(1, 2), (2, 4), (4, 64)])
def test_compose_matches_one_apply_gate_per_fused_operator(monkeypatch, fuse_qubits, column_block):
    # the column-block loop with every product transposed back to qubit order
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import random_schedule

    monkeypatch.setattr(simulator, "FUSE_QUBITS", fuse_qubits)
    monkeypatch.setattr(simulator, "COLUMN_BLOCK", column_block)
    for n in range(5, 9):
        schedule = schedule_from_text(random_schedule(n, np.random.default_rng(n))[0], INTERACTIONS)
        with mock.patch.object(simulator, "_compose", wraps=simulator._compose) as compose:
            unitary = run(schedule).register_unitary
        operators, register_size = compose.call_args.args
        fused = simulator._fuse(operators)
        expected = np.empty_like(unitary)
        width = min(2**n, column_block)
        for col in range(0, 2**n, width):
            block = np.eye(2**n, width, -col, dtype=complex)
            for operator, qubits in fused:
                block = apply_gate(block, operator, qubits[::-1])
            expected[:, col:col + width] = block
        assert register_size == n
        assert np.array_equal(unitary, expected)


def test_compose_of_no_operator_is_the_identity():
    # an empty schedule: no segment, so no operator to start a block from
    unitary = run(schedule_from_text("REGISTER 3\n", INTERACTIONS)).register_unitary
    assert unitary.tobytes() == np.eye(8, dtype=complex).tobytes()


@pytest.mark.parametrize("column_block", [2, 64])
def test_compose_of_one_operator_on_every_qubit_is_that_operator(monkeypatch, column_block):
    monkeypatch.setattr(simulator, "COLUMN_BLOCK", column_block)
    segment_operators = []
    run_segment = simulator._run_segment

    def recording(*args):
        result = run_segment(*args)
        segment_operators.append(result[0])
        return result

    monkeypatch.setattr(simulator, "_run_segment", recording)
    schedule = schedule_from_text((resources.files("minqc") / "data" / "sct_two_qubit.sched").read_text(), INTERACTIONS)
    unitary = run(schedule).register_unitary
    assert len(segment_operators) == 1
    assert np.array_equal(unitary, segment_operators[0])
    operator = random_unitary(8, np.random.default_rng(5))
    assert np.array_equal(simulator._compose([(operator.copy(), (0, 1, 2))], 3), operator)


def test_interleaved_lifetimes_match_dense_reference():
    # a is used again while the later b and c are live, and b once a has
    # left, so ancillas sit at every live position, not only the newest
    text = """REGISTER 3
PREP a 0
INT swap_plain 0 a
PREP b 1
INT sct 1 b
PREP c 0
INT swap_plain 2 c
INT swap_plain 0 a
INT sct 1 b
INT swap_plain 2 c
"""
    schedule = schedule_from_text(text, INTERACTIONS)
    overrides = {"a": OVERRIDES[1]}
    unitary, exits, _ = dense_reference(schedule, overrides)
    report = run(schedule, prep_overrides=overrides)
    assert dist_phase(report.register_unitary, unitary) <= 1e-12
    for name, chi in exits.items():
        assert abs(abs(np.vdot(chi, report.ancilla_exit_states[name])) - 1.0) <= 1e-12


def test_run_derives_the_segments_once():
    # validation needs the segments for its live-qubit cap; run reuses them
    schedule = schedule_from_text((resources.files("minqc") / "data" / "sct_two_qubit.sched").read_text(), INTERACTIONS)
    with mock.patch.object(simulator, "_segments", wraps=simulator._segments) as segments:
        run(schedule)
    assert segments.call_count == 1
