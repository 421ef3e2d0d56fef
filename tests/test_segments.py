"""Segment-by-segment simulation against a dense whole-register reference.

``simulator.run`` simulates each segment (a maximal run of overlapping
ancilla lifetimes) on the register qubits it touches and composes the
segment operators.  The reference here never segments: it carries the
whole register, every register input at once and every live ancilla, applies
each interaction as an ``embed_gate`` matrix, and projects each ancilla out
after its last use onto the top singular vector of its joint block.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minqc.catalog import standard_interactions
from minqc.errors import AncillaEntangledAtExit
from minqc.gates import swap_gate
from minqc.linalg import dist_phase, embed_gate, herm_exp
from minqc import simulator
from minqc.simulator import WARN_ATOL, Schedule, Step, run, schedule_from_text, schedule_to_text

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
