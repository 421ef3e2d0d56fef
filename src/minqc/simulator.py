"""Execute minimal-control schedules on explicit statevectors.

A schedule is a sequence of two-qubit interactions, each touching exactly one
register qubit and one ancilla; ancillas are prepared once in a computational
basis state and never operated on directly.

The run splits the steps into segments: maximal runs of overlapping ancilla
lifetimes (first to last use), which tile the step list.  No ancilla is live
across a segment boundary, so each segment acts on the register as one
operator on the register qubits it touches.  A segment is simulated on all
basis inputs of just those qubits as one stack of statevectors (each input
still its own product, so the bits are those of one input at a time):
ancillas attach at first use and are factored out (with a purity check)
right after their last use, so the live dimension is 2^(segment qubits +
concurrently live ancillas).  The segment operators are then composed into
the 2^n x 2^n register operator.  By linearity an ancilla exits in one fixed
pure state for every register input exactly when it does so for every basis
input of its segment's qubits.

Text format, one directive per line ('#' starts a comment):

    REGISTER <n>
    PREP <ancilla> <bit>
    INT <interaction> <register_qubit> <ancilla>

PREP must precede the ancilla's first INT.  Serialization is canonical
(REGISTER first, each PREP immediately before the ancilla's first INT), so
round-trips are byte-exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AncillaEntangledAtExit, ScheduleInvalid, ScheduleParseError
from .linalg import apply_gate, apply_in_layout, dist_phase

# Purity-deficit bands: below DECOUPLE_ATOL is clean product form, between the
# two the run proceeds with a warning, above WARN_ATOL the ancilla is declared
# entangled and the run aborts.
DECOUPLE_ATOL = 1e-10
WARN_ATOL = 1e-6

# Size caps checked before any allocation: the register operator has
# 4^register_size entries, and a segment's live state is at most
# 2^(register + live ancillas).
MAX_REGISTER_QUBITS = 12
MAX_LIVE_QUBITS = 20

# Segment composition: fuse consecutive segment operators on at most this many
# register qubits, and build the register operator this many columns at a time.
FUSE_QUBITS = 4
COLUMN_BLOCK = 64


@dataclass(frozen=True)
class Step:
    interaction: str
    register_qubit: int
    ancilla: str


@dataclass
class Schedule:
    register_size: int
    preps: dict[str, int]
    steps: list[Step]
    interactions: dict[str, np.ndarray]

    def validate(self) -> tuple[dict[str, int], list[tuple[int, int, tuple[int, ...], int]]]:
        """Raise :class:`ScheduleInvalid` on a malformed schedule; return the
        index of each ancilla's last step and the schedule's :func:`_segments`."""
        if self.register_size < 1:
            raise ScheduleInvalid("register must hold at least one qubit")
        if self.register_size > MAX_REGISTER_QUBITS:
            raise ScheduleInvalid(f"register of {self.register_size} qubits exceeds the cap of {MAX_REGISTER_QUBITS}")
        last_use = {step.ancilla: i for i, step in enumerate(self.steps)}
        for i, step in enumerate(self.steps):
            if step.ancilla not in self.preps:
                raise ScheduleInvalid(f"step {i}: ancilla {step.ancilla!r} never prepared")
            if not (0 <= step.register_qubit < self.register_size):
                raise ScheduleInvalid(
                    f"step {i}: register qubit {step.register_qubit} out of range"
                )
            if step.interaction not in self.interactions:
                raise ScheduleInvalid(f"step {i}: unknown interaction {step.interaction!r}")
            g = self.interactions[step.interaction]
            if g.shape != (4, 4):
                raise ScheduleInvalid(f"interaction {step.interaction!r} is not a 4x4 matrix")
        segments = _segments(self.steps, last_use)
        # the most ancillas live at once
        peak = max((live - len(qubits) for _, _, qubits, live in segments), default=0)
        if self.register_size + peak > MAX_LIVE_QUBITS:
            raise ScheduleInvalid(f"{self.register_size + peak} live qubits exceed the cap of {MAX_LIVE_QUBITS}")
        for ancilla, bit in self.preps.items():
            if bit not in (0, 1):
                raise ScheduleInvalid(f"ancilla {ancilla!r} prepared in non-bit {bit!r}")
            if ancilla not in last_use:
                raise ScheduleInvalid(f"ancilla {ancilla!r} prepared but never used")
        return last_use, segments

    def interaction_count(self) -> int:
        return len(self.steps)

    def ancilla_count(self) -> int:
        return len(self.preps)


@dataclass
class RunReport:
    register_unitary: np.ndarray
    ancilla_exit_states: dict[str, np.ndarray]
    purity_deficits: dict[str, float]
    warnings: list[str] = field(default_factory=list)
    residuals: dict[str, float] = field(default_factory=dict)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (abs(pivot) / pivot)


def run(schedule: Schedule, prep_overrides: dict[str, np.ndarray] | None = None) -> RunReport:
    """Simulate the schedule on all register basis inputs.

    Reconstructs the induced register operator segment by segment (see the
    module docstring); each ancilla must exit in the same pure state for every
    input of its segment's register qubits (up to the one global phase that
    is factored into the register operator), otherwise
    :class:`AncillaEntangledAtExit` is raised naming the offending step, the
    segment's register qubits and the sub-register input.

    A segment that repeats an earlier one of the same call (the same
    interactions on the same local qubits, ancilla slots, last uses and
    preparations, and the same stack runs) is simulated once: the repeat
    reuses its operator, exit states and deficits, and its warnings name the
    repeat's own ancillas, so every bit is that of simulating it again.
    Nothing is kept between calls.

    ``prep_overrides`` replaces selected ancillas' computational-basis
    preparations with arbitrary pure states (used to probe preparation
    freedom); overridden ancillas keep their schedule entry otherwise.  Each
    override must name a prepared ancilla and be a 2-vector of positive,
    finite norm, else :class:`ScheduleInvalid` is raised.
    """
    last_use, segments = schedule.validate()
    preps = _prep_states(schedule, prep_overrides or {})
    report = RunReport(np.empty((0, 0), dtype=complex), {}, {})
    simulated: dict[tuple, tuple] = {}
    operators = []
    for segment in segments:
        start, stop, qubits, live_qubits = segment
        steps = schedule.steps[start:stop]
        ancillas = list(dict.fromkeys(step.ancilla for step in steps))  # slot order: first use
        slot = {a: s for s, a in enumerate(ancillas)}
        local = {q: j for j, q in enumerate(qubits)}
        key = (
            len(qubits),
            live_qubits,
            tuple(
                (step.interaction, local[step.register_qubit], slot[step.ancilla], last_use[step.ancilla] == i)
                for i, step in enumerate(steps, start)
            ),
            tuple(preps[a].tobytes() for a in ancillas),
        )
        if key not in simulated:
            simulated[key] = _run_segment(schedule, preps, last_use, segment, slot)
        operator, exit_states, deficits, above_clean = simulated[key]
        report.purity_deficits.update({a: deficits[slot[a]] for a in schedule.preps if a in slot})
        report.ancilla_exit_states.update({ancillas[s]: chi.copy() for s, chi in exit_states})
        report.warnings.extend(
            f"ancilla {ancillas[s]!r}: purity deficit {deficit:.3e} above clean threshold" for s, deficit in above_clean
        )
        operators.append((operator, qubits))
    report.register_unitary = _compose(operators, schedule.register_size)
    return report


def _prep_states(schedule: Schedule, overrides: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each ancilla's normalized preparation: its basis state unless overridden."""
    preps = {a: np.eye(2, dtype=complex)[bit] for a, bit in schedule.preps.items()}
    for ancilla, prep in overrides.items():
        prep = np.asarray(prep, dtype=complex).reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(prep)
        if ancilla not in preps or prep.shape != (2,) or not 0 < norm < np.inf:
            raise ScheduleInvalid(
                f"prep override for {ancilla!r}: needs a prepared ancilla and a 2-vector of positive finite norm"
            )
        preps[ancilla] = prep / norm
    return preps


def _segments(steps: list[Step], last_use: dict[str, int]) -> list[tuple[int, int, tuple[int, ...], int]]:
    """Maximal runs of overlapping ancilla lifetimes, as (start, stop, register
    qubits, peak live qubits: those qubits plus the most ancillas live at once).

    Each run ends at the first step that closes every lifetime opened in it,
    so the runs tile the steps and no ancilla is live across a boundary.
    """
    segments = []
    start = end = peak = 0
    live: set[str] = set()
    for i, step in enumerate(steps):
        end = max(end, last_use[step.ancilla])
        live.add(step.ancilla)
        peak = max(peak, len(live))
        if last_use[step.ancilla] == i:
            live.remove(step.ancilla)
        if i == end:
            qubits = tuple(sorted({s.register_qubit for s in steps[start:i + 1]}))
            segments.append((start, i + 1, qubits, len(qubits) + peak))
            start, peak = i + 1, 0
    return segments


def _run_segment(
    schedule: Schedule,
    preps: dict[str, np.ndarray],
    last_use: dict[str, int],
    segment: tuple[int, int, tuple[int, ...], int],
    slot: dict[str, int],
) -> tuple:
    """Run ``steps[start:stop]``, a segment, on the sub-register ``qubits``.

    Simulates the steps on the 2^k basis inputs of the segment's k register
    qubits (sub-register qubit j is register qubit ``qubits[j]``), stacked in
    runs of 2^(MAX_LIVE_QUBITS - ``live_qubits``) consecutive inputs, and
    returns (the 2^k x 2^k operator they induce, [(slot, exit state)] in
    detach order, the deficit of each slot, [(slot, deficit)] for each
    deficit above the clean threshold in input, step order), with the
    segment's ancillas named by ``slot``.  A rejection names the lowest
    failing input at its first failing step, as one input at a time would.
    """
    start, stop, qubits, live_qubits = segment
    steps = schedule.steps[start:stop]
    local = {q: j for j, q in enumerate(qubits)}
    sub_dim = 2 ** len(qubits)
    operator = np.empty((sub_dim, sub_dim), dtype=complex)
    exit_states: dict[int, np.ndarray] = {}  # by slot, in detach order
    deficits = [0.0] * len(slot)
    above_clean: list[tuple[int, float]] = []

    chunk = 2 ** (MAX_LIVE_QUBITS - live_qubits)
    for lo in range(0, sub_dim, chunk):
        state = np.eye(min(chunk, sub_dim - lo), sub_dim, lo, dtype=complex)  # row c: input lo + c
        live: list[str] = []  # attached ancillas; live[p] sits on qubit len(qubits) + p
        # row `failed` holds the lowest rejected input so far; the rows past it go unchecked
        failed, error = len(state), None
        warnings: list[list[tuple[int, float]]] = [[] for _ in state]

        for i, step in enumerate(steps, start):
            if step.ancilla not in live:
                live.append(step.ancilla)
                # each row becomes tensor(prep, row)
                state = (preps[step.ancilla][:, None] * state[:, None, :]).reshape(len(state), -1)
            position = len(qubits) + live.index(step.ancilla)
            gate = schedule.interactions[step.interaction]
            state = apply_gate(state, gate, [local[step.register_qubit], position], stack=1)

            if last_use[step.ancilla] == i:
                live.remove(step.ancilla)
                s = slot[step.ancilla]
                state, chi, input_deficits = _detach(state, position, exit_states.get(s), failed)
                for c, (own_deficit, ref_deficit) in enumerate(input_deficits):
                    if max(own_deficit, ref_deficit) >= WARN_ATOL:
                        where = f"sub-register input {lo + c} of register qubits {list(qubits)}"
                        failed, error = c, AncillaEntangledAtExit(
                            f"ancilla {step.ancilla!r} exits step {i} entangled with the register "
                            f"(purity deficit {own_deficit:.3e}, {where})"
                            if own_deficit >= WARN_ATOL
                            else f"ancilla {step.ancilla!r} exits step {i} in a different state for "
                            f"{where} (residual {ref_deficit:.3e})"
                        )
                        break
                    deficit = max(own_deficit, ref_deficit)
                    if deficit >= DECOUPLE_ATOL:
                        warnings[c].append((s, deficit))
                    deficits[s] = max(deficits[s], deficit)
                exit_states.setdefault(s, chi)

        if error is not None:
            raise error
        above_clean.extend(w for input_warnings in warnings for w in input_warnings)
        operator[:, lo:lo + len(state)] = state.T

    return operator, list(exit_states.items()), deficits, above_clean


def _fuse(operators: list[tuple[np.ndarray, tuple[int, ...]]]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Fuse consecutive operators while their joint qubits number at most
    ``FUSE_QUBITS``, which cuts the passes over the register operator."""
    fused: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for operator, qubits in operators:
        if fused:
            prev, prev_qubits = fused[-1]
            joint = tuple(sorted(set(prev_qubits) | set(qubits)))
            if len(joint) <= FUSE_QUBITS:
                pos = {q: j for j, q in enumerate(joint)}
                product = np.eye(2 ** len(joint), dtype=complex)
                product = apply_gate(product, prev, [pos[q] for q in reversed(prev_qubits)])
                product = apply_gate(product, operator, [pos[q] for q in reversed(qubits)])
                fused[-1] = (product, joint)
                continue
        fused.append((operator, qubits))
    return fused


def _compose(operators: list[tuple[np.ndarray, tuple[int, ...]]], register_size: int) -> np.ndarray:
    """Register operator of the segment operators applied in order.

    The operators are first fused (:func:`_fuse`).  The register operator is
    then built ``COLUMN_BLOCK`` columns at a time, so each block stays in
    cache while every fused operator is applied to it.  A block stays in the
    axis order its last product left (:func:`~minqc.linalg.apply_in_layout`)
    and is transposed into the register operator once, after its last product.
    """
    fused = _fuse(operators)
    reg_dim = 2**register_size
    width = min(reg_dim, COLUMN_BLOCK)
    tensor_shape = (2,) * register_size + (width,)  # axis n-1-q holds qubit q, the last the columns
    register_unitary = np.empty((reg_dim, reg_dim), dtype=complex)
    for col in range(0, reg_dim, width):
        block = np.eye(reg_dim, width, -col, dtype=complex).reshape(tensor_shape)
        layout = list(range(register_size + 1))
        for operator, qubits in fused:
            block, layout = apply_in_layout(block, layout, operator, [register_size - 1 - q for q in reversed(qubits)])
        # splitting the row axis of the column slice is a view, so this writes the slice
        register_unitary[:, col:col + width].reshape(tensor_shape).transpose(layout)[...] = block
    return register_unitary


def _detach(states: np.ndarray, position: int, reference: np.ndarray | None, count: int):
    """Factor one qubit out of each state (row) of a stack.

    Returns (rest, exit_state, deficits): for each of the first ``count``
    rows, the purity deficit of the qubit's reduced state and the residual
    against the exit state, each by the same scalar operations as for a lone
    state.  The exit state is pinned on the segment's first input column and
    reused for the rest, which both enforces a consistent exit across columns
    and keeps the factored phases coherent so the register operator is well
    defined up to one overall phase.
    """
    # index = (higher qubits, the qubit, lower qubits): the qubit's bit moves in front
    blocks = states.reshape(len(states), -1, 2, 2**position).swapaxes(1, 2).reshape(len(states), 2, -1)
    evals, evecs = np.linalg.eigh(blocks @ blocks.conj().swapaxes(1, 2))
    chi = reference if reference is not None else _canonical_phase(evecs[0, :, -1])
    rest = chi.conj() @ blocks
    deficits = [
        (float(max(0.0, 1.0 - e[-1] / e.sum())), float(max(0.0, 1.0 - np.linalg.norm(r) ** 2 / e.sum())))
        for e, r in zip(evals[:count], rest[:count])
    ]
    return rest, chi, deficits


def verify_against(report: RunReport, claimed: np.ndarray, tol: float, label: str = "claimed") -> bool:
    """Phase-insensitive comparison of the induced register operator."""
    residual = dist_phase(report.register_unitary, claimed)
    report.residuals[label] = residual
    return residual < tol


def schedule_to_text(schedule: Schedule) -> str:
    """Canonical text form: REGISTER, then steps with PREP at first use."""
    lines = [f"REGISTER {schedule.register_size}"]
    prepped: set[str] = set()
    for step in schedule.steps:
        if step.ancilla not in prepped:
            prepped.add(step.ancilla)
            lines.append(f"PREP {step.ancilla} {schedule.preps[step.ancilla]}")
        lines.append(f"INT {step.interaction} {step.register_qubit} {step.ancilla}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str, interactions: dict[str, np.ndarray]) -> Schedule:
    """Parse the line format; raises :class:`ScheduleParseError` with a line number."""
    register_size: int | None = None
    preps: dict[str, int] = {}
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "REGISTER":
            if register_size is not None:
                raise ScheduleParseError(line_no, "duplicate REGISTER directive")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ScheduleParseError(line_no, "expected: REGISTER <positive int>")
            register_size = int(tokens[1])
        elif kind == "PREP":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise ScheduleParseError(line_no, "expected: PREP <ancilla> <0|1>")
            if tokens[1] in preps:
                raise ScheduleParseError(line_no, f"ancilla {tokens[1]!r} prepared twice")
            preps[tokens[1]] = int(tokens[2])
        elif kind == "INT":
            if len(tokens) != 4:
                raise ScheduleParseError(line_no, "expected: INT <name> <register_qubit> <ancilla>")
            name, qubit_str, ancilla = tokens[1], tokens[2], tokens[3]
            try:
                qubit = int(qubit_str)
            except ValueError:
                raise ScheduleParseError(line_no, f"register qubit {qubit_str!r} is not an integer")
            if ancilla not in preps:
                raise ScheduleParseError(line_no, f"ancilla {ancilla!r} used before PREP")
            if name not in interactions:
                raise ScheduleParseError(line_no, f"unknown interaction {name!r}")
            steps.append(Step(name, qubit, ancilla))
        else:
            raise ScheduleParseError(line_no, f"unknown directive {kind!r}")
    if not steps and register_size is None:
        raise ScheduleParseError(0, "empty schedule")
    if register_size is None:
        register_size = max(s.register_qubit for s in steps) + 1
    schedule = Schedule(register_size, preps, steps, dict(interactions))
    schedule.validate()
    return schedule
