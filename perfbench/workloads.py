"""The four benchmark workloads: inputs from a seed, the timed op, its oracle.

Each workload calls minqc through module attributes at call time
(``mq.synth.synthesize``, not a captured reference), so the tracer's wrappers
take effect when installed.  ``make_inputs`` is set-up: given the freshly
imported package, it builds the interaction registry and the inputs.  ``prepare_oracle`` and ``before`` are
oracle work and are never timed.  ``op`` is the timed op; ``check`` returns
the reasons its output is wrong (empty when correct).
"""
from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np

import oracles

SYNTH_EPS = 0.05
SYNTH_MAX_LEN = 24
SCHEDULE_TOL = 1e-9


class Workload:
    name = ""
    # Mean op cost at the baseline on a 2-core x86 host; the op count of a
    # pass is sized from it so a pass fills about --seconds there.  The count
    # depends only on --seconds, so every commit times the same work.
    nominal_op_s = 1.0
    # Weights of the reference tasks that correct this workload's times for
    # host speed (calibrate.py): tiny-matrix work unless a workload says so.
    reference_mix = {"small": 1.0}

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.count = max(1, round(seconds / self.nominal_op_s))
        self.inputs: list = []

    def make_inputs(self, mq) -> None:
        self.mq = mq
        self.registry = mq.catalog.standard_interactions()

    def prepare_oracle(self) -> None:
        pass

    def before(self, i: int) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def colsteps(self, i: int) -> int:
        return 0


class VerifyAll(Workload):
    """``minqc verify all --trials 100`` in-process, stdout captured.

    Ops run half as many distinct seeds twice, so every run checks that a
    repeated seed gives the same report bytes apart from wall_time_s.
    """

    name = "verify_all"
    nominal_op_s = 1.0

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        self.count += self.count % 2

    def make_inputs(self, mq):
        super().make_inputs(mq)
        rng = np.random.default_rng(self.seed)
        distinct = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.count // 2)]
        self.inputs = distinct + distinct

    def prepare_oracle(self):
        self.first_report: dict[int, str] = {}

    def op(self, i):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.mq.cli.main(["verify", "all", "--trials", "100", "--seed", str(self.inputs[i])])
        return code, buf.getvalue()

    def check(self, i, out):
        code, text = out
        reasons = oracles.verify_report_failures(code, text)
        stripped = oracles.report_without_wall_time(text)
        first = self.first_report.setdefault(self.inputs[i], stripped)
        if stripped != first:
            reasons.append(f"report bytes differ from an earlier run of seed {self.inputs[i]}")
        return reasons


class SynthHaar(Workload):
    """Minimal-length {H, THT} words within 0.05 of Haar targets, length <= 24."""

    name = "synth_haar"
    nominal_op_s = 0.2

    def make_inputs(self, mq):
        super().make_inputs(mq)
        self.gens = (mq.catalog.parse_gate_spec("H"), mq.catalog.parse_gate_spec("THT"))
        rng = np.random.default_rng(self.seed)
        self.inputs = [oracles.haar_unitary(rng) for _ in range(self.count)]

    def prepare_oracle(self):
        self.table = oracles.WordTable(oracles.HADAMARD, oracles.THT, SYNTH_MAX_LEN)
        self.expected = [self.table.expected(t, SYNTH_EPS) for t in self.inputs]

    def op(self, i):
        try:
            word = self.mq.synth.synthesize(*self.gens, self.inputs[i], SYNTH_EPS, max_len=SYNTH_MAX_LEN)
        except self.mq.SearchExhausted:
            return None
        return word.bits, word.distance

    def check(self, i, out):
        expected = self.expected[i]
        if out is None or expected is None:
            return [] if out is None and expected is None else [f"got {out}, expected {expected}"]
        bits, dist = out
        recomputed = oracles.phase_blind_distance(
            self.inputs[i], oracles.word_product(bits, oracles.HADAMARD, oracles.THT)
        )
        if tuple(bits) != expected[0] or abs(dist - expected[1]) > 1e-9 or abs(recomputed - dist) > 1e-9:
            return [f"got word {bits} at {dist}, expected {expected} (recomputed {recomputed})"]
        return []


def random_schedule(n: int, rng: np.random.Generator):
    """A seeded schedule text at register size n and its block list.

    Blocks: one CZ-T 15-ancilla entangler (18 steps, two ancillas live at
    once), SCT (j, k, j) entanglers (3 steps) and single-qubit CZ-T
    selections (1 step), about 6n steps in shuffled order.  The block counts
    depend on n only, so every seed does the same amount of work.
    """
    sct = max(0, (6 * n - 18) // 6)
    blocks = ["cz"] + ["sct"] * sct + ["sel"] * max(2, 6 * n - 18 - 3 * sct)
    rng.shuffle(blocks)
    lines = [f"REGISTER {n}"]
    placed = []
    count = 0

    def ancilla(bit):
        nonlocal count
        count += 1
        lines.append(f"PREP a{count} {bit}")
        return f"a{count}"

    for kind in blocks:
        if kind == "sel":
            q, bit = int(rng.integers(n)), int(rng.integers(2))
            lines.append(f"INT cz_t {q} {ancilla(bit)}")
            placed.append((f"sel{bit}", (q,)))
            continue
        j, k = (int(x) for x in rng.choice(n, size=2, replace=False))
        a = ancilla(0)
        if kind == "sct":
            lines += [f"INT sct {j} {a}", f"INT sct {k} {a}", f"INT sct {j} {a}"]
        else:
            lines += [f"INT cz_t {j} {a}", f"INT cz_t {k} {a}"]
            # inverse word T^7 = T^dagger on each register qubit, one ancilla per letter
            for q in (j, k):
                for _ in range(7):
                    lines.append(f"INT cz_t {q} {ancilla(0)}")
            lines += [f"INT cz_t {j} {a}", f"INT cz_t {k} {a}"]
        placed.append((kind, (j, k)))
    steps = sum(line.startswith("INT") for line in lines)
    return "\n".join(lines) + "\n", placed, steps


class Schedules(Workload):
    """Parse, run and verify seeded schedules; one op covers ``sizes_per_op``."""

    sizes_cycle: list[int] = []
    sizes_per_op = 1

    def make_inputs(self, mq):
        super().make_inputs(mq)
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        cycle = iter(self.sizes_cycle * (self.count * self.sizes_per_op))
        for _ in range(self.count):
            op_inputs = []
            for _ in range(self.sizes_per_op):
                n = next(cycle)
                text, blocks, steps = random_schedule(n, rng)
                op_inputs.append((n, text, blocks, steps))
            self.inputs.append(op_inputs)

    def prepare_oracle(self):
        # the blocks' known register gates; the selections are T and HT
        self.block_gates = {
            "cz": self.mq.cz_model.entangling_gate(self.mq.catalog.cz_t_instance()),
            "sct": self.mq.swap_model.entangling_gate(self.mq.catalog.sct_instance()),
            "sel0": oracles.T_GATE,
            "sel1": oracles.HT,
        }
        self.refs = None

    def before(self, i):
        self.refs = [oracles.dense_reference(n, blocks, self.block_gates) for n, _, blocks, _ in self.inputs[i]]

    def op(self, i):
        sim = self.mq.simulator
        out = []
        for (_, text, _, _), ref in zip(self.inputs[i], self.refs):
            schedule = sim.schedule_from_text(text, self.registry)
            report = sim.run(schedule)
            out.append((report.register_unitary, sim.verify_against(report, ref, SCHEDULE_TOL)))
        return out

    def check(self, i, out):
        reasons = []
        for (n, _, _, _), ref, (unitary, verified) in zip(self.inputs[i], self.refs, out):
            dist = oracles.phase_blind_distance(unitary, ref)
            if not verified or not dist < SCHEDULE_TOL:
                reasons.append(f"n={n}: verify_against={verified}, oracle distance {dist:.3e}")
        self.refs = None
        return reasons

    def colsteps(self, i):
        return sum(2**n * steps for n, _, _, steps in self.inputs[i])


class SchedWide(Schedules):
    """Register sizes 9 and 10 (memory-bound simulator); one schedule per op.

    Sizes cycle 9, 10, 9, 9, so the median op is a size-9 one and a pass of
    about 20 s holds four ops.
    """

    name = "sched_wide"
    nominal_op_s = 5.6
    # states of up to 12 qubits between the tiny gate and detach calls
    reference_mix = {"small": 0.5, "state": 0.5}
    sizes_cycle = [9, 10, 9, 9]


class SchedSmall(Schedules):
    """Register sizes 2..5, where per-column overhead and parsing dominate.

    One op is one schedule at each size, so every op does the same work and
    the latency median does not fall between size clusters.
    """

    name = "sched_small"
    nominal_op_s = 0.225
    sizes_cycle = [2, 3, 4, 5]
    sizes_per_op = 4


WORKLOADS = {w.name: w for w in (VerifyAll, SynthHaar, SchedWide, SchedSmall)}
