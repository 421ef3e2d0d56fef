"""Identity battery: one digest line per case, for diffing two source trees.

Each case runs one CLI command or library call of the ``minqc`` found on the
import path and prints its name, its outcome (the exit code, ``ok`` or the
exception raised) and a digest of its output: the report bytes on stdout and
stderr with ``wall_time_s`` masked, or the bytes of the arrays, floats and
words a library call returns.  Run it once per tree and diff the outputs:

    PYTHONPATH=<parent>/src python scripts/identity_battery.py > parent.txt
    PYTHONPATH=src python scripts/identity_battery.py > change.txt
    diff parent.txt change.txt

An empty diff means every report byte but ``wall_time_s``, every exit code
and every returned array is unchanged.  Run both on one host: BLAS may round
differently on another machine.  ``random_schedule`` comes from this
checkout's ``perfbench/workloads.py``.  The whole battery takes about 5 s
on a 2-core x86_64 host.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from minqc import cli, locequiv, simulator, swap_model, synth  # noqa: E402
from minqc.catalog import parse_gate_spec, sct_instance, standard_interactions  # noqa: E402
from minqc.errors import AncillaEntangledAtExit, SearchExhausted  # noqa: E402
from minqc.gates import cz_gate, hadamard, swap_gate  # noqa: E402
from minqc.linalg import herm_exp, random_unitary, tensor  # noqa: E402
from workloads import random_schedule  # noqa: E402

WALL_TIME = re.compile(rb'"wall_time_s": [0-9.e+-]+')

CLI_CASES = [
    *(["verify", "all", "--seed", seed, "--trials", trials] for seed in ("0", "7") for trials in ("100", "25", "1")),
    ["verify", "all", "--seed", "7", "--trials", "9"],  # between the k-7 (8) and l-9 (10) caps
    ["verify", "all", "--seed", "3", "--trials", "2"],
    # a few draws past one block of cli._DRAW_BLOCK (128), so each check crosses a block boundary
    *(["verify", suite, "--seed", "5", "--trials", "131"] for suite in ("k", "l", "hamiltonian")),
    ["schedule", "cz_t_two_qubit.sched", "--claimed", "cz_t_entangler.mat"],
    ["schedule", "sct_two_qubit.sched", "--claimed", "sct_entangler.mat"],
    ["schedule", "sct_single_qubit_1.sched", "--claimed", "THT"],
    ["schedule", "sct_single_qubit_1.sched", "--claimed", "H"],
    ["synth", "--gens", "T,HT", "--target", "H", "--eps", "1e-10"],
    ["synth", "--gens", "T,HT", "--target", "Tdg", "--eps", "1e-12"],  # exact inverse word for the CZ-T model
    ["synth", "--gens", "H,THT", "--target", "THT", "--eps", "1e-8"],
    ["synth", "--gens", "Z,T", "--target", "X", "--eps", "0.01"],
    ["synth", "--gens", "Z,T", "--target", "X", "--eps", "1e-17", "--max-len", "300"],
    ["synth", "--gens", "H,THT", "--target", "random", "--eps", "0.05", "--max-len", "44", "--seed", "3"],
    ["synth", "--gens", "random,random", "--target", "random", "--eps", "0.2", "--max-len", "14", "--seed", "5"],
    ["synth", "--gens", "T,HT", "--target", "random", "--eps", "1e-16", "--max-len", "24", "--seed", "1"],
    ["synth", "--gens", "Z,T", "--target", "X", "--eps", "1e-16", "--max-len", "2000"],
    ["synth", "--gens", "R(1),R(1.4142135623730951)", "--target", "X", "--eps", "0.01", "--max-len", "600"],
    ["synth", "--gens", "H,THT", "--target", "T", "--eps", "1e200"],  # epsilon**2 overflows a float
]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def emit(name: str, outcome: str, *parts) -> None:
    print(f"{name:<72} {outcome:<22} {digest(*parts)}", flush=True)


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    raised = []
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = f"exit {cli.main(argv)}"
    except Exception as exc:  # the case's outcome, as in run_outcome
        outcome, raised = type(exc).__name__, [str(exc)]
    emit(" ".join(argv), outcome, WALL_TIME.sub(b'"wall_time_s": MASKED', out.getvalue().encode()),
         err.getvalue().encode(), *raised)


def three_qubit_schedule_case() -> None:
    """``schedule`` on a 3-qubit register against an 8x8 claimed file.  The files
    go to a temporary directory and are named relative to it, so the report
    bytes do not depend on where that directory is."""
    gate = np.kron(swap_model.entangling_gate(sct_instance()), np.eye(2))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("sct_three_qubit.sched").write_text("REGISTER 3\nPREP a0 0\nINT sct 2 a0\nINT sct 1 a0\nINT sct 2 a0\n")
            Path("sct_three_qubit.mat").write_text("".join(" ".join(map(repr, row.tolist())) + "\n" for row in gate))
            run_cli(["schedule", "sct_three_qubit.sched", "--claimed", "sct_three_qubit.mat"])
        finally:
            os.chdir(here)


def word_outcome(g0, g1, target, epsilon: float, max_len: int):
    try:
        word = synth.synthesize(g0, g1, target, epsilon, max_len=max_len)
    except SearchExhausted as exc:
        return ("exhausted", str(exc))
    return (word.bits, word.distance.hex())


def synthesis_cases() -> None:
    h, tht = parse_gate_spec("H"), parse_gate_spec("THT")
    rng = np.random.default_rng(109)  # acceptance check 09's targets
    targets = [random_unitary(2, rng) for _ in range(100)]
    for max_len in (24, 44):
        emit(f"synthesize H,THT on check-09 targets at 0.05, max_len {max_len}", "ok",
             *(word_outcome(h, tht, t, 0.05, max_len) for t in targets))
    rng = np.random.default_rng(20)
    triples = [tuple(random_unitary(2, rng) for _ in range(3)) for _ in range(20)]
    for epsilon, max_len in ((0.2, 14), (1e-9, 22)):
        emit(f"synthesize 20 random pairs at {epsilon:g}, max_len {max_len}", "ok",
             *(word_outcome(*triple, epsilon, max_len) for triple in triples))
    # word-reachable targets at tiny epsilon: 13 pairs x 6 targets x 4 epsilons
    rng = np.random.default_rng(19)
    pairs = [tuple(parse_gate_spec(g) for g in pair.split(",")) for pair in ("H,THT", "T,HT", "H,TT")]
    pairs += [(random_unitary(2, rng), random_unitary(2, rng)) for _ in range(10)]
    reachable = [(pair, synth.word_product(rng.integers(0, 2, size=rng.integers(0, 15)), *pair))
                 for pair in pairs for _ in range(6)]
    emit("synthesize 78 word-reachable targets at 1e-9 .. 1e-15, max_len 14", "ok",
         *(word_outcome(*pair, target, epsilon, 14) for pair, target in reachable
           for epsilon in (1e-9, 1e-11, 1e-13, 1e-15)))
    for pair in ("H,THT", "T,HT"):
        g0, g1 = (parse_gate_spec(g) for g in pair.split(","))
        for depth in (0, 8, 16):
            emit(f"density_probe {pair} depth {depth}", "ok", synth.density_probe(g0, g1, depth).hex())
    rng = np.random.default_rng(14)
    g0, g1 = random_unitary(2, rng), random_unitary(2, rng)
    for depth in (8, 12):
        emit(f"density_probe Haar pair depth {depth}", "ok", synth.density_probe(g0, g1, depth).hex())


def axis_angle_cases() -> None:
    h, t, tht = (parse_gate_spec(g) for g in ("H", "T", "THT"))
    rng = np.random.default_rng(21)
    gates = [random_unitary(2, rng) for _ in range(200)] + [h @ tht, tht @ h, t, h @ t, np.eye(2, dtype=complex)]
    forms = [synth.axis_angle(g) for g in gates]
    emit(f"axis_angle on {len(forms)} gates", "ok",
         *([aa.phi.hex(), [float(n).hex() for n in aa.axis], aa.global_phase.hex(), aa.degenerate] for aa in forms))


def universality_cases() -> None:
    named = [tuple(parse_gate_spec(g) for g in pair.split(","))
             for pair in ("H,THT", "T,HT", "H,T", "X,Z", "H,TT", "Z,T", "X,X", "T,H", "HT,TH")]
    # rational phase pairs: about one axis, and about the z and x axes
    rational = [(parse_gate_spec(f"R({a!r})"), parse_gate_spec(f"{conj}R({b!r}){conj}"))
                for a, b in ((np.pi / 4, np.pi / 3), (np.pi / 2, np.pi / 5), (2 * np.pi / 3, np.pi / 7))
                for conj in ("", "H")]
    same_axis = [tuple(parse_gate_spec(g) for g in pair) for pair in (("R(1)", "X"), ("R(1)", "R(1.4142135623730951)"))]
    rng = np.random.default_rng(20)
    haar = [(random_unitary(2, rng), random_unitary(2, rng)) for _ in range(20)]
    reports = [synth.universality_diagnostic(*pair) for pair in named + rational + same_axis + haar]
    emit(f"universality_diagnostic on {len(reports)} pairs", "ok",
         *([getattr(r, f) for f in ("verdict", "rational_angle_flag")]
           + [getattr(r, f).hex() for f in ("phi0", "phi1", "phi_plus", "phi_minus", "axis_angle_between")]
           for r in reports))


def stacked_gate_cases() -> None:
    """``is_entangling`` and the swap model's two-interaction residual on
    seeded stacks, digested per gate.  The two-qubit stack mixes the
    non-entangling classes (identity, SWAP, local gates and SWAP times local
    gates), which take the product-state fallback, with CZ and Haar gates."""
    rng = np.random.default_rng(34)
    local = tensor(random_unitary(2, rng, (6,)), random_unitary(2, rng, (6,)))
    weak = herm_exp(np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex), 1e-5)  # near the identity's class, entangling
    gates = np.concatenate([
        np.eye(4, dtype=complex)[None], swap_gate()[None], local, swap_gate() @ local,
        cz_gate()[None], (weak @ local[0])[None], random_unitary(4, rng, (4,)),
    ])
    gates = gates[rng.permutation(len(gates))].reshape(5, 4, 4, 4)
    emit(f"is_entangling on a {gates.shape[:-2]} stack", "ok", locequiv.is_entangling(gates).tobytes())
    angles = rng.uniform(-7, 7, (3, 12))
    angles[1:, :4] = 0.0  # no local rotation offsets, so no phase per preparation branch
    stack = swap_model.swap_interaction(random_unitary(2, rng, (12,)), *angles)
    for bit in (0, 1):
        emit(f"swap_model.action_residual(., {bit}) on a (12,) stack", "ok",
             swap_model.action_residual(stack, bit).tobytes())


def run_outcome(schedule, overrides=None) -> tuple[str, list]:
    try:
        report = simulator.run(schedule, prep_overrides=overrides)
    except AncillaEntangledAtExit as exc:
        return "AncillaEntangledAtExit", [str(exc)]
    exits = sorted(report.ancilla_exit_states.items())
    return "ok", [
        report.register_unitary.tobytes(),
        *(name.encode() + chi.tobytes() for name, chi in exits),
        sorted((name, d.hex()) for name, d in report.purity_deficits.items()),
        report.warnings,
    ]


def simulator_cases() -> None:
    interactions = standard_interactions()
    for n in (2, 3, 4, 5, 9, 10):
        text, _, _ = random_schedule(n, np.random.default_rng(n))
        outcome, parts = run_outcome(simulator.schedule_from_text(text, interactions))
        emit(f"simulator.run random_schedule n={n}", outcome, *parts)
    # overridden preparations: ancillas that entangle, so the run names a rejected input
    for n in (3, 4):
        schedule = simulator.schedule_from_text(random_schedule(n, np.random.default_rng(n))[0], interactions)
        plus = {a: np.array([1, 1]) / np.sqrt(2) for a in schedule.preps}
        outcome, parts = run_outcome(schedule, plus)
        emit(f"simulator.run random_schedule n={n}, every ancilla in |+>", outcome, *parts)
    # near-swaps whose deficits fall between the clean and the reject
    # threshold, so the run warns; the warnings are digested in the order they
    # come out.  On 4 qubits the second segment repeats the first.
    near = {"ns": herm_exp(swap_gate(), 1e-4)}
    steps = [simulator.Step("ns", q, a) for q, a in ((0, "a"), (1, "b"), (0, "a"), (2, "c"), (3, "d"), (2, "c"))]
    for n in (2, 4):
        schedule = simulator.Schedule(n, {a: 0 for a in "abcd"[:n]}, steps[:3 * n // 2], near)
        outcome, parts = run_outcome(schedule)
        emit(f"simulator.run near-swaps on {n} qubits (warns)", outcome, *parts)
    # input 1 fails at step 1, input 0 only at step 2: the run names input 0
    controlled_h = np.eye(4, dtype=complex)
    controlled_h[2:, 2:] = hadamard()
    text = "REGISTER 2\nPREP b 1\nINT half_swap 1 b\nPREP a 0\nINT ch 0 a\nINT cz_plain 1 b\n"
    schedule = simulator.schedule_from_text(
        text, {**interactions, "ch": controlled_h, "half_swap": herm_exp(swap_gate(), np.pi / 4)}
    )
    outcome, parts = run_outcome(schedule)
    emit("simulator.run, the lowest failing input failing at a later step", outcome, *parts)
    # one wide segment: SCT entanglers (steps j, k, j) chained so that each
    # ancilla's last step follows the next ancilla's first; 18 steps, 10 live qubits
    chain = []
    for a, (j, k) in enumerate(((0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (3, 4))):
        first, *rest = (simulator.Step("sct", q, f"a{a}") for q in (j, k, j))
        chain.insert(len(chain) - 1, first)  # before the previous ancilla's last step
        chain += rest
    outcome, parts = run_outcome(simulator.Schedule(8, {f"a{a}": 0 for a in range(6)}, chain, interactions))
    emit("simulator.run chained SCT entanglers, one segment on 8 qubits", outcome, *parts)

def main() -> int:
    here = os.getcwd()
    os.chdir(resources.files("minqc") / "data")  # schedule reports name the file as given
    try:
        for argv in CLI_CASES:
            run_cli(argv)
    finally:
        os.chdir(here)
    three_qubit_schedule_case()
    synthesis_cases()
    axis_angle_cases()
    universality_cases()
    stacked_gate_cases()
    simulator_cases()
    return 0


if __name__ == "__main__":
    sys.exit(main())
