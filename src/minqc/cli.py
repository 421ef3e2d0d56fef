"""Command-line surface: verification suites, word synthesis, schedule checks.

Reports are JSON documents on stdout with a stable schema; for identical
seed and arguments the bytes are identical except for the wall_time_s field.
Randomness derives from a single 64-bit seed with per-check counters, so any
suite reproduces the same draws whether run alone or as part of ``all``.

Exit codes: 0 all checks passed, 1 a check or verification failed, 2 invalid
arguments or unparseable input, 3 synthesis search exhausted.  Input errors
print one ``minqc <command>: <message>`` line to stderr; a failed
``synth`` or ``schedule`` run that still has a report (search exhausted,
ancilla exiting entangled) emits it with an ``error`` field.  The
environment variable MINQC_TOL overrides the default tolerance of the
``schedule`` command.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, catalog, cz_model, hamiltonian, locequiv, swap_model, synth
from .errors import AncillaEntangledAtExit, DimensionMismatch, SearchExhausted
from .gates import I2, Z, cz_gate, hadamard, swap_gate, t_gate
from .linalg import dist_phase, random_unitary, require_unitary
from .simulator import run as run_schedule
from .simulator import schedule_from_text, verify_against
from .synth import GateWord, NOT_UNIVERSAL, PLAUSIBLY_UNIVERSAL, word_product

SCHEMA_VERSION = "1"
_SUITE_IDS = {"k": 1, "l": 2, "hamiltonian": 3, "appendix-a": 4, "endnote-a": 5}


def _rng(seed: int, suite: str, check_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SUITE_IDS[suite], check_index])


def _check(suite: str, claim: str, residual: float, tolerance: float) -> dict:
    return {
        "suite": suite,
        "claim": claim,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
    }


def _bool_check(suite: str, claim: str, ok: bool) -> dict:
    return _check(suite, claim, 0.0 if ok else 1.0, 0.5)


def _margin_check(suite: str, claim: str, value: float, threshold: float) -> dict:
    # pass when value exceeds threshold; residual is the shortfall
    return _check(suite, claim, max(0.0, threshold - value), 1e-15)


def _random_instances(rng: np.random.Generator, trials: int):
    for _ in range(trials):
        yield random_unitary(2, rng), random_unitary(2, rng)


def _suite_k(seed: int, trials: int) -> list[dict]:
    suite = "k"
    checks = []
    h = hadamard()

    rng = _rng(seed, suite, 0)
    residual = 0.0
    for u, v in _random_instances(rng, trials):
        residual = max(residual, cz_model.factorization_residual(cz_model.cz_interaction(u, v)))
    checks.append(_check(suite, "dressed-CZ and ancilla-controlled factorizations agree", residual, cz_model.FACTORIZATION_ATOL))

    rng = _rng(seed, suite, 1)
    residual = 0.0
    for u, v in _random_instances(rng, trials):
        k = cz_model.cz_interaction(u, v)
        residual = max(residual, cz_model.action_residual(k, 0), cz_model.action_residual(k, 1))
    checks.append(_check(suite, "basis-prepared ancilla applies the selected gate, exiting in H|i>", residual, cz_model.ACTION_ATOL))

    rng = _rng(seed, suite, 2)
    decouple = 0.0
    invariant_gap = 0.0
    schmidt = 0.0
    cz_inv = locequiv.invariants(cz_gate())
    for u, v in _random_instances(rng, trials):
        seq, induced, residual = cz_model.sandwich(cz_model.cz_interaction(u, v))
        decouple = max(decouple, residual)
        invariant_gap = max(invariant_gap, locequiv.invariants(induced).distance(cz_inv))
        svals = np.linalg.svd(seq.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4), compute_uv=False)
        schmidt = max(schmidt, float(svals[1]))
    checks.append(_check(suite, "four-interaction sandwich decouples the mediating ancilla", decouple, cz_model.SANDWICH_ATOL))
    checks.append(_check(suite, "induced register gate is locally equivalent to CZ", invariant_gap, locequiv.INVARIANT_ATOL))
    checks.append(_check(suite, "register/ancilla operator Schmidt rank is one", schmidt, 1e-10))

    k = catalog.cz_t_instance()
    residual = max(
        float(np.linalg.norm(k.gate0 - t_gate())),
        float(np.linalg.norm(k.gate1 - h @ t_gate())),
    )
    checks.append(_check(suite, "T/HT instance selects exactly T and HT", residual, 1e-12))

    residual = float(np.linalg.norm(k.gate1 @ np.linalg.matrix_power(k.gate0, 7) - h))
    checks.append(_check(suite, "T/HT instance: gate1 gate0^7 equals the Hadamard", residual, 1e-12))

    induced = cz_model.entangling_gate(k)
    word7 = GateWord((0,) * 7, 0.0)
    schedule = cz_model.two_qubit_schedule(k, word7, "cz_t")
    report = run_schedule(schedule)
    sim_residual = dist_phase(report.register_unitary, induced)
    counts_ok = schedule.ancilla_count() == 15 and schedule.interaction_count() == 18
    checks.append(_check(suite, "15-ancilla word schedule implements the induced entangler", sim_residual, 1e-9))
    checks.append(_bool_check(suite, "word schedule uses 14 word ancillas plus 1 entangling ancilla, 18 interactions", counts_ok))

    rng = _rng(seed, suite, 7)
    residual = 0.0
    for _ in range(min(trials, 8)):
        prep = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rep = run_schedule(schedule, prep_overrides={"e": prep})
        residual = max(residual, dist_phase(rep.register_unitary, induced))
    checks.append(_check(suite, "entangling ancilla may be prepared in any pure state", residual, 1e-9))

    rng = _rng(seed, suite, 8)
    residual = 0.0
    for _ in range(trials):
        u = random_unitary(2, rng)
        diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        k_diag = cz_model.cz_interaction(u, diag @ u.conj().T)
        residual = max(residual, float(np.linalg.norm(
            k_diag.gate0 @ k_diag.gate1 - k_diag.gate1 @ k_diag.gate0
        )))
    checks.append(_check(suite, "diagonal v.u forces the selected gates to commute", residual, 1e-12))
    return checks


def _suite_l(seed: int, trials: int) -> list[dict]:
    suite = "l"
    checks = []
    swap = swap_gate()

    def draw(rng):
        return (
            random_unitary(2, rng),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
        )

    rng = _rng(seed, suite, 0)
    residual = 0.0
    for _ in range(trials):
        l = swap_model.swap_interaction(*draw(rng))
        residual = max(residual, swap_model.factorization_residual(l))
    checks.append(_check(suite, "swap-phase and ancilla-controlled factorizations agree", residual, swap_model.FACTORIZATION_ATOL))

    rng = _rng(seed, suite, 1)
    residual = 0.0
    for _ in range(trials):
        l = swap_model.swap_interaction(*draw(rng))
        residual = max(residual, swap_model.action_residual(l, 0), swap_model.action_residual(l, 1))
    checks.append(_check(suite, "two interactions apply the selected gate, ancilla exiting in u|i>", residual, swap_model.ACTION_ATOL))

    rng = _rng(seed, suite, 2)
    decouple = 0.0
    entangling_ok = True
    asym_dists = []
    for _ in range(trials):
        closed, residual = swap_model.sandwich(swap_model.swap_interaction(*draw(rng)))
        decouple = max(decouple, residual)
        entangling_ok = entangling_ok and locequiv.is_entangling(closed)
        asym_dists.append(dist_phase(closed, swap @ closed @ swap))
    checks.append(_check(suite, "three-interaction sequence decouples the ancilla in u|0> and matches the closed form", decouple, swap_model.SANDWICH_ATOL))
    checks.append(_bool_check(suite, "induced entangler is entangling for nontrivial phase angles", entangling_ok))
    # exchange symmetry only occurs on a measure-zero parameter set; assert
    # the typical draw is far from it and the SCT instance specifically is
    sct_gate_n = swap_model.entangling_gate(catalog.sct_instance())
    asym = min(
        float(np.median(asym_dists)) if asym_dists else 1.0,
        dist_phase(sct_gate_n, swap @ sct_gate_n @ swap),
    )
    checks.append(_margin_check(suite, "induced entangler is generically asymmetric under register exchange", asym, 0.1))

    l = catalog.sct_instance()
    residual = max(
        float(np.linalg.norm(l.gate0 - hadamard())),
        float(np.linalg.norm(l.gate1 - t_gate() @ hadamard() @ t_gate())),
    )
    checks.append(_check(suite, "SCT instance selects exactly H and THT", residual, 1e-12))
    checks.append(_check(suite, "SCT instance: entangler's fourth power is CNOT (control on second qubit)", swap_model.cnot_power_residual(l), 1e-11))

    degenerate = swap_model.swap_interaction(I2, 0.0)
    degenerate_gate = swap_model.entangling_gate(degenerate)
    ok = (not locequiv.is_entangling(degenerate_gate)) and np.linalg.norm(degenerate_gate - swap) < 1e-12
    checks.append(_bool_check(suite, "zero-angle instance degenerates to SWAP and is not entangling", ok))

    two_q = swap_model.two_qubit_schedule(l, "sct")
    one_q = swap_model.single_qubit_schedule(l, 1, "sct")
    ok = (
        two_q.interaction_count() == 3
        and two_q.ancilla_count() == 1
        and one_q.interaction_count() == 2
        and one_q.ancilla_count() == 1
    )
    checks.append(_bool_check(suite, "schedules use 3 interactions per entangling gate and 2 per single-qubit gate", ok))

    rng = _rng(seed, suite, 9)
    residual = 0.0
    for _ in range(min(trials, 10)):
        u, th, tr, ta = draw(rng)
        inst = swap_model.swap_interaction(u, th, tr, ta)
        rep = run_schedule(swap_model.two_qubit_schedule(inst, "swap"))
        residual = max(residual, dist_phase(rep.register_unitary, swap_model.entangling_gate(inst)))
        for bit in (0, 1):
            rep = run_schedule(swap_model.single_qubit_schedule(inst, bit, "swap"))
            residual = max(residual, dist_phase(rep.register_unitary, inst.gate(bit)))
    checks.append(_check(suite, "end-to-end schedule simulation reproduces the entangler and selected gates", residual, 1e-10))
    return checks


def _suite_hamiltonian(seed: int, trials: int) -> list[dict]:
    suite = "hamiltonian"
    checks = []

    residual = max(hamiltonian.evolution_residual(th) for th in np.linspace(0.0, 2 * np.pi, 32, endpoint=False))
    checks.append(_check(suite, "quarter-time evolution matches the swap-phase product form on a 32-angle grid", residual, hamiltonian.EVOLUTION_ATOL))

    rng = _rng(seed, suite, 1)
    residual = 0.0
    eig_residual = 0.0
    for _ in range(trials):
        th = rng.uniform(0, 2 * np.pi)
        residual = max(residual, hamiltonian.evolution_residual(th))
        eig_residual = max(eig_residual, hamiltonian.spectrum_residual(th))
    checks.append(_check(suite, "product-form identity holds at random angles", residual, hamiltonian.EVOLUTION_ATOL))
    checks.append(_check(suite, "spectrum is {pi-theta (x2), pi+theta, theta-3pi}", eig_residual, hamiltonian.SPECTRUM_ATOL))

    rng = _rng(seed, suite, 3)
    residual = 0.0
    for _ in range(trials):
        th = rng.uniform(0, 2 * np.pi)
        inst = hamiltonian.derived_swap_instance(th)
        residual = max(residual, hamiltonian.selected_gate_residuals(inst, th)[0])
    checks.append(_check(suite, "derived interaction always selects the Hadamard first", residual, hamiltonian.DERIVED_ATOL))

    inst = hamiltonian.derived_swap_instance(np.pi / 4)
    residual = max(hamiltonian.selected_gate_residuals(inst, np.pi / 4))
    checks.append(_check(suite, "quarter-pi derived instance selects {H, THT}", residual, hamiltonian.DERIVED_ATOL))

    degenerate = hamiltonian.derived_swap_instance(0.0)
    verdict = synth.universality_diagnostic(degenerate.gate0, degenerate.gate1).verdict
    checks.append(_bool_check(suite, "zero-angle derived instance is rejected by the universality diagnostic", verdict == NOT_UNIVERSAL))
    return checks


def _suite_universality(seed: int, trials: int) -> list[dict]:
    suite = "appendix-a"
    checks = []
    h = hadamard()
    tht = t_gate() @ h @ t_gate()

    plus = synth.axis_angle(h @ tht)
    minus = synth.axis_angle(tht @ h)
    target_cos = np.cos(np.pi / 8) ** 2
    residual = max(abs(np.cos(plus.phi) - target_cos), abs(np.cos(minus.phi) - target_cos))
    checks.append(_check(suite, "both generator products rotate by arccos(cos^2(pi/8))", residual, 1e-12))

    cot = 1 / np.tan(np.pi / 8)
    n_plus = -np.array([cot, -1.0, cot])
    n_plus /= np.linalg.norm(n_plus)
    n_minus = -np.array([cot, 1.0, cot])
    n_minus /= np.linalg.norm(n_minus)
    residual = max(
        float(np.linalg.norm(plus.axis - n_plus)), float(np.linalg.norm(minus.axis - n_minus))
    )
    checks.append(_check(suite, "product axes match -(cot(pi/8), -+1, cot(pi/8)) normalized", residual, 1e-9))
    checks.append(_margin_check(suite, "product axes are non-parallel (cross norm above 0.4)", float(np.linalg.norm(np.cross(plus.axis, minus.axis))), 0.4))

    report = synth.universality_diagnostic(h, tht)
    checks.append(_bool_check(suite, "product angles are plausibly irrational multiples of pi", not report.rational_angle_flag and report.verdict == PLAUSIBLY_UNIVERSAL))

    verdicts_ok = (
        synth.universality_diagnostic(t_gate(), h @ t_gate()).verdict == PLAUSIBLY_UNIVERSAL
        and synth.universality_diagnostic(Z, t_gate()).verdict == NOT_UNIVERSAL
    )
    checks.append(_bool_check(suite, "verdicts: {T,HT} plausibly universal, {Z,T} rejected", verdicts_ok))

    rng = _rng(seed, suite, 5)
    residual = 0.0
    for _ in range(trials):
        g = random_unitary(2, rng)
        residual = max(residual, dist_phase(synth.from_axis_angle(synth.axis_angle(g)), g))
    checks.append(_check(suite, "axis-angle decomposition reconstructs Haar draws", residual, 1e-11))

    rng = _rng(seed, suite, 6)
    worst = 0.0
    mismatch = 0.0
    exhausted = 0
    for _ in range(min(trials, 20)):
        length = int(rng.integers(6, 17))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=length))
        target = word_product(bits, h, tht)
        try:
            word = synth.synthesize(h, tht, target, 1e-8)
        except SearchExhausted:
            exhausted += 1
            continue
        recomputed = dist_phase(word_product(word.bits, h, tht), target)
        worst = max(worst, recomputed)
        mismatch = max(mismatch, abs(recomputed - word.distance))
    checks.append(_check(suite, "synthesis recovers word-reachable targets", worst if not exhausted else 1.0, 1e-8))
    checks.append(_check(suite, "recorded word distances match recomputation", mismatch, 1e-12))
    return checks


def _suite_mediated(seed: int, trials: int) -> list[dict]:
    suite = "endnote-a"
    loop, pauli = cz_model.mediated_cz_residuals()
    return [
        _check(suite, "alternating controlled-X/-Z loop composes to a register controlled-Z", loop, cz_model.MEDIATED_LOOP_ATOL),
        _check(suite, "XZXZ equals minus the identity", pauli, cz_model.PAULI_LOOP_ATOL),
    ]


_SUITES = {
    "k": _suite_k,
    "l": _suite_l,
    "hamiltonian": _suite_hamiltonian,
    "appendix-a": _suite_universality,
    "endnote-a": _suite_mediated,
}


def _emit(report: dict, start: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    print(json.dumps(report, indent=2))


def cmd_verify(args) -> int:
    start = time.perf_counter()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: list[dict] = []
    warnings: list[str] = []
    if args.trials == 0:
        warnings.append("trials=0: no checks executed (vacuous pass)")
    else:
        for name in names:
            checks.extend(_SUITES[name](args.seed, args.trials))
    passed = sum(1 for c in checks if c["pass"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "version": __version__,
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
        "warnings": warnings,
        "overall_pass": passed == len(checks),
    }
    _emit(report, start)
    return 0 if report["overall_pass"] else 1


def cmd_synth(args) -> int:
    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    parts = args.gens.split(",")
    if len(parts) != 2:
        raise ValueError("--gens expects two comma-separated gate expressions")
    g0 = catalog.parse_gate_spec(parts[0].strip(), rng)
    g1 = catalog.parse_gate_spec(parts[1].strip(), rng)
    target = catalog.parse_gate_spec(args.target, rng)
    if target.shape != (2, 2) or g0.shape != (2, 2) or g1.shape != (2, 2):
        raise ValueError("synthesis operates on 2x2 gates")
    diagnostic = synth.universality_diagnostic(g0, g1)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "synth",
        "version": __version__,
        "generators": [parts[0].strip(), parts[1].strip()],
        "target": args.target,
        "epsilon": args.eps,
        "max_len": args.max_len,
        "seed": args.seed,
        "universality_verdict": diagnostic.verdict,
    }
    try:
        word = synth.synthesize(g0, g1, target, args.eps, args.max_len)
    except SearchExhausted as exc:
        report["error"] = str(exc)
        _emit(report, start)
        return 3
    report["word"] = list(word.bits)
    report["length"] = len(word.bits)
    report["distance"] = word.distance
    _emit(report, start)
    return 0


def _schedule_tolerance(tol: float | None) -> float:
    """``--tol``, else MINQC_TOL, else 1e-9; it must be positive and finite."""
    source = "--tol"
    if tol is None:
        source, raw = "MINQC_TOL", os.environ.get("MINQC_TOL", "1e-9")
        try:
            tol = float(raw)
        except ValueError:
            raise ValueError(f"MINQC_TOL={raw!r} is not a number") from None
    if not 0 < tol < math.inf:
        raise ValueError(f"{source} must be positive and finite, got {tol}")
    return tol


def cmd_schedule(args) -> int:
    start = time.perf_counter()
    tol = _schedule_tolerance(args.tol)
    with open(args.file) as fh:
        text = fh.read()
    schedule = schedule_from_text(text, catalog.standard_interactions())
    claimed = catalog.parse_gate_spec(args.claimed)
    reg_dim = 2**schedule.register_size
    if claimed.shape != (reg_dim, reg_dim):
        raise DimensionMismatch(
            f"claimed gate is {claimed.shape[0]}x{claimed.shape[1]}, "
            f"the {schedule.register_size}-qubit register needs {reg_dim}x{reg_dim}"
        )
    require_unitary(claimed, "claimed gate")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "schedule",
        "version": __version__,
        "file": args.file,
        "claimed": args.claimed,
        "register_size": schedule.register_size,
        "interactions": schedule.interaction_count(),
        "ancillas": schedule.ancilla_count(),
    }
    try:
        report_obj = run_schedule(schedule)
    except AncillaEntangledAtExit as exc:
        report.update({"tolerance": tol, "pass": False, "error": str(exc)})
        _emit(report, start)
        return 1
    ok = verify_against(report_obj, claimed, tol)
    report.update({
        "residual": report_obj.residuals["claimed"],
        "tolerance": tol,
        "pass": ok,
        "ancilla_exit_states": {
            name: [[float(z.real), float(z.imag)] for z in state]
            for name, state in sorted(report_obj.ancilla_exit_states.items())
        },
        "max_purity_deficit": max(report_obj.purity_deficits.values(), default=0.0),
        "warnings": report_obj.warnings,
    })
    _emit(report, start)
    return 0 if ok else 1


def _nonnegative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minqc",
        description="Verify, simulate, and synthesize minimal-control ancilla-mediated gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a model's invariant suite")
    p_verify.add_argument(
        "suite",
        choices=["k", "l", "hamiltonian", "appendix-a", "endnote-a", "all"],
        help="which suite to run (k/l are the two interaction models)",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=_nonnegative_int, default=100)
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="find a generator word for a target gate")
    p_synth.add_argument("--gens", required=True, help="two gate expressions, comma separated (e.g. T,HT)")
    p_synth.add_argument("--target", required=True, help="gate expression, matrix literal, file, or 'random'")
    p_synth.add_argument("--eps", type=float, required=True, help="target accuracy (phase-insensitive)")
    p_synth.add_argument("--max-len", type=_nonnegative_int, default=synth.DEFAULT_MAX_WORD_LEN)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_schedule = sub.add_parser("schedule", help="simulate a schedule file and compare to a claimed gate")
    p_schedule.add_argument("file", help="schedule file (REGISTER/PREP/INT lines)")
    p_schedule.add_argument("--claimed", required=True, help="gate expression, matrix literal, or file")
    p_schedule.add_argument("--tol", type=float, default=None, help="tolerance (default: MINQC_TOL or 1e-9)")
    p_schedule.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # downstream closed the report stream
        return 1
    except (ValueError, OSError) as exc:  # the package's input errors
        print(f"minqc {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
