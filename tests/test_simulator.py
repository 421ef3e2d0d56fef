import numpy as np
import pytest
from importlib import resources

from minqc.catalog import cz_t_instance, sct_instance, standard_interactions
from minqc.errors import AncillaEntangledAtExit, ScheduleInvalid, ScheduleParseError
from minqc.gates import cnot_gate, hadamard, swap_gate, t_gate
from minqc.linalg import dist_phase, herm_exp
from minqc.simulator import (
    MAX_LIVE_QUBITS,
    MAX_REGISTER_QUBITS,
    RunReport,
    Schedule,
    Step,
    run,
    schedule_from_text,
    schedule_to_text,
    verify_against,
)
from minqc.swap_model import entangling_gate, two_qubit_schedule


def test_single_interaction_schedule():
    k = cz_t_instance()
    for bit, gate in ((0, t_gate()), (1, hadamard() @ t_gate())):
        schedule = Schedule(1, {"a": bit}, [Step("k", 0, "a")], {"k": k.matrix})
        report = run(schedule)
        assert dist_phase(report.register_unitary, gate) < 1e-12
        expected_exit = hadamard()[:, bit]
        assert abs(abs(np.vdot(expected_exit, report.ancilla_exit_states["a"])) - 1.0) < 1e-12
        assert report.purity_deficits["a"] < 1e-10
        u = report.register_unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) < 1e-9


def test_triple_interaction_schedule_matches_entangler():
    l = sct_instance()
    schedule = two_qubit_schedule(l, "sct")
    report = run(schedule)
    assert dist_phase(report.register_unitary, entangling_gate(l)) < 1e-10
    plus = hadamard() @ np.array([1.0, 0.0])
    assert abs(abs(np.vdot(plus, report.ancilla_exit_states["a0"])) - 1.0) < 1e-10


def test_empty_schedule_is_identity():
    report = run(Schedule(2, {}, [], {}))
    np.testing.assert_allclose(report.register_unitary, np.eye(4), atol=0)


def test_verify_against_records_residuals():
    k = cz_t_instance()
    schedule = Schedule(1, {"a": 0}, [Step("k", 0, "a")], {"k": k.matrix})
    report = run(schedule)
    assert verify_against(report, t_gate(), 1e-9)
    assert not verify_against(report, hadamard(), 1e-9, label="wrong")
    assert report.residuals["claimed"] < 1e-9
    assert report.residuals["wrong"] > 0.1


def test_runs_are_deterministic():
    schedule = two_qubit_schedule(sct_instance(), "sct")
    first = run(schedule)
    second = run(schedule)
    assert np.array_equal(first.register_unitary, second.register_unitary)
    for name in first.ancilla_exit_states:
        assert np.array_equal(first.ancilla_exit_states[name], second.ancilla_exit_states[name])


def test_prep_override_with_random_pure_states():
    k = cz_t_instance()
    from minqc.cz_model import entangling_gate as induced_gate
    from minqc.cz_model import two_qubit_schedule as k_schedule
    from minqc.synth import GateWord

    schedule = k_schedule(k, GateWord((0,) * 7, 0.0), "k")
    target = induced_gate(k)
    rng = np.random.default_rng(80)
    for _ in range(5):
        prep = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        report = run(schedule, prep_overrides={"e": prep})
        assert dist_phase(report.register_unitary, target) < 1e-9
        # the entangling ancilla exits in the state it was prepared in
        prep = prep / np.linalg.norm(prep)
        assert abs(abs(np.vdot(prep, report.ancilla_exit_states["e"])) - 1.0) < 1e-9


@pytest.mark.parametrize("name, prep", [
    ("e", [0, 0]),
    ("e", [np.nan, 1]),
    ("e", [np.inf, 1]),
    ("e", [1e300, 1e300]),
    ("e", [1, 0, 0]),
    ("e", [[1, 0], [0, 1]]),
    ("not_an_ancilla", [1, 0]),
])
def test_bad_prep_override_is_rejected_before_simulating(name, prep):
    from minqc.cz_model import two_qubit_schedule as k_schedule
    from minqc.synth import GateWord

    schedule = k_schedule(cz_t_instance(), GateWord((0,) * 7, 0.0), "k")
    with pytest.raises(ScheduleInvalid, match=repr(name)):
        run(schedule, prep_overrides={name: prep})


def test_entangled_exit_raises():
    half_swap = herm_exp(swap_gate(), np.pi / 4)
    schedule = Schedule(1, {"a": 0}, [Step("hs", 0, "a")], {"hs": half_swap})
    with pytest.raises(AncillaEntangledAtExit, match="entangled"):
        run(schedule)


def test_inconsistent_exit_across_inputs_raises():
    schedule = Schedule(1, {"a": 0}, [Step("cx", 0, "a")], {"cx": cnot_gate()})
    with pytest.raises(AncillaEntangledAtExit, match="different state"):
        run(schedule)


def test_small_purity_deficit_warns_but_proceeds():
    nearly_id = herm_exp(swap_gate(), 1e-4)
    schedule = Schedule(1, {"a": 0}, [Step("ns", 0, "a")], {"ns": nearly_id})
    report = run(schedule)
    assert report.warnings
    assert 1e-10 < max(report.purity_deficits.values()) < 1e-6


def test_schedule_validation_errors():
    with pytest.raises(ScheduleInvalid, match="never prepared"):
        Schedule(1, {}, [Step("k", 0, "a")], {"k": np.eye(4)}).validate()
    with pytest.raises(ScheduleInvalid, match="out of range"):
        Schedule(1, {"a": 0}, [Step("k", 3, "a")], {"k": np.eye(4)}).validate()
    with pytest.raises(ScheduleInvalid, match="unknown interaction"):
        Schedule(1, {"a": 0}, [Step("zz", 0, "a")], {"k": np.eye(4)}).validate()
    with pytest.raises(ScheduleInvalid, match="never used"):
        Schedule(1, {"a": 0, "b": 1}, [Step("k", 0, "a")], {"k": np.eye(4)}).validate()
    with pytest.raises(ScheduleInvalid, match="non-bit"):
        Schedule(1, {"a": 2}, [Step("k", 0, "a")], {"k": np.eye(4)}).validate()


def test_oversized_schedules_are_rejected_at_validation():
    interactions = standard_interactions()
    schedule_from_text(f"REGISTER {MAX_REGISTER_QUBITS}\n", interactions)
    with pytest.raises(ScheduleInvalid, match="register of 40 qubits"):
        schedule_from_text("REGISTER 40\n", interactions)

    def all_live(ancillas):  # every ancilla stays live until the closing steps
        names = [f"a{i}" for i in range(ancillas)]
        opening = [f"PREP {a} 0\nINT cz_plain 0 {a}" for a in names]
        return "\n".join(["REGISTER 1", *opening, *(f"INT cz_plain 0 {a}" for a in names)])

    schedule_from_text(all_live(MAX_LIVE_QUBITS - 1), interactions)
    with pytest.raises(ScheduleInvalid, match="live qubits"):
        schedule_from_text(all_live(MAX_LIVE_QUBITS), interactions)


def test_text_round_trip_is_canonical():
    interactions = standard_interactions()
    schedule = two_qubit_schedule(sct_instance(), "sct")
    schedule = Schedule(schedule.register_size, schedule.preps, schedule.steps, interactions)
    text = schedule_to_text(schedule)
    parsed = schedule_from_text(text, interactions)
    assert schedule_to_text(parsed) == text
    assert parsed.register_size == schedule.register_size
    assert parsed.preps == schedule.preps
    assert parsed.steps == schedule.steps


def test_bundled_schedules_are_canonical():
    interactions = standard_interactions()
    for name in ("cz_t_two_qubit.sched", "sct_two_qubit.sched", "sct_single_qubit_1.sched"):
        text = resources.files("minqc").joinpath(f"data/{name}").read_text()
        parsed = schedule_from_text(text, interactions)
        assert schedule_to_text(parsed) == text


def test_parser_reports_line_numbers():
    interactions = {"k": np.eye(4, dtype=complex)}
    cases = [
        ("REGISTER 1\nFROB a 0\n", 2, "unknown directive"),
        ("PREP a 2\n", 1, "PREP"),
        ("REGISTER 1\nINT k 0 a\n", 2, "before PREP"),
        ("PREP a 0\nINT zz 0 a\n", 2, "unknown interaction"),
        ("PREP a 0\nPREP a 1\n", 2, "prepared twice"),
        ("REGISTER 1\nREGISTER 2\n", 2, "duplicate REGISTER"),
        ("PREP a 0\nINT k x a\n", 2, "not an integer"),
        ("REGISTER ²\n", 1, "REGISTER"),
        ("", 0, "empty"),
    ]
    for text, line_no, fragment in cases:
        with pytest.raises(ScheduleParseError) as err:
            schedule_from_text(text, interactions)
        assert err.value.line_no == line_no
        assert fragment in str(err.value)


def test_parser_infers_register_size_and_allows_comments():
    interactions = {"k": cz_t_instance().matrix}
    text = "# single qubit, single ancilla\nPREP a 1  # prepared high\nINT k 0 a\n"
    schedule = schedule_from_text(text, interactions)
    assert schedule.register_size == 1
    report = run(schedule)
    assert isinstance(report, RunReport)


def test_norm_preserved_throughout():
    schedule = two_qubit_schedule(sct_instance(), "sct")
    report = run(schedule)
    for col in range(4):
        assert abs(np.linalg.norm(report.register_unitary[:, col]) - 1.0) < 1e-12
