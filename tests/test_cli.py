import json
import re

import numpy as np
import pytest
from importlib import resources

from minqc import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_path(name):
    return str(resources.files("minqc").joinpath(f"data/{name}"))


def test_verify_endnote_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "endnote-a"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["overall_pass"]
    assert all(c["residual"] < c["tolerance"] for c in report["checks"])
    assert report["checks"][0]["residual"] < 1e-12


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "all", "--seed", "7", "--trials", "25"])
    assert code == 0
    report = json.loads(out)
    assert report["overall_pass"]
    suites = {c["suite"] for c in report["checks"]}
    assert suites == {"k", "l", "hamiltonian", "appendix-a", "endnote-a"}


def test_verify_zero_trials_vacuous_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify", "k", "--trials", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["overall_pass"]
    assert report["checks"] == []
    assert any("vacuous" in w for w in report["warnings"])


def test_verify_reports_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["verify", "l", "--seed", "3", "--trials", "10"])
        assert code == 0
        outs.append(re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', out))
    assert outs[0] == outs[1]


def test_verify_suite_checks_match_all_run(capsys):
    _, solo, _ = run_cli(capsys, ["verify", "hamiltonian", "--seed", "5", "--trials", "10"])
    _, combined, _ = run_cli(capsys, ["verify", "all", "--seed", "5", "--trials", "10"])
    solo_checks = json.loads(solo)["checks"]
    combined_checks = [c for c in json.loads(combined)["checks"] if c["suite"] == "hamiltonian"]
    assert solo_checks == combined_checks


def test_synth_hadamard_word(capsys):
    code, out, _ = run_cli(capsys, ["synth", "--gens", "T,HT", "--target", "H", "--eps", "1e-10"])
    assert code == 0
    report = json.loads(out)
    assert report["length"] <= 8
    assert report["distance"] < 1e-10
    assert report["universality_verdict"] == "plausibly-universal"


def test_synth_single_letter_word(capsys):
    code, out, _ = run_cli(capsys, ["synth", "--gens", "H,THT", "--target", "THT", "--eps", "1e-10"])
    assert code == 0
    assert json.loads(out)["word"] == [1]


def test_synth_commuting_generators_exhausts(capsys):
    code, out, _ = run_cli(capsys, ["synth", "--gens", "Z,T", "--target", "X", "--eps", "0.01"])
    assert code == 3
    report = json.loads(out)
    assert "error" in report and "word" not in report


def test_synth_bad_gate_expression(capsys):
    code, _, err = run_cli(capsys, ["synth", "--gens", "T,FROB", "--target", "H", "--eps", "0.1"])
    assert code == 2
    assert "FROB" in err


def test_synth_matrix_literal_target(capsys):
    code, out, _ = run_cli(
        capsys,
        ["synth", "--gens", "T,HT", "--target", "1,0,0,0,0,0,1,0", "--eps", "1e-6"],
    )
    assert code == 0
    assert json.loads(out)["length"] == 0  # identity target: empty word


def test_schedule_bundled_files_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        ["schedule", data_path("cz_t_two_qubit.sched"), "--claimed", data_path("cz_t_entangler.mat")],
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["ancillas"] == 15 and report["interactions"] == 18

    code, out, _ = run_cli(
        capsys,
        ["schedule", data_path("sct_two_qubit.sched"), "--claimed", data_path("sct_entangler.mat")],
    )
    assert code == 0
    assert json.loads(out)["pass"]

    code, out, _ = run_cli(
        capsys,
        ["schedule", data_path("sct_single_qubit_1.sched"), "--claimed", "THT"],
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_schedule_wrong_claim_fails(capsys):
    code, out, _ = run_cli(
        capsys, ["schedule", data_path("sct_single_qubit_1.sched"), "--claimed", "H"]
    )
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert report["residual"] > 0.1


def test_schedule_corrupted_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.sched"
    bad.write_text("REGISTER 1\nPREP a 0\nINT cz_t zero a\n")
    code, _, err = run_cli(capsys, ["schedule", str(bad), "--claimed", "H"])
    assert code == 2
    assert "line 3" in err


def test_schedule_missing_file(capsys):
    code, _, err = run_cli(capsys, ["schedule", "/nonexistent.sched", "--claimed", "H"])
    assert code == 2
    assert err


def test_schedule_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("MINQC_TOL", "10.0")
    code, out, _ = run_cli(
        capsys, ["schedule", data_path("sct_single_qubit_1.sched"), "--claimed", "H"]
    )
    assert code == 0  # absurdly loose tolerance makes the wrong claim pass
    assert json.loads(out)["tolerance"] == 10.0


SCT1 = data_path("sct_single_qubit_1.sched")


def _unreachable(*args, **kwargs):
    raise AssertionError("the schedule was simulated before its input was rejected")


@pytest.mark.parametrize(
    "argv, env_tol, expected, fragment",
    [
        (["synth", "--gens", "T,HT", "--target", "1,0,0,0,0,0,2,0", "--eps", "0.1"], None, 2, ""),
        (["schedule", SCT1, "--claimed", "THT"], "abc", 2, "MINQC_TOL='abc'"),
        (["schedule", SCT1, "--claimed", "CZ"], None, 2, "needs 2x2"),
        (["synth", "--gens", "T,HT", "--target", "H", "--eps", "-1"], None, 2, ""),
        (["synth", "--gens", "T,HT", "--target", "H", "--eps", "nan"], None, 2, ""),
        (["schedule", "ENTANGLED", "--claimed", "CZ"], None, 1, ""),
        (["schedule", SCT1, "--claimed", "THT", "--tol", "nan"], None, 2, "--tol"),
        (["schedule", SCT1, "--claimed", "THT", "--tol", "-1"], None, 2, "--tol"),
        (["schedule", SCT1, "--claimed", "THT", "--tol", "inf"], None, 2, "--tol"),
        (["schedule", SCT1, "--claimed", "THT"], "nan", 2, "MINQC_TOL"),
        (["schedule", SCT1, "--claimed", "THT"], "0", 2, "MINQC_TOL"),
        (["schedule", SCT1, "--claimed", "R(nan)"], None, 2, "non-finite angle"),
        (["schedule", SCT1, "--claimed", "R(inf)"], None, 2, "non-finite angle"),
        (["schedule", SCT1, "--claimed", "R(1e400)"], None, 2, "non-finite angle"),
        (["schedule", SCT1, "--claimed", "nan,0,0,0,0,0,1,0"], None, 2, "non-finite entry"),
        (["schedule", SCT1, "--claimed", "1,0,0,0,0,0,1,inf"], None, 2, "non-finite entry"),
        (["schedule", SCT1, "--claimed", "NAN_MAT"], None, 2, "non-finite entry"),
        (["synth", "--gens", "R(inf),H", "--target", "H", "--eps", "0.1"], None, 2, "non-finite angle"),
        (["schedule", SCT1, "--claimed", "1,0,0,0,0,0,0,0"], None, 2, "not unitary"),
        (["schedule", SCT1, "--claimed", "1e300,0,0,0,0,0,1,0"], None, 2, "not unitary"),
        (["synth", "--gens", "T,HT", "--target", "1e300,0,0,0,0,0,1,0", "--eps", "0.1"], None, 2, "not unitary"),
    ],
    ids=[
        "non-unitary-target", "bad-env-tol", "claim-dimension", "negative-eps", "nan-eps", "entangled-exit",
        "nan-tol", "negative-tol", "inf-tol", "nan-env-tol", "zero-env-tol",
        "nan-angle", "inf-angle", "overflowing-angle", "nan-literal", "inf-literal", "nan-matrix-file",
        "inf-angle-generator", "non-unitary-claim", "overflowing-claim", "overflowing-target",
    ],
)
def test_error_paths_exit_without_traceback(capsys, monkeypatch, recwarn, tmp_path, argv, env_tol, expected, fragment):
    entangled = tmp_path / "entangled.sched"
    entangled.write_text("REGISTER 2\nPREP a 0\nINT cz_plain 0 a\nINT cz_plain 1 a\n")
    nan_mat = tmp_path / "nan.mat"
    nan_mat.write_text("nan 0j\n0j (1+0j)\n")
    if env_tol is not None:
        monkeypatch.setenv("MINQC_TOL", env_tol)
    if expected == 2:  # input errors are caught before any simulation
        monkeypatch.setattr(cli, "run_schedule", _unreachable)
    placeholders = {"ENTANGLED": str(entangled), "NAN_MAT": str(nan_mat)}
    argv = [placeholders.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == expected
    if expected == 2:
        assert out == "" and err.startswith(f"minqc {argv[0]}: ") and err.count("\n") == 1
        assert fragment in err
        assert not recwarn.list  # no numpy warning precedes the error line
    else:
        report = json.loads(out)
        assert report["pass"] is False and report["error"].startswith("ancilla 'a' exits step 1")


def test_invalid_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "k", "--trials", "-3"])
    assert exc.value.code == 2


def test_exit_codes_documented_in_module():
    assert "Exit codes" in cli.__doc__
