import tracemalloc

import numpy as np
import pytest

from minqc.catalog import (
    cz_t_instance,
    load_matrix_file,
    named_gates,
    parse_gate_expr,
    parse_gate_spec,
    parse_matrix_literal,
    sct_instance,
    standard_interactions,
)
from minqc.gates import hadamard, phase_gate, swap_gate, t_gate
from minqc.linalg import dist_phase, random_unitary, require_unitary


def test_named_gate_products():
    h, t = hadamard(), t_gate()
    np.testing.assert_allclose(parse_gate_expr("HT"), h @ t, atol=0)
    np.testing.assert_allclose(parse_gate_expr("THT"), t @ h @ t, atol=0)
    np.testing.assert_allclose(parse_gate_expr("Tdg"), t.conj().T, atol=0)
    np.testing.assert_allclose(parse_gate_expr("R(0.5)"), phase_gate(0.5), atol=0)
    np.testing.assert_allclose(parse_gate_expr("HR(0.5)H"), h @ phase_gate(0.5) @ h, atol=0)


def test_expression_errors():
    with pytest.raises(ValueError):
        parse_gate_expr("H Q")
    with pytest.raises(ValueError):
        parse_gate_expr("")
    with pytest.raises(ValueError):
        parse_gate_expr("HSWAP")  # mixed dimensions
    with pytest.raises(ValueError):
        parse_gate_expr("R(abc)")


def test_matrix_literal():
    m = parse_matrix_literal("1,0,0,0,0,0,1,0")
    np.testing.assert_allclose(m, np.eye(2), atol=0)
    values = ["0,0"] * 16
    for i in range(4):
        values[5 * i] = "1,0"
    np.testing.assert_allclose(parse_matrix_literal(",".join(values)), np.eye(4), atol=0)
    # one size rule for every register: 2*4^k reals, (re, im) per entry row-major
    rng = np.random.default_rng(37)
    for k in (1, 2, 3):
        u = random_unitary(2**k, rng)
        np.testing.assert_array_equal(parse_matrix_literal(",".join(map(repr, u.view(float).ravel().tolist()))), u)
    for count in (3, 2, 7, 18, 2 * 4**3 + 2):
        with pytest.raises(ValueError, match=r"2\*4\^k comma-separated reals"):
            parse_matrix_literal(",".join(["0"] * count))


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "gate.mat"
    m = sct_instance().matrix
    path.write_text("".join(" ".join(repr(complex(x)) for x in row) + "\n" for row in m))
    np.testing.assert_array_equal(load_matrix_file(str(path)), m)
    spec = parse_gate_spec(str(path))
    np.testing.assert_array_equal(spec, m)
    # every register size, in any whitespace layout.  The reader takes 64 KiB of
    # text at a time: the padded layouts put that boundary before, inside, at the
    # end of and after the first entry.
    rng = np.random.default_rng(41)
    for k in (1, 2, 3):
        u = random_unitary(2**k, rng)
        entries = [repr(complex(x)) for x in u.ravel()]
        rows = ["  ".join(entries[r * 2**k:(r + 1) * 2**k]) for r in range(2**k)]
        layouts = ["\n".join(rows), " ".join(entries), "\t\n ".join(entries) + "\n\n", entries[0] + "\n" + " ".join(entries[1:])]
        layouts += [" " * (65536 - shift) + " ".join(entries) for shift in (0, 1, 3, len(entries[0]), len(entries[0]) + 1)]
        for text in layouts:
            path.write_text(text)
            np.testing.assert_array_equal(load_matrix_file(str(path)), u)
    path.write_text("1 0 0\n1 0 0 1 0\n")
    with pytest.raises(ValueError, match=r"4\^k complex entries for 1 <= k <= 12, got 8"):
        load_matrix_file(str(path))


def test_a_10_qubit_claimed_file_reads_and_checks_in_bounded_memory(tmp_path):
    # 4^10 entries: 16 MiB of data in ~45 MiB of text.  The reader holds no Python
    # object per entry (a list of them alone peaks near 157 MiB here), and the
    # unitarity check and the distance each make one full-size temporary.
    rng = np.random.default_rng(43)
    u = np.kron(random_unitary(32, rng), random_unitary(32, rng))
    path = tmp_path / "claim.mat"
    with open(path, "w") as fh:
        fh.writelines(" ".join(map(repr, row.tolist())) + "\n" for row in u)
    tracemalloc.start()
    try:
        claimed = require_unitary(load_matrix_file(str(path)), "claimed gate")
        assert dist_phase(claimed, u) < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_random_spec_needs_generator():
    rng = np.random.default_rng(0)
    g = parse_gate_spec("random", rng)
    assert g.shape == (2, 2)
    with pytest.raises(ValueError):
        parse_gate_spec("random")


def test_standard_interactions_table():
    table = standard_interactions()
    assert set(table) == {"cz_t", "cz_plain", "sct", "swap_plain"}
    np.testing.assert_allclose(table["swap_plain"], swap_gate(), atol=0)
    np.testing.assert_allclose(table["cz_t"], cz_t_instance().matrix, atol=0)
    for name in named_gates():
        parse_gate_expr(name)  # every named gate parses as an expression
