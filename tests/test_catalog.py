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
    with pytest.raises(ValueError):
        parse_matrix_literal("1,2,3")


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "gate.mat"
    m = sct_instance().matrix
    path.write_text("".join(" ".join(repr(complex(x)) for x in row) + "\n" for row in m))
    np.testing.assert_array_equal(load_matrix_file(str(path)), m)
    spec = parse_gate_spec(str(path))
    np.testing.assert_array_equal(spec, m)


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
