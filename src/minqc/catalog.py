"""Named gates, gate-expression parsing, matrix files, standard interactions.

Gate expressions are products of named gates read left to right ("THT" is
T.H.T) with optional phase gates "R(<radians>)", the angle finite.  Matrix
literals are comma-separated reals, (re, im) per entry row-major: 8 numbers
for 2x2, 32 for 4x4.  Matrix files hold whitespace-separated complex entries
(Python literal syntax), 4 or 16 of them.  Every entry must be finite.
"""
from __future__ import annotations

import math
import os
import re

import numpy as np

from . import cz_model, swap_model
from .gates import (
    I2,
    X,
    Y,
    Z,
    cnot_gate,
    cz_gate,
    hadamard,
    param_u2,
    phase_gate,
    sct_gate,
    swap_gate,
    t_gate,
)
from .linalg import random_unitary


def named_gates() -> dict[str, np.ndarray]:
    return {
        "I": I2,
        "X": X,
        "Y": Y,
        "Z": Z,
        "H": hadamard(),
        "T": t_gate(),
        "Tdg": t_gate().conj().T,
        "CZ": cz_gate(),
        "CNOT": cnot_gate(),
        "SWAP": swap_gate(),
        "SCT": sct_gate(),
    }


_TOKEN = re.compile(r"CNOT|SWAP|SCT|Tdg|CZ|R\(([^()]+)\)|[IXYZHT]")


def parse_gate_expr(expr: str) -> np.ndarray:
    """Product of named gates, read left to right."""
    table = named_gates()
    pos = 0
    factors = []
    expr = expr.strip()
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if m is None:
            raise ValueError(f"cannot parse gate expression {expr!r} at position {pos}")
        if m.group(1) is not None:
            try:
                angle = float(m.group(1))
            except ValueError:
                raise ValueError(f"bad angle {m.group(1)!r} in {expr!r}")
            if not math.isfinite(angle):
                raise ValueError(f"non-finite angle {m.group(1)!r} in {expr!r}")
            factors.append(phase_gate(angle))
        else:
            factors.append(table[m.group(0)])
        pos = m.end()
    if not factors:
        raise ValueError("empty gate expression")
    dims = {f.shape[0] for f in factors}
    if len(dims) != 1:
        raise ValueError(f"mixed gate dimensions in {expr!r}")
    out = np.eye(factors[0].shape[0], dtype=complex)
    for f in factors:
        out = out @ f
    return out


def parse_matrix_literal(text: str) -> np.ndarray:
    values = [float(tok) for tok in text.split(",")]
    if len(values) == 8:
        dim = 2
    elif len(values) == 32:
        dim = 4
    else:
        raise ValueError("matrix literal needs 8 (2x2) or 32 (4x4) comma-separated reals")
    return np.array(values).view(complex).reshape(dim, dim)


def load_matrix_file(path: str) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    entries = np.array([complex(tok) for tok in tokens])
    if len(entries) == 4:
        return entries.reshape(2, 2)
    if len(entries) == 16:
        return entries.reshape(4, 4)
    raise ValueError(f"{path}: expected 4 or 16 complex entries, got {len(entries)}")


def parse_gate_spec(spec: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """Resolve a gate given as 'random', matrix literal, expression or file path.

    A spec that parses as an expression is that expression: a file is read
    only when the spec is not one, so a file named ``T`` never shadows T.
    """
    if spec == "random":
        if rng is None:
            raise ValueError("'random' gate requested without a seeded generator")
        return random_unitary(2, rng)
    if "," in spec:
        matrix = parse_matrix_literal(spec)
    else:
        try:
            return parse_gate_expr(spec)
        except ValueError:
            if not os.path.exists(spec):
                raise
        matrix = load_matrix_file(spec)
    if not np.isfinite(matrix).all():
        raise ValueError(f"gate {spec!r} has a non-finite entry")
    return matrix


def cz_t_instance(eta: float = 0.0, zeta: float = 0.0) -> cz_model.CZInteraction:
    """Dressed-CZ interaction whose selected gates are T and HT.

    The one-parameter family u = p(eta, zeta, zeta, pi/8) with the matching
    partner yields the same selected gates for every (eta, zeta).
    """
    u = param_u2(eta, zeta, zeta, np.pi / 8)
    v = param_u2(np.pi / 8 - eta, -zeta - np.pi / 8, zeta - np.pi / 8, np.pi / 8)
    return cz_model.cz_interaction(u, v)


def sct_instance() -> swap_model.SwapInteraction:
    """Swap-phase interaction (I (x) H) . SCT; selected gates H and THT."""
    return swap_model.swap_interaction(hadamard(), np.pi / 4)


def standard_interactions() -> dict[str, np.ndarray]:
    """Interactions resolvable by name in schedule files."""
    return {
        "cz_t": cz_t_instance().matrix,
        "cz_plain": cz_model.cz_interaction(I2, I2).matrix,
        "sct": sct_instance().matrix,
        "swap_plain": swap_model.swap_interaction(I2, 0.0).matrix,
    }
