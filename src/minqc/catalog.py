"""Named gates, gate-expression parsing, matrix files, standard interactions.

Gate expressions are products of named gates read left to right ("THT" is
T.H.T) with optional phase gates "R(<radians>)", the angle finite.  Matrix
literals are comma-separated reals, (re, im) per entry row-major; matrix
files hold whitespace-separated complex entries (Python literal syntax) in
any layout.  Both hold 4^k finite entries, a 2^k x 2^k matrix, for 1 <= k
<= MAX_REGISTER_QUBITS (the simulator's register cap).  A token that is no
number is reported with the input and its position among the tokens (reals
in a literal, entries in a file), counting from 1.
"""
from __future__ import annotations

import itertools
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
from .linalg import adjoint, random_unitary
from .simulator import MAX_REGISTER_QUBITS


def named_gates() -> dict[str, np.ndarray]:
    return {
        "I": I2,
        "X": X,
        "Y": Y,
        "Z": Z,
        "H": hadamard(),
        "T": t_gate(),
        "Tdg": adjoint(t_gate()),
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


def _square(tokens, dtype: type, what: str) -> np.ndarray:
    """The 2^k x 2^k matrix whose entries ``tokens()`` lists row-major, as
    complex entries or (re, im) pairs of floats, under the rule of the module
    docstring.  Reading stops one number past the largest size.  A token that
    is no number is named with its position, found by a second pass over
    ``tokens()`` only when the first fails."""
    per_entry, unit = (2, "2*4^k comma-separated reals") if dtype is float else (1, "4^k complex entries")
    try:
        values = np.fromiter(itertools.islice(map(dtype, tokens()), per_entry * 4**MAX_REGISTER_QUBITS + 1), dtype)
    except ValueError:
        for i, token in enumerate(tokens(), start=1):
            try:
                dtype(token)
            except ValueError:
                raise ValueError(f"{what}: entry {i} {token!r} is not a number") from None
        raise
    k = (len(values) // per_entry).bit_length() // 2
    if len(values) != per_entry * 4**k or not 1 <= k <= MAX_REGISTER_QUBITS:
        raise ValueError(f"{what} needs {unit} for 1 <= k <= {MAX_REGISTER_QUBITS}, got {len(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"{what} has a non-finite entry")
    return values.view(complex).reshape(2**k, 2**k)


def parse_matrix_literal(text: str) -> np.ndarray:
    return _square(lambda: text.split(","), float, "matrix literal")


def _tokens(path: str):
    """Whitespace-separated tokens of a text file, read 64 KiB at a time."""
    with open(path) as fh:
        tail = ""
        while chunk := fh.read(1 << 16):
            tokens = (tail + chunk).split()
            tail = "" if chunk[-1].isspace() else tokens.pop()  # may go on in the next chunk
            yield from tokens
        yield from tail.split()


def load_matrix_file(path: str) -> np.ndarray:
    return _square(lambda: _tokens(path), complex, path)


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
        return parse_matrix_literal(spec)
    try:
        return parse_gate_expr(spec)
    except ValueError:
        if not os.path.exists(spec):
            raise
    return load_matrix_file(spec)


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
