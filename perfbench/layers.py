"""Per-layer metrics derived from the spans of a traced pass.

Inclusive times (``.s``) sum a function's spans; no minqc public function
calls itself, so nothing is counted twice.  Self times subtract the traced
children.  ``keep`` selects the spans that count (set-up and one traced pass).
"""
from __future__ import annotations

import numpy as np

from tracer import Spans

TIMED = (
    "synth.universality_diagnostic",
    "simulator.schedule_from_text", "simulator.verify_against",
    "linalg.random_unitary",
    "locequiv.invariants", "locequiv.is_entangling",
    "cz_model.cz_interaction", "cz_model.entangling_gate",
    "swap_model.swap_interaction", "swap_model.entangling_gate",
    "hamiltonian.evolve", "hamiltonian.derived_swap_instance",
    "catalog.standard_interactions", "catalog.parse_gate_spec",
    "cli.cmd_verify",
)
TIMED_AND_COUNTED = ("linalg.embed_gate", "linalg.apply_gate", "linalg.dist_phase", "linalg.require_unitary")
COLSTEP_SIZES = (1, 2, 3, 4, 5, 9, 10)


def _median_ms(values: np.ndarray) -> float:
    return float(np.median(values)) * 1e3 if len(values) else 0.0


def layer_metrics(sp: Spans, keep: np.ndarray) -> dict[str, tuple[float, str]]:
    """Metrics over the spans flagged in ``keep``: name -> (value, unit)."""
    def total(mask):
        return float(sp.dur[mask & keep].sum())

    def count(mask):
        return int(np.count_nonzero(mask & keep))

    out: dict[str, tuple[float, str]] = {}
    synth = sp.is_("synth.synthesize")
    found = synth & ~sp.raised
    exhausted = synth & sp.raised
    rechecks = count(sp.is_("linalg.dist_phase") & sp.under("synth.synthesize"))
    out["synth.synthesize.s"] = (total(synth), "s")
    out["synth.calls"] = (count(synth), "count")
    out["synth.found"] = (count(found), "count")
    out["synth.exhausted"] = (count(exhausted), "count")
    out["synth.exhausted_call_ms"] = (_median_ms(sp.dur[exhausted & keep]), "ms")
    out["synth.found_call_ms"] = (_median_ms(sp.dur[found & keep]), "ms")
    out["synth.rechecks"] = (rechecks, "count")
    out["synth.hit_ratio"] = (count(found) / rechecks if rechecks else 0.0, "ratio")

    run = sp.is_("simulator.run")
    applies = sp.is_("linalg.apply_gate") & sp.under("simulator.run")
    out["simulator.run.s"] = (total(run), "s")
    out["simulator.run.self_s"] = (float(sp.self_time[run & keep].sum()), "s")
    out["simulator.apply_s"] = (total(applies), "s")
    out["simulator.apply_calls"] = (count(applies), "count")

    runs = [r for r in sp.runs if keep[r[0]]]
    out["simulator.colsteps"] = (sum(2**n * steps for _, n, steps, _ in runs), "count")
    out["simulator.peak_live_qubits"] = (max((live for *_, live in runs), default=0), "count")
    for size in COLSTEP_SIZES:
        at = [(sp.dur[idx], 2**n * steps) for idx, n, steps, _ in runs if n == size]
        colsteps = sum(c for _, c in at)
        us = sum(t for t, _ in at) / colsteps * 1e6 if colsteps else 0.0
        out[f"simulator.us_per_colstep.n{size}"] = (us, "us")

    for name in TIMED_AND_COUNTED:
        out[f"{name}.s"] = (total(sp.is_(name)), "s")
        out[f"{name}.calls"] = (count(sp.is_(name)), "count")
    for name in TIMED:
        out[f"{name}.s"] = (total(sp.is_(name)), "s")
    out["cli.self_s"] = (float(sp.self_time[sp.is_("cli.cmd_verify") & keep].sum()), "s")
    return dict(sorted(out.items()))


EXACT_COUNTS = (
    "synth.calls", "synth.found", "synth.rechecks",
    "simulator.colsteps", "simulator.apply_calls", "linalg.embed_gate.calls",
)


def exact_counts_per_op(sp: Spans, op_spans: list[int]) -> list[tuple[int, ...]]:
    """The ``EXACT_COUNTS`` of each op span, in ``op_spans`` order."""
    op_of = np.full(len(sp.name), -1)
    op_of[op_spans] = np.arange(len(op_spans))
    op_of = op_of[sp.root]
    synth = sp.is_("synth.synthesize")
    masks = (
        synth,
        synth & ~sp.raised,
        sp.is_("linalg.dist_phase") & sp.under("synth.synthesize"),
        None,
        sp.is_("linalg.apply_gate") & sp.under("simulator.run"),
        sp.is_("linalg.embed_gate"),
    )
    colsteps = np.zeros(len(op_spans), dtype=np.int64)
    for idx, n, steps, _ in sp.runs:
        if op_of[idx] >= 0:
            colsteps[op_of[idx]] += 2**n * steps
    columns = [
        colsteps if mask is None
        else np.bincount(op_of[mask & (op_of >= 0)], minlength=len(op_spans))
        for mask in masks
    ]
    return [tuple(int(c[k]) for c in columns) for k in range(len(op_spans))]
