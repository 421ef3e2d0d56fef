"""Span tracer that wraps minqc's public functions from outside the library.

Every public function defined in a ``minqc`` module is replaced, in every
``minqc`` module namespace that binds it (``cli`` binds ``embed_gate`` and
``run_schedule`` directly, for instance), by a wrapper that records one span:
name, start, end, parent span and whether it raised.  Spans live in flat
arrays in memory and are written out once at the end.  A layer's self time is
its span's duration minus the durations of its traced children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _peak_live_qubits(schedule) -> int:
    """Register size plus the most ancillas live at once (first to last use)."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for i, step in enumerate(schedule.steps):
        first.setdefault(step.ancilla, i)
        last[step.ancilla] = i
    live = peak = 0
    delta = [0] * (len(schedule.steps) + 1)
    for a in first:
        delta[first[a]] += 1
        delta[last[a] + 1] -= 1
    for d in delta:
        live += d
        peak = max(peak, live)
    return schedule.register_size + peak


class Tracer:
    def __init__(self, package_name: str = "minqc"):
        self.modules = [
            m for name, m in sorted(sys.modules.items())
            if name == package_name or name.startswith(package_name + ".")
        ]
        self.name_table: list[str] = []
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        # per simulator.run span: (span index, register size, steps, peak live qubits)
        self.runs: list[tuple[int, int, int, int]] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, self._name_id(f"{short}.{attr}")))

    def _name_id(self, name: str) -> int:
        if name not in self.name_table:
            self.name_table.append(name)
        return self.name_table.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(name_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name_id: int):
        # _open/_close inlined with local names: this runs on every minqc call
        parent, name, raised, start, end, stack = (
            self.parent, self.name, self.raised, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        runs = self.runs if (fn.__module__, fn.__name__) == ("minqc.simulator", "run") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            if runs is not None:
                sched = args[0] if args else kwargs["schedule"]
                runs.append((idx, sched.register_size, len(sched.steps), _peak_live_qubits(sched)))
            parent.append(stack[-1])
            name.append(name_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, e.g. one op, that minqc spans nest under."""
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def install(self) -> None:
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                entry = self._wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    def spans(self) -> "Spans":
        return Spans(self)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.name_table),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            runs=np.array(self.runs, dtype=np.int64).reshape(-1, 4),
        )


class Spans:
    """Array view of the recorded spans with ancestry queries."""

    def __init__(self, tracer: Tracer):
        self.table = tracer.name_table
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.raised = np.frombuffer(tracer.raised, dtype=np.int8).astype(bool)
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_time
        self.runs = tracer.runs
        self.root = self._root()
        self._under: dict[str, np.ndarray] = {}

    def is_(self, name: str) -> np.ndarray:
        if name not in self.table:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.table.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans that have a strict ancestor called ``name``."""
        if name not in self._under:
            self._under[name] = self._find_under(name)
        return self._under[name]

    def _find_under(self, name: str) -> np.ndarray:
        flag = self.is_(name)
        out = np.zeros(len(self.name), dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return out
            out[live] |= flag[anc[live]]
            anc[live] = self.parent[anc[live]]

    def _root(self) -> np.ndarray:
        root = np.arange(len(self.name))
        while True:
            up = self.parent[root]
            step = up >= 0
            if not step.any():
                return root
            root[step] = up[step]
