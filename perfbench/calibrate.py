"""Host-speed correction: fixed reference tasks timed all through a run.

A shared 2-vCPU host runs the same work at speed levels up to about 2x apart,
switching within a second as well as over tens of seconds, so raw times from
two runs of one commit differ by more than any useful bound.  Two fixed tasks,
sharing no code with minqc, are made of the numpy calls minqc's ops are made
of:

- ``small``: products, normalisations and Kronecker products of 2x2 and 4x4
  complex matrices, many tiny calls with Python glue between them;
- ``state``: a two-qubit gate applied to a 13-qubit state vector by
  ``moveaxis`` and ``@`` on 12 pairs of axes.

Each workload names the mix of them that stands in for it
(``Workload.reference_mix`` in workloads.py): ``small`` alone for the
workloads of small matrices, an equal mix for ``sched_wide``, whose states
reach 12 qubits.  Inside ``with Reference(mix):`` a SIGALRM handler samples
the tasks every ``INTERVAL_S``, between two bytecodes of whatever runs.  An interval's pure time leaves out
the samples taken inside it.  Its corrected time splits it at those samples
and scales each piece by the product over the mix of
``(NOMINAL_S[task] / m) ** weight``, where ``m`` is the harmonic mean of that
task's samples from ``WINDOW_S`` before to ``WINDOW_S`` after the piece: the
time the work would take on a host as fast as this one's fast level.  The
harmonic mean averages speed over time, which is what sets how long work
takes while the speed flickers between two levels; a median would jump
between them.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Task times on a 2-vCPU x86 host (Python 3.11, numpy 2.4) at its fast speed
# level; fixed scales, so corrected times read as seconds there.
NOMINAL_S = {"small": 0.50e-3, "state": 0.80e-3}
REPEATS = 3
INTERVAL_S = 0.1
WINDOW_S = 0.5
QUBITS = 13
PAIRS = [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (7, 10), (8, 11), (9, 12), (10, 0), (11, 1)]

_STATE = np.random.default_rng(12345).standard_normal(2**QUBITS) + 0j
_GATE = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.diag([1, np.exp(0.25j * np.pi)]))
_SMALL = np.eye(4, dtype=complex) * 0.5 + 0.1


def small_task() -> np.ndarray:
    """Tiny matrix products, normalisations and Kronecker products."""
    a = _SMALL
    for _ in range(20):
        a = a @ _SMALL
        a = a / np.abs(a).max()
        b = np.kron(a[:2, :2], a[2:, 2:])
    return b


def state_task() -> np.ndarray:
    """Apply a fixed two-qubit gate to a fixed state on each pair of axes."""
    psi = _STATE
    for pair in PAIRS:
        tensor = np.moveaxis(psi.reshape([2] * QUBITS), pair, (0, 1))
        block = (_GATE @ tensor.reshape(4, -1)).reshape([2] * QUBITS)
        psi = np.moveaxis(block, (0, 1), pair).reshape(-1)
    return psi


TASKS = {"small": small_task, "state": state_task}


class Reference:
    """Reference samples taken on a timer, and the corrected times they give."""

    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: dict[str, list[float]] = {name: [] for name in mix}
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        """Record, per task of the mix, the fastest of ``REPEATS`` back-to-back runs (s)."""
        self._busy = True
        start = time.perf_counter()
        for name, samples in self.samples.items():
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                TASKS[name]()
                best = min(best, time.perf_counter() - t0)
            samples.append(best)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def _pieces(self, a: float, b: float) -> list[tuple[float, float]]:
        """[a, b] without the samples taken inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        cuts = [a]
        for i in range(lo, hi):
            cuts += [self.starts[i], self.ends[i]]
        cuts.append(b)
        return list(zip(cuts[::2], cuts[1::2]))

    def pure(self, a: float, b: float) -> float:
        """Time spent in [a, b] outside the reference samples (s)."""
        return sum(q - p for p, q in self._pieces(a, b))

    def corrected(self, a: float, b: float) -> float:
        """Pure time of [a, b] at the nominal reference speed (s)."""
        total = 0.0
        for p, q in self._pieces(a, b):
            lo = bisect.bisect_left(self.starts, p - WINDOW_S)
            hi = bisect.bisect_right(self.starts, q + WINDOW_S)
            if lo == hi:  # no sample that close: the nearest one on each side
                lo, hi = max(0, lo - 1), lo + 1
            scale = 1.0
            for name, weight in self.mix.items():
                # mean speed over the window: samples are evenly spaced in time
                speed = statistics.fmean(1 / t for t in self.samples[name][lo:hi])
                scale *= (NOMINAL_S[name] * speed) ** weight
            total += (q - p) * scale
        return total

    def medians(self) -> dict[str, float]:
        """Median sample per task of the mix (s)."""
        return {name: statistics.median(samples) for name, samples in self.samples.items()}
