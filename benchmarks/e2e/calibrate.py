"""The box-speed reference that the timing metrics are expressed in.

The box this ledger runs on is a slice of a shared host whose cores
change speed by up to 2x for seconds at a time: the same CPU-bound loop
takes 90 ms in one phase and 190 ms in the next, in CPU time as much as
in wall time, so neither longer runs nor medians steady a timing. What
does is measuring the box beside the program: a *burst* — a fixed piece
of interpreter and numpy work that belongs to the benchmark, not to the
repo — runs every few milliseconds of the timed part, and an operation's
duration is scaled by how fast the bursts around it ran.

A duration in **reference seconds** is the time the operation would have
taken on a box where a burst takes ``REFERENCE_BURST_S``: bursts that ran
inside the operation are taken out of it, and what is left is multiplied
by the mean of ``REFERENCE_BURST_S / burst`` over the bursts inside the
operation and the two on either side of it. Work is the integral of
speed over time and a burst reads ``1 / speed``, hence the mean of the
reciprocal, which also makes a burst that got pre-empted weigh little. A
change to the repo's code moves a reference time exactly as it moves the
wall time; a change of the box's mood moves both the operation and the
bursts, and cancels.

Offline workloads run the bursts from an interval timer (``SIGALRM``;
Python runs the handler between two bytecodes of the main thread, so it
samples *inside* ``allocate``), and so does every set-up, where the
harness waits for a child pinned to its own core and the bursts run
beside the child. Serve workloads run them inline between two requests
— a burst while the writer waits for a reply could delay reading it — on
the core the daemon shares with the generator.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: What a burst takes on the reference box (this box in a fast phase).
REFERENCE_BURST_S = 0.5e-3
#: Timer period of the offline workloads: ~3 % of the run is bursts.
TIMER_PERIOD_S = 0.025
#: Bursts on either side of an operation that count towards its speed.
NEIGHBOURS = 2

_ARRAY = np.arange(8192, dtype=np.float64)


def burst() -> float:
    """One burst: half interpreter (arithmetic, dict stores), half numpy
    on a 64 KiB array (allocation, compare, reductions) — the mix the
    allocators run. Returns its duration."""
    started = perf_counter()
    total = 0
    slots: dict[int, int] = {}
    for i in range(3000):
        total += i * i % 7
        slots[i & 63] = total
    for _ in range(18):
        shifted = _ARRAY + 1.0
        total += float(shifted.max()) + int((shifted > 3.0).sum())
    return perf_counter() - started


class Calibrator:
    """The bursts of one run, in time order."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []
        for _ in range(50):  # the burst's own warm-up
            burst()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self._at.append(perf_counter())
            self._took.append(burst())

    @contextmanager
    def ticking(self, period: float = TIMER_PERIOD_S):
        """Sample from an interval timer while the block runs: inside
        whatever the main thread executes, or — while it waits for a
        child process pinned to the same core — beside the child."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that bursts took."""
        return sum(self._took[bisect_left(self._at, start):
                              bisect_right(self._at, end)])

    def reference(self, start: float, end: float) -> float:
        """``[start, end]`` of ``perf_counter`` in reference seconds."""
        lo = bisect_left(self._at, start)
        hi = bisect_right(self._at, end)
        around = self._took[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        if not around:
            raise RuntimeError("no burst was sampled around the operation")
        speed = sum(REFERENCE_BURST_S / took for took in around) / len(around)
        return (end - start - sum(self._took[lo:hi])) * speed

    def summary(self) -> dict:
        ordered = sorted(self._took)
        return {"bursts": len(ordered),
                "burst_ms_min": 1e3 * ordered[0],
                "burst_ms_p50": 1e3 * ordered[len(ordered) // 2],
                "burst_ms_max": 1e3 * ordered[-1],
                "reference_burst_ms": 1e3 * REFERENCE_BURST_S}
