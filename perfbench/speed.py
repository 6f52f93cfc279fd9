"""The machine's speed, sampled while the benchmark measures.

The 2-core virtual machine the benchmark was built on runs a fixed
loop up to 25% slower or faster from one 10-second stretch to the next
(lag-1 autocorrelation 0.8), far more than any bound could allow. So a
run also samples its own speed: every INTERVAL seconds a timer signal
interrupts the program, between two bytecodes of the one thread, to
time a short probe of fixed work. A timed stretch is reported as its
wall time less the probes inside it, scaled by how fast the probes
inside it ran against PROBE_REF_S: seconds at the reference speed.
In a traced run the probes also land inside the spans they interrupt,
adding about 0.5% to each span's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
# Median probe time on the reference machine (see README.md).
PROBE_REF_S = 0.00045


def probe() -> None:
    """Fixed work like the program's hot paths: numpy calls on tiny arrays.

    Of the probes tried, this one tracked the program best: in 6-second
    blocks, RK4 steps, Adam objective calls and CSV parsing varied by
    9-13% in wall time and by 4-6% in reference seconds. Probes of long
    vectors or of pure Python tracked worse than no probe at all.
    """
    a = np.ones(4)
    for i in range(100):
        np.tanh(a * i).sum()


class Speedometer:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        for _ in range(50):  # first calls pay for allocator and cache warm-up
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Work done between two perf_counter readings, in reference seconds."""
        inside = [p for t, p in self.samples if start <= t < end]
        if not inside:  # too short to hold a probe: take the nearest ones
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - start))[:5]
            inside, spent = [p for _, p in nearest], 0.0
        else:
            spent = sum(inside)
        return (end - start - spent) * statistics.mean(PROBE_REF_S / p for p in inside)
