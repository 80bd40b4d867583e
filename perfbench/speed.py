"""Seconds scaled to a reference machine speed.

On a shared virtual machine the same pass of solves can take up to 1.8
times as long from one minute to the next, because the neighbours' load
changes how fast this machine runs Python.  A raw wall-clock benchmark then
measures the neighbours.  To measure the solver instead, ``ScaledTimer``
times a fixed pure-Python loop (the probe, about 2 ms) before and after the
timed block and every ``INTERVAL_S`` seconds inside it, from a SIGALRM
handler that runs between bytecodes of the timed code.  The block's
seconds, minus the probe's own time inside it, are multiplied by
``REF_PROBE_S`` over the typical probe time: the result is the seconds the
block would take on a machine that runs the probe in ``REF_PROBE_S``.

On a 2-vCPU Intel Xeon virtual machine, the ten-run spreads (interquartile
range over median) of the four workloads' pass times were 0.10-0.26
unscaled and 0.015-0.05 scaled, in the same runs.

Install no other SIGALRM handler while a ``ScaledTimer`` is active; the
timer puts the previous handler back on exit.
"""

from __future__ import annotations

import signal
import time

# A typical probe time on the machine the benchmark was defined on: a 2-vCPU
# Intel Xeon virtual machine running CPython 3.11.
REF_PROBE_S = 0.0019
INTERVAL_S = 0.1
# A short block is interrupted too rarely for a reliable typical probe
# time, so further probes run right after it until there are this many.
MIN_SAMPLES = 10


def probe() -> float:
    """Seconds taken by a fixed loop of dictionary and integer operations."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(10_000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
    sorted(table.values())
    return time.perf_counter() - t0


def typical(samples: list[float]) -> float:
    """Mean probe time without the slowest fifth of the samples.  Against
    the plain mean, this halved the spread of scaled pass times of the flow
    workload (0.030 against 0.065) on the machine named above."""
    kept = sorted(samples)[: max(1, len(samples) * 4 // 5)]
    return sum(kept) / len(kept)


class ScaledTimer:
    """Context manager; after the block, ``raw_s`` holds its wall seconds
    without the probe's and ``scaled_s`` the same at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.raw_s = self.scaled_s = 0.0

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        elapsed = time.perf_counter() - self._start
        self.raw_s = elapsed - sum(self.samples[1:])
        self.samples.append(probe())
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        self.scaled_s = self.raw_s * REF_PROBE_S / typical(self.samples)
        return False
