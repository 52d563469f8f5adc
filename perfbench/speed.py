"""The machine's speed, sampled while the benchmark runs.

On a shared host the same pass can take twice as long from one minute to
the next, because the host's other tenants slow this machine's cores; the
spread of raw wall times across runs is then wider than any useful bound.
So a fixed loop of Python work is timed over and over while the benchmark
runs, and every gated time is rescaled to the speed at which that loop
takes ``REFERENCE_LOOP_S`` (a 2-vCPU Xeon VM left alone by its host):

    rescaled = measured * REFERENCE_LOOP_S / mean loop time meanwhile

A change to qhc moves the measured time and leaves the loop alone, so it
moves the rescaled time by the same factor.  The loop formats and joins
short text rows, allocating as it goes, as most of qhc's Python-level work
does; such a loop followed the host's slow-downs of qhc more closely than
a loop of integer arithmetic did.

``Probe`` samples from a SIGALRM handler, so the loop runs on the thread
that runs qhc, between its byte codes, at most every ``INTERVAL_S`` of wall
time.  Each sample's time is subtracted from the command it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_ROWS = 500
REFERENCE_LOOP_S = 1.1e-3
INTERVAL_S = 0.05


def loop() -> float:
    """Seconds one run of the probe loop takes now."""
    t0 = time.perf_counter()
    rows = [",".join(["%d" % (i >> k & 1) for k in range(8)]) for i in range(LOOP_ROWS)]
    "\n".join(rows)
    return time.perf_counter() - t0


def factor(loop_times: list[float]) -> float:
    """What to multiply a time measured meanwhile by to rescale it."""
    return REFERENCE_LOOP_S / statistics.fmean(loop_times)


class Probe:
    """Times the probe loop every ``INTERVAL_S``, into ``samples``."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(loop())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
