"""Machine-speed probe sampled while a pipeline runs.

On a shared host the speed of one core drifts by a third or more within
seconds to minutes, as neighbours load the core's other hardware thread.
Every pipeline's wall time drifts with it, so wall times from runs minutes
apart cannot be compared within a tight bound.  The probe times a fixed
kernel (a few hundred small NumPy reductions and integer operations, none
of them dynheat code) every ``PERIOD_S`` seconds of wall time, from a
``SIGALRM`` handler in the main thread: no extra thread or process, and the
samples fall inside the pipeline they describe.  A pipeline's time divided
by the mean probe sample taken during it then stays put while the machine
speeds up and slows down, and moves only when dynheat's own work does.

The handler runs between bytecodes, so a long native call delays a sample
but never splits it; samples that would pile up while it runs are dropped
(pending signals do not queue).
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
_REPEATS = 300
# untimed iterations first, so a sample measures the core's speed and not
# how much of the kernel the pipeline's own work evicted from the caches
_WARMUP = 30
_VECTOR = np.arange(64.0)


def _kernel(repeats):
    acc = 0.0
    for i in range(repeats):
        acc += float((_VECTOR * 1.0001).sum()) + i * i % 7
    return acc


def kernel_s():
    """Time one run of the fixed kernel, in seconds."""
    _kernel(_WARMUP)
    start = time.perf_counter()
    _kernel(_REPEATS)
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples :func:`kernel_s` on a wall-clock timer.

    ``samples`` holds every kernel time taken; ``busy_s`` is the time spent
    in the probe, warm-up included, so a caller can subtract the probe's own
    time from what it measured.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0
        self._previous = None

    def sample(self):
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.busy_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
