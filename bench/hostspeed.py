"""Host-speed probe for the benchmark's timings.

The shared virtual machines this benchmark runs on change speed by up to
2x within minutes, and each vCPU on its own.  While a timed window is
open, `Probe` interrupts the process every `INTERVAL_S` (SIGALRM) and
times a fixed pure-Python burst on the same vCPU.  A window reports its
length without the bursts, and the host speed: `REF_BURST_S` over the
mean burst time.  `seconds * speed` is the window's length in
reference-host seconds.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

BURST = 1000
# Mean burst time on a quiet 2-vCPU Intel Xeon VM (Python 3.11).
REF_BURST_S = 75e-6
INTERVAL_S = 0.02


def _burst():
    x = 0
    for i in range(BURST):
        x = (x * 31 + i) & 0xFFFF
    return x


@dataclass
class Window:
    seconds: float = 0.0    # wall time minus the probe's bursts
    speed: float = 1.0      # 1 = reference host
    samples: int = 0


class Probe:
    def __init__(self):
        self._bursts = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _burst()
        self._bursts.append(time.perf_counter() - t0)

    @contextmanager
    def window(self):
        """Time the block; the yielded Window is filled in on exit."""
        w = Window()
        self._bursts = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield w
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            w.seconds = elapsed - sum(self._bursts)
            if not self._bursts:      # window shorter than one interval
                self._sample()
            w.samples = len(self._bursts)
            w.speed = REF_BURST_S / statistics.mean(self._bursts)
