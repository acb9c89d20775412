"""Timings at a reference host speed.

The benchmark runs on a few vCPUs of a shared host, and the host's speed
drifts: a fixed loop of interpreter and small numpy work runs up to 1.6x
slower for stretches of seconds to minutes, in process CPU time as much as
in wall time.  Over any run length from 8 to 60 s, window means of such a
loop spread by about 0.16 (quartile distance over the median), so wall
times of the program spread as much whatever it does.

`HostClock` measures the host's speed next to the program's work and
scales it out.  A calibration loop of fixed work (`_calibration`, never
the program's code, so a change to the program cannot move it) runs after
every INTERVAL_S of measured work, with the garbage collector off so that
the program's heap is not collected on its time.  An interval [a, b] then
counts as its wall time without the calibration runs inside it, times
REF_S over the loop's local time: the mean of the smoothed loop times
taken inside the interval, or the nearest one for an interval too short
to hold any.  On a host running at the reference speed this is the wall
time.  Over 300 s of desk-train steps, 20 s window means spread 0.11 in
wall time and 0.034 scaled.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# The calibration loop's median time on the host the benchmark was defined
# on: a 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4, OpenBLAS
# with 1 thread.
REF_S = 1.0e-3
INTERVAL_S = 0.1
SMOOTH = 4  # a loop time is the median of it and SMOOTH neighbours a side

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 32))
_B = _rng.standard_normal((32, 32))


def _calibration() -> float:
    acc = 0.0
    for i in range(60):
        h = np.tanh(_A @ _B)
        g = (h * h).sum(axis=0)
        d = {"h": h, "g": g, "i": i}
        acc += float(g[0]) + len(d)
        acc += sum([j * 0.5 for j in range(40)])
    return acc


class HostClock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed: list[float] = []

    def tick(self):
        """Run the calibration loop if INTERVAL_S has passed since the last."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.run()

    def run(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _calibration()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def _loop_times(self) -> list[float]:
        if len(self._smoothed) != len(self.ends):
            raw = [e - s for s, e in zip(self.starts, self.ends)]
            self._smoothed = [
                statistics.median(raw[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i in range(len(raw))]
        return self._smoothed

    def seconds(self, a: float, b: float) -> float:
        """Seconds of [a, b] (perf_counter times) at the reference speed,
        without the calibration runs inside it."""
        loop = self._loop_times()
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b, lo=i)
        if j > i:
            busy = sum(self.ends[k] - self.starts[k] for k in range(i, j))
            local = sum(loop[i:j]) / (j - i)
        else:
            mid = 0.5 * (a + b)
            k = bisect.bisect_left(self.starts, mid)
            near = [n for n in (k - 1, k) if 0 <= n < len(loop)]
            k = min(near, key=lambda n: abs(self.starts[n] - mid))
            busy, local = 0.0, loop[k]
        return (b - a - busy) * REF_S / local

    def speed(self) -> float:
        """The host's median speed over the run, as a share of the reference."""
        return REF_S / statistics.median(self._loop_times())
