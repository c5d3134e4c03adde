"""Host-speed sampling, to report wall time at a fixed reference core speed.

The benchmark host is shared: while neighbours load it, the same rep runs
up to 1.5x slower, in phases lasting from seconds to minutes, so raw wall
times of runs a few minutes apart differ by more than any bound worth
setting. :class:`SpeedSampler` measures that slowdown while the benchmark
runs: a ``SIGALRM`` timer interrupts the main thread every
:data:`INTERVAL_S` and times a fixed pure-Python loop in *thread CPU
time*, which a slowed core inflates and waiting (for the GIL, for a lock)
does not. :meth:`SpeedSampler.normalise` turns a wall interval into
seconds at reference speed: the interval's wall time, minus the time the
samples themselves took, divided by the slowdown its samples measured
against :data:`REFERENCE_PROBE_S`.

This module imports nothing from the program, so it can be started
before the program is imported and its import time normalised too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between samples; one sample costs about 1.3% of this.
INTERVAL_S = 0.05

#: Thread CPU seconds of one probe on an unloaded core of the reference
#: box (2-CPU Xeon at 2.1 GHz, Python 3.11): the unit of "reference speed".
REFERENCE_PROBE_S = 0.0005

#: An interval with fewer samples than this borrows those within
#: :data:`NEIGHBOURHOOD_S` of its ends.
MIN_SAMPLES = 3
NEIGHBOURHOOD_S = 0.5


def _probe() -> int:
    total = 0
    for i in range(8000):
        total += i * i
    return total


class SpeedSampler:
    """Samples core speed on a timer while started; see the module docstring."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe_s: list[float] = []
        self._spent = [0.0]  # prefix sums of the wall time samples took
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _sample(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        _probe()
        cpu = time.thread_time() - cpu
        self.times.append(wall)
        self.probe_s.append(cpu)
        self._spent.append(self._spent[-1] + time.perf_counter() - wall)

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time in and around ``[start, end]`` over the reference."""
        lo, hi = self._range(start, end)
        if hi - lo < MIN_SAMPLES:
            lo, hi = self._range(start - NEIGHBOURHOOD_S, end + NEIGHBOURHOOD_S)
        if hi == lo:
            return 1.0
        return statistics.median(self.probe_s[lo:hi]) / REFERENCE_PROBE_S

    def normalise(self, start: float, end: float) -> float:
        """Seconds at reference speed that the wall interval ``[start, end]`` took."""
        lo, hi = self._range(start, end)
        spent = self._spent[hi] - self._spent[lo]
        return (end - start - spent) / self.slowdown(start, end)
