"""A speed meter that puts CPU times of different moments on one scale.

On a shared virtual machine the CPU speed of a process is not constant: on the
2-core machine this benchmark was built on, a mix of small numpy calls ran
about 1.4x slower in some stretches than in others, a pure interpreter loop
1.2x and dense linear algebra 1.14x, switching several times a minute, and
whole runs read 30% apart. So while it measures, the benchmark samples the speed of three
small fixed probes, one per kind of code, and reports each query in nominal
seconds: its CPU seconds times the workload's mix of the probes' nominal over
measured times.

A CPU-time interval timer (``ITIMER_PROF``) runs the probes every
``INTERVAL_S`` of CPU time from the start of the run, inside queries and
between them; their own time is taken out of the query that contains them. A
query with at least ``MIN_INSIDE`` samples inside it uses those; a shorter one
uses the ``NEAREST`` samples closest to it. Times are read from the thread's
CPU clock: the client is one thread, and while a process-wide CPU timer is
armed Linux serves the process CPU clock at tick resolution.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right

import numpy as np

# Time of each probe inside the timer's handler on the reference machine in
# its slower state (the upper quartile over a mixed stretch), so that nominal
# seconds read close to CPU seconds there: interpreter loop, small numpy
# calls, dense linear algebra.
NOMINAL_S = np.array([0.000106, 0.000289, 0.000307])
INTERVAL_S = 0.02
MIN_INSIDE = 3
NEAREST = 5


class SpeedMeter:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((40, 40))
        self.index = rng.integers(0, 40, 400)
        self.row = np.cumsum(rng.random(8)).tolist()
        dense = rng.random((48, 48))
        self.dense = dense + dense.T
        self.times = []  # CPU time at which each sample started
        self.parts = []  # seconds each probe took in that sample
        self.own = []  # seconds the whole sample took

    def probes(self):
        """CPU seconds of each of the three probes, run once now."""
        clock = time.thread_time
        t0 = clock()
        total, row = 0, self.row
        for i in range(300):
            total += bisect_right(row, (i * 7 % 13) * 0.5) + i % 3
        t1 = clock()
        vec = np.full(40, 1.0 / 40)
        for _ in range(25):
            vec = self.matrix @ vec
            vec /= vec.sum()
        sums = np.zeros(40)
        for _ in range(10):
            np.add.at(sums, self.index, 1.0)
        t2 = clock()
        np.linalg.eigvalsh(self.dense)
        self.dense @ self.dense
        t3 = clock()
        return (t1 - t0, t2 - t1, t3 - t2)

    def _on_timer(self, signum, frame):
        start = time.thread_time()
        self.parts.append(self.probes())
        self.times.append(start)
        self.own.append(time.thread_time() - start)

    def start(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def measure(self, start, end, mix):
        """(CPU seconds in [start, end) less the samples taken in it, nominal factor).

        ``mix`` is the measured code's share of CPU time in each kind of code.
        Each sample stands for an equal stretch of CPU time, so the factor is
        the mean of the samples' factors: over a stretch that switched speed,
        a median would take one speed for the whole."""
        lo, hi = bisect_right(self.times, start), bisect_right(self.times, end)
        if hi - lo >= MIN_INSIDE:
            chosen = range(lo, hi)
        else:
            middle = 0.5 * (start + end)
            chosen = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))[:NEAREST]
        parts = np.array([self.parts[i] for i in chosen])
        factor = float(np.mean((NOMINAL_S / parts) @ (np.asarray(mix) / sum(mix))))
        return end - start - sum(self.own[lo:hi]), factor
