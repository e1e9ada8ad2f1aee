"""Machine-speed reference: a fixed kernel timed between operations.

The benchmark runs on a few cores of a shared host.  Its neighbours change
how fast this process runs by up to a factor of two, for seconds to
minutes at a time: timed back to back, 16 x 16 SVDs ran between 4.5k and
9k per second over 150 s on a 2-core host, and one synthesize call at
d = 28 took 363 to 697 ms (medians of 8 calls) over 90 s.  Divided by
the kernel's time around it, the same call read 223 to 252.

So every timing in the end-to-end metrics is scaled by ``NOMINAL_S``
over the kernel's time measured around it, which reports it at the speed
at which the kernel takes ``NOMINAL_S`` (about an idle core of that host).
The kernel is the benchmark's own code: SVDs of a fixed matrix and a
Python loop, the two kinds of work the package does, so no change to the
package can change it.  Unscaled timings are printed beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time, in seconds, at the nominal speed the metrics report.
NOMINAL_S = 2e-3
# A new kernel sample is taken before or after an operation once the
# last one is this old, so samples track the host within a fraction of a
# second and cost about 1% of the run.
EVERY_S = 0.2
REPS = 20


class SpeedRef:
    """Samples of the kernel's run time, and scale factors taken from them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.samples: list[float] = []
        self._last = float("-inf")

    def _sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(REPS):
            np.linalg.svd(self._m)
            sum(i * i for i in range(300))
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def mark(self) -> int:
        """Index of the newest sample; a fresh one is taken when it is due."""
        if time.perf_counter() - self._last >= EVERY_S:
            self._sample()
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """``NOMINAL_S`` over the mean kernel time of samples first..last."""
        return NOMINAL_S / statistics.fmean(self.samples[first:last + 1])
