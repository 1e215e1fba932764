"""Host pace: how fast this machine is running the benchmark just now.

The benchmark runs on a share of a machine whose speed changes as other
tenants come and go: a fixed piece of Python runs at one speed for a second
or a few, then at up to 1.7 times that speed or less, and the mix drifts over
minutes.  A wall time alone then says more about the neighbours than about
nvspin.  So while it times nvspin, the benchmark also times a fixed
reference kernel every ``INTERVAL_S`` of wall time, from a ``SIGALRM``
handler in the same thread, and divides each wall time by the host's mean
slowness over that same stretch: the kernel's time over ``REFERENCE_S``.
The result is seconds at the reference pace.

The samples must come from inside the timed stretch.  Samples taken only
between datasets missed the changes of speed within a 5 s field_sweep
dataset and made the run-to-run spread of its median worse than the raw
wall times; samples taken during each dataset tracked its wall time with a
correlation of 0.93 over 49 datasets.

The kernel is plain Python and this module imports only the standard
library, so ``paced.py`` can sample a fresh interpreter without importing
numpy or scipy ahead of the command it times.  The kernel does not call
nvspin, so a change to the package cannot move it.  The time it takes is
left out of every timing (``Sampler.clock``).
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
# median time of one kernel run on the reference host, a 2-vCPU Xeon KVM guest
REFERENCE_S = 0.00155


def _kernel() -> float:
    last: dict[int, float] = {}
    acc = 0.0
    for i in range(10000):
        acc += i * 0.5
        last[i & 255] = acc
        if i % 7 == 0:
            acc -= 1.0
    return acc + len(last)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while started."""

    def __init__(self):
        self.slowness: list[float] = []  # kernel time / REFERENCE_S, per sample
        self.stolen_s = 0.0              # wall time spent sampling
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        spent = time.perf_counter() - start
        self.slowness.append(spent / REFERENCE_S)
        self.stolen_s += spent
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``perf_counter`` without the time spent sampling."""
        return time.perf_counter() - self.stolen_s

    def mean_slowness(self, since: int = 0) -> float | None:
        """Mean slowness of the samples from index ``since`` on; None if
        there are none."""
        samples = self.slowness[since:]
        return statistics.fmean(samples) if samples else None
