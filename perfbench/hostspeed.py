"""Host-speed calibration: measured times rescaled to a reference host speed.

On a shared virtual machine the speed of one core swings two-fold or more
for tens of seconds at a time as other tenants load the host; one run's
wall times then say more about the neighbours than about the program.  So
the runner interleaves a fixed probe (small numpy calls in a Python loop,
like most ``repro`` hot paths) with the workload: at every pass boundary
and, through ``tick``, every half second between operations.  Each
pass's times are divided by the pass's *host factor*, the mean probe time
during the pass over ``REFERENCE_PROBE_S``, and each operation's latency by
the factor interpolated at its midpoint.  The probe does not run any
``repro`` code, so a change to the program moves the rescaled times exactly
as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on an idle 2-core x86_64 host of the kind the seed-code
#: baseline was measured on.  A host factor of 1 means that speed.
REFERENCE_PROBE_S = 0.0037


def probe_work() -> float:
    a = np.linspace(0.0, 1.0, 256)
    total = 0.0
    for _ in range(600):
        a = np.sort(np.cumsum(a[::-1]) % 1.0)
        total += float(a[7])
    return total


def probe_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` probe runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Probe samples taken during a run, and the host factor they imply."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []     # (taken at, probe seconds)

    def sample(self) -> float:
        """Take one probe sample; returns the seconds it took."""
        start = time.perf_counter()
        probe = probe_seconds()
        end = time.perf_counter()
        self.samples.append((end, probe))
        return end - start

    def tick(self) -> float:
        """Sample if none was taken in the last ``interval_s``; call between operations.

        Returns the seconds spent probing, for callers timing a region around it.
        """
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval_s:
            return self.sample()
        return 0.0

    def factors(self) -> list[float]:
        """The host factor of every sample."""
        return [probe / REFERENCE_PROBE_S for _, probe in self.samples]

    def factors_at(self, at: np.ndarray) -> np.ndarray:
        """Probe times at ``at``, interpolated between samples, over the reference."""
        times, probes = np.array(self.samples).T
        return np.interp(at, times, probes) / REFERENCE_PROBE_S

    def factor(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` relative to the reference.

        Takes the samples in the interval; without any, the one nearest to it.
        """
        inside = [probe for at, probe in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(inside) / REFERENCE_PROBE_S
