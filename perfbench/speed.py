"""Host-speed correction for the benchmark's timings.

The shared host the benchmark was tuned on runs the same code at two speeds:
for stretches of a fraction of a second up to a minute or more, everything
runs about 1.6 to 2 times slower, in CPU time, not in time the process
waits. No choice of samples inside a run escapes a slow stretch that lasts
longer than the run. So the benchmark measures the host's speed while the
body runs and scales each timed unit to a fixed reference speed.

A `Speedometer` runs a fixed probe (a small dict loop) from a SIGALRM
handler every `INTERVAL_S` of wall time, so probes also land inside long
calls such as `step_day`. `corrected_ns` takes the probes' own time out of
a timed unit and divides what is left by the host's slowdown around it
raised to the workload's sensitivity. The slowdown is the median, over
the probes within `WINDOW_NS` of the unit, of probe time over
`REFERENCE_NS`. The sensitivity says how much of the probe's slowdown the
workload feels: its time grows as slowdown ** sensitivity. The probe runs
in the first-level cache and feels the slow state in full; the workloads,
whose time goes partly to memory, feel less of it, and by how much is a
property of each workload that `fit_sensitivity.py` measures. A corrected
time reads what the unit would take on a host where the probe takes
`REFERENCE_NS`.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
# The probe's time on the host the benchmark was tuned on (2-core shared VM,
# Intel Xeon at 2.0 GHz, Python 3.11) in its fast state. Any constant works:
# it only sets the scale of the corrected times.
REFERENCE_NS = 150_000
WINDOW_NS = 15_000_000


def probe() -> None:
    """The fixed piece of work whose time measures the host's speed."""
    d = {}
    for i in range(1500):
        k = i & 127
        d[k] = d.get(k, 0) + i


class Speedometer:
    """Probes the host's speed every INTERVAL_S while active. Use as a
    context manager around the timed body; it installs a SIGALRM handler
    and an interval timer, and removes both on exit."""

    def __init__(self):
        self.starts = array.array("q")  # probe start, perf_counter_ns
        self.ns = array.array("q")  # probe duration
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter_ns()
        probe()
        self.starts.append(t0)
        self.ns.append(time.perf_counter_ns() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_ns_between(self, start: int, end: int) -> int:
        """Total time of the probes that started in [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.ns[lo:hi])

    def slowdown(self, start: int, end: int) -> float:
        """The host's slowdown over [start, end]: the median probe time
        within WINDOW_NS of it, over REFERENCE_NS. Falls back to the
        nearest probes when none is that close."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, end + WINDOW_NS)
        if lo == hi:
            k = bisect.bisect_left(self.starts, start)
            lo, hi = max(0, k - 1), min(len(self.ns), k + 1)
        if lo == hi:
            return 1.0
        return statistics.median(self.ns[lo:hi]) / REFERENCE_NS

    def net_ns(self, start: int, end: int) -> int:
        """The time of [start, end] without the probes run inside it."""
        return end - start - self.probe_ns_between(start, end)

    def corrected_ns(self, start: int, end: int, sensitivity: float) -> float:
        """The time of [start, end] without the probes run inside it,
        scaled to the reference speed: divided by the slowdown raised to
        the workload's sensitivity."""
        return self.net_ns(start, end) / self.slowdown(start, end) ** sensitivity
