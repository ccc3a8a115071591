"""Host-speed probe: rescales a child's wall times to the host's fast state.

The benchmark runs on a shared host whose single-thread speed swings by up
to 1.9x within seconds, with the load of its other tenants.  Process
CPU time swings with it, so neither wall nor CPU time of a command can be
compared between two runs made minutes apart: over 30 s windows the median
time of the same command moves by 15-20% (quartile distance over median).

While a child runs, a SIGALRM every INTERVAL_S interrupts it between two
bytecodes and times a fixed piece of pure-Python work (integer arithmetic
and a strided walk over a list of floats), run once untimed first so that
it is timed with warm caches.  It does the same work every time, so its
duration over PROBE_REF_S, its duration in the host's fast state, is the
host's slowdown at that moment.  (Timed cold, the probe measures the
workload's eviction of its cache lines as much as the host, and its
slowdown then tracks the workload's poorly.)  A span of the child (set-up, one CLI command, the whole
child) is cut at the probes into pieces, each piece is divided by the
slowdown the probe that ends it measured, and the probes' own time is left
out:

    seconds = sum over pieces of (piece's wall time / slowdown)

that is, the span's wall time had the host stayed in its fast state.  A
command that does more work reads more seconds, whatever the host does
meanwhile; over the same 30 s windows the rescaled median moves by 2-4%.
The raw wall time and the span's mean slowdown are kept next to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
_DATA = [float(i) for i in range(3000)]
# The probe's duration in the host's fast state: the 1st percentile of probe
# times over 150 s of picard-1d commands on a 2-vCPU Intel Xeon VM,
# Python 3.11.
PROBE_REF_S = 24.5e-6
NEIGHBOURS = 20  # probes around a span that set its outlier cut
OUTLIER = 5.0  # a probe this many times the median was descheduled


def _work() -> float:
    s = 0
    for i in range(300):
        s += i * i & 7
    x = 0.0
    data = _DATA
    for i in range(0, 3000, 10):
        x += data[i] * 1.5
    return s + x


class Probe:
    """Samples the host's speed every INTERVAL_S of wall time while started."""

    def __init__(self):
        # (perf_counter at the probe's start, at its end, duration of the timed pass)
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame):
        t = perf_counter()
        _work()
        t_warm = perf_counter()
        _work()
        t_end = perf_counter()
        self.samples.append((t, t_end, t_end - t_warm))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, t0: float, t1: float) -> dict:
        """The span [t0, t1] of perf_counter time: raw wall seconds, the
        rescaled seconds and the mean slowdown (their ratio, probes left out)."""
        if not self.samples:
            raise RuntimeError("no host-speed probes were taken")
        lo = bisect.bisect_left(self.samples, (t0,))
        hi = bisect.bisect_left(self.samples, (t1,))
        near = self.samples[max(0, lo - NEIGHBOURS // 2) : hi + NEIGHBOURS // 2]
        typical = statistics.median(took for _, _, took in near)

        def slowdown(took):
            return (typical if took > OUTLIER * typical else took) / PROBE_REF_S

        seconds = inside = 0.0
        prev = t0
        for at, end, took in self.samples[lo:hi]:
            seconds += (at - prev) / slowdown(took)
            inside += end - at
            prev = end
        # The last piece is timed by the first probe after the span.
        seconds += (t1 - prev) / slowdown(self.samples[min(hi, len(self.samples) - 1)][2])
        wall = t1 - t0
        return {"wall_s": wall, "s": seconds, "slowdown": (wall - inside) / seconds}
