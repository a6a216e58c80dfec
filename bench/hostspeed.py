"""Host speed: a fixed pure-Python loop timed next to every measurement.

The benchmark's CPUs are shared with other tenants of the host, whose
load comes and goes: over a few minutes the same work reads up to half
again as slow, in stretches that last longer than one op.  So every wall
time the benchmark reports is divided by the host's slowdown at the time,
measured on the same CPU with a loop that does not run the program: a
long loop just before and just after each measurement, and short probes
while a child process runs.  A scaled time reads as it would on a host
where the long loop takes ``REFERENCE_S``, its time on an idle core of a
2-vCPU Xeon with Python 3.11.  A change to the program moves scaled
times by the same share as raw ones.  The loop follows the program's
slowdown only roughly: on that machine it cut the spread between
25-second medians of one cold op from about 25 % to 5 %.
"""

import os
import statistics
import time

# The loop is UNIT_N iterations repeated; the long loop runs it LOOP_UNITS
# times, a probe once, so both cost the same per unit.
UNIT_N = 10_000
LOOP_UNITS = 40
REFERENCE_S = 0.027
# seconds between probes while a child runs; each takes about 2 % of that
PROBE_EVERY_S = 0.05


def _per_unit(units: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for _ in range(units):
        for i in range(UNIT_N):
            acc += i * i % 7
    return (time.perf_counter() - t0) / units


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the loop sees
    the load the measured work sees."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Meter:
    """Slowdown of this CPU over a series of back-to-back measurements.

    The long loop after one measurement also serves as the one before
    the next; ``probe`` adds samples from inside a measurement."""

    def __init__(self) -> None:
        self.last = _per_unit(LOOP_UNITS)
        self.probes: list[float] = []
        self.slowdowns: list[float] = []

    def probe(self) -> float:
        """Take one short sample; returns the seconds it took."""
        per = _per_unit(1)
        self.probes.append(per)
        return per

    def factor(self) -> float:
        """Close the current measurement: its factor from wall time to
        time at the reference speed."""
        after = _per_unit(LOOP_UNITS)
        per = statistics.fmean([self.last, *self.probes, after])
        self.last, self.probes = after, []
        self.slowdowns.append(per * LOOP_UNITS / REFERENCE_S)
        return 1 / self.slowdowns[-1]
