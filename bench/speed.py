"""Wall time scaled to a steady machine speed.

On a shared machine, other tenants slow every process down for seconds at
a time, by up to about 1.8x, so plain wall times of the same work spread by
tens of percent from run to run.  A :class:`SpeedSampler` measures the
machine's current speed while the benchmark runs: a timer signal fires every
``PERIOD`` seconds, and its handler times a fixed pure-Python loop (tuples,
lists and a dict; no tandemreco code) of ``LOOP_S`` reference seconds.  An
interval of wall time is then reported in reference seconds:

    (wall time - time spent in the handler) * LOOP_S / mean loop time

where the mean is over the loops run during the interval, widened by one
period on each side.  Because the handler runs between bytecodes of the
main thread, long library calls are sampled from inside.

The loop reacts to a busy machine somewhat more than tandemreco's work
does, so the scaling overcorrects while the machine is busy.  Medians are
therefore taken over the quietest half of the measurements (those with the
lowest mean loop time), where the scaling is small; :class:`SlotTimes` does
so for each operation of a round.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

PERIOD = 0.05
LOOP_S = 0.0007


def speed_loop() -> None:
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the heap of the program, not the machine
    table = {}
    for i in range(1000):
        key = (i, i + 1, i * 2)
        table[key] = [x % 7 for x in key]
    if collecting:
        gc.enable()


class SpeedSampler:
    """Samples the loop time every PERIOD seconds while started."""

    def __init__(self):
        self.starts = array("d")
        self.loops = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed_loop()
        self.loops.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_time(self, start: float, end: float) -> float:
        """Mean loop time during [start, end], widened by one period on each side."""
        near = self.loops[bisect_left(self.starts, start - PERIOD):
                          bisect_right(self.starts, end + PERIOD)]
        if not near:
            near = self.loops[-3:] or array("d", [LOOP_S])
        return sum(near) / len(near)

    def scaled(self, start: float, end: float) -> float:
        """The wall interval [start, end] in reference seconds."""
        inside = slice(bisect_left(self.starts, start), bisect_right(self.starts, end))
        spent = sum(self.loops[inside])
        return max(end - start - spent, 0.0) * LOOP_S / self.loop_time(start, end)


def quietest_half(values, loop_times) -> list[float]:
    """The values measured while the machine was quietest (lowest loop times)."""
    ranked = sorted(zip(loop_times, values))
    return [value for _, value in ranked[: (len(ranked) + 1) // 2]]


class SlotTimes:
    """Each operation slot's times over a run's rounds, with their loop times.

    A slot is an operation's place in a round (``("build", 16, 1, 1)``,
    ``("decode", 7)``), the same in every round.  The time of a round is the
    sum over slots of the median of the quietest half of that slot's times,
    so each operation is judged by the rounds in which it ran on a quiet
    machine.
    """

    def __init__(self):
        self.slots: dict[tuple, tuple[array, array]] = {}

    def add(self, slot: tuple, seconds: float, loop_time: float) -> None:
        values, loops = self.slots.setdefault(slot, (array("d"), array("d")))
        values.append(seconds)
        loops.append(loop_time)

    def round_time(self) -> float:
        return sum(
            statistics.median(quietest_half(values, loops))
            for values, loops in self.slots.values()
        )
