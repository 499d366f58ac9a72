"""Host-speed calibration.

This host is a VM on a shared machine, and the speed of its vCPUs drifts
with the load of its neighbours: a fixed pure-Python loop ran from 30 to
37 ms in 6-second windows of one minute, and whole runs of the same
benchmark differed by a third between sets of runs.  The benchmark's
time metrics are therefore reported in *nominal seconds*: each measured
time is divided by the host's speed at the moment it was measured.

The speed is measured with a fixed calibration unit that uses no
library code.  Units of four kinds were timed next to circle coherence
checks for 100 s on the development host, and the log of each check's
time fitted against the log of the unit time around it: pure-Python
float arithmetic and random gathers from 64 MiB swung about 1.5 times
as much as the checks (slopes 0.6 to 0.7), while numpy passes over
1 MiB and the allocation of small Python objects swung with them
(slopes 0.8 to 1.1) and left the smallest spread once divided out.  The
unit is about half of each of the last two.  Blocks of units run between
the measured operations; the speed of an operation is the median unit
time of the two blocks before it and the two after it, divided by
``NOMINAL_UNIT_S``.  Because the speed changes within a second or two,
an operation long enough to hold ``MIN_INSIDE`` units of a ``Sampler``
(a timer that runs a unit every 0.1 s inside the process doing the work)
takes its speed from those instead.  Child processes run their own
sampler (``cli_child.py``).  Only the unit's own code sets the scale, so a
change in the library moves a nominal time as much as the measured one.
The raw times and the speeds go into the run's context line.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# about the time of one unit on the development host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4); it only sets the scale
NOMINAL_UNIT_S = 0.85e-3

_ARRAY = np.random.default_rng(0).random(1 << 17)  # 1 MiB of float64
_clock = time.perf_counter
MIN_INSIDE = 5  # fewer Sampler units than this: use the blocks around


def unit() -> float:
    """One calibration unit of fixed work."""
    items = [(i, str(i), [i]) for i in range(800)]
    table = {t[1]: t for t in items}
    acc = 0.0
    for _ in range(2):
        acc += float(np.sum(_ARRAY * _ARRAY[::-1]))
    return acc + len(table)


def _timed_units(count: int) -> list[float]:
    """``count`` unit times, after one unit that warms the caches again:
    the first unit after the program has run pays for the program's use
    of the caches, some 20% of a unit, and would tie the speed to it."""
    unit()
    times = []
    for _ in range(count):
        t = _clock()
        unit()
        times.append(_clock() - t)
    return times


class HostSpeed:
    """Calibration blocks between measured operations.

    ``timed`` runs an operation after a block (the one the previous
    operation ended with, if any) and before another; once the blocks
    after it have run, ``nominal(raw, i)`` turns its measured time into
    nominal seconds.  After ``sample()``, the units a Sampler takes during
    an operation measure the speed of that operation, and their time is
    taken off its measured time.
    """

    def __init__(self, units_per_block: int):
        self.units_per_block = units_per_block
        self.sampler: Sampler | None = None
        self.blocks: list[list[float]] = []
        self.inside: dict[int, list[float]] = {}  # sampled units, by block before

    def sample(self):
        """Sample inside the operations of this process from now on; not
        while it waits for a child, whose CPU the units could share."""
        self.sampler = Sampler()
        self.sampler.start()

    def block(self) -> int:
        self.blocks.append(_timed_units(self.units_per_block))
        return len(self.blocks) - 1

    def speed(self, i: int) -> float:
        """Unit time during the operation after block ``i``, over the nominal one."""
        near = self.inside.get(i, [])
        if len(near) < MIN_INSIDE:
            near = [t for b in self.blocks[max(0, i - 1):i + 3] for t in b]
        return statistics.median(near) / NOMINAL_UNIT_S

    def timed(self, fn, inside=None):
        """Run ``fn`` between two blocks; return its result, its measured
        time and the index of the block before it.  ``inside``, for an
        operation in a child process, returns after ``fn`` the unit times
        the child's Sampler took and the time they took."""
        i = self.block() if not self.blocks else len(self.blocks) - 1
        t0 = _clock()
        out = fn()
        t1 = _clock()
        if inside is None and self.sampler is not None:
            units, spent = self.sampler.window(t0, t1)
        elif inside is not None:
            units, spent = inside()
        else:
            units, spent = [], 0.0
        self.inside[i] = units
        self.block()
        return out, t1 - t0 - spent, i

    def nominal(self, raw: float, i: int) -> float:
        return raw / self.speed(i)


class Sampler:
    """Calibration units from a SIGALRM handler every ``PERIOD_S`` seconds.

    It measures the host's speed during long operations, in the process
    that runs them, at a cost of about 2.5% of their time, which it records
    so that it can be taken off.  The handler runs between bytecodes of
    the main thread, so a long call into C delays a tick but is never cut.
    """

    PERIOD_S = 0.1
    UNITS = 1

    def __init__(self):
        self.ticks: list[tuple[float, float, list[float]]] = []  # start, end, units

    def _tick(self, signum, frame):
        start = _clock()
        units = _timed_units(self.UNITS)
        self.ticks.append((start, _clock(), units))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> dict:
        """Stop; return every unit time and the time all ticks took."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {"units_s": [u for _, _, units in self.ticks for u in units],
                "spent_s": sum(end - start for start, end, _ in self.ticks)}

    def window(self, t0: float, t1: float) -> tuple[list[float], float]:
        """The units of the ticks that began in [t0, t1], and the part of
        that interval that ticks took."""
        units, spent = [], 0.0
        for start, end, tick_units in reversed(self.ticks):
            if end <= t0:
                break
            spent += max(0.0, min(end, t1) - max(start, t0))
            if t0 <= start <= t1:
                units += tick_units
        return units, spent
