"""Interpreter speed, measured by a fixed calibration loop.

The machine this benchmark was written on drifts by 20% to 50% over
seconds to minutes (other tenants, clock changes), and the drift moves
every timing taken in that stretch alike.  The benchmark therefore runs
a fixed piece of pure-Python work between rounds and around each set-up,
and reports times at a reference speed: each time is multiplied by

    CALIBRATION_NOMINAL_S / (mean loop time of the ticks before and after it)

and each rate divided by the same factor.  Each loop is timed twice: by
the wall clock, which scales wall times (set-up, ``ops_per_s``), and by
the thread's CPU clock, which scales the per-operation latencies, taken
by that clock too (see ``workloads.Recorder.timed``).

The loop mixes the kinds of work the library does: bytecode arithmetic,
small calls and allocations, C-level counting of leaf-sized lists, and
in-place copies of a 4 MiB buffer, which lean on the memory system as
the library's copies of 10^5-element lists do.  Over 10 s windows, the
time of such list copies followed this mix better than it followed the
bytecode alone, and the time of a bytecode scan of such a list no
worse.  Its time does not depend on the library at all, so a
faster library still reads faster.  It allocates nothing that does not
fit the interpreter's small-object pools, so it leaves the program's
heap as it found it, and the heap does not move its time: a copy of a
10^5-element list took half as long again when the program had just
freed its own large lists.

CALIBRATION_NOMINAL_S is the loop's typical time on the 2-vCPU x86-64
host under CPython 3.11.7 where README.md's figures were taken; there a
factor of 1 leaves the figures as measured.
"""

from __future__ import annotations

import statistics
from time import perf_counter, thread_time
from typing import NamedTuple

CALIBRATION_NOMINAL_S = 0.0045
CALIBRATION_EVERY_S = 0.2  # at most one tick per this much time
CALIBRATION_SHARE = 0.03  # share of the time since the last tick spent calibrating
_LIST = [i & 1 for i in range(100_000)]
_LEAVES = [_LIST[: 2048 + (i * 97) % 6000] for i in range(30)]
_SOURCE, _TARGET = bytearray(b"\x5a" * (4 << 20)), bytearray(4 << 20)


def calibration_loop() -> int:
    data, total = list(range(64)), 0
    for i in range(12_000):
        total += data[i & 63] ^ (i >> 3)
    for i in range(4_000):
        total = abs(total) + len([i, total])
    for leaf in _LEAVES:
        total += leaf.count(1)
    for _ in range(4):
        _TARGET[:] = _SOURCE  # same length: copied in place
    return total + _TARGET[-1]


class Factors(NamedTuple):
    """Reference speed over measured speed, by each clock."""

    wall: float
    cpu: float


class Speed:
    """Calibration ticks over one phase of a run."""

    def __init__(self):
        self.samples: list[float] = []  # wall time of each loop
        self.cpu_samples: list[float] = []  # thread CPU time of each loop
        self._level: tuple[float, float] | None = None
        self._last = perf_counter()

    def tick(self, force: bool = False) -> Factors | None:
        """Calibrate, unless the last tick was under CALIBRATION_EVERY_S
        ago and ``force`` is off.  Spends about CALIBRATION_SHARE of the
        time since the last tick, at least one loop.  Returns the factors
        for what was timed since the previous tick, or None."""
        since = perf_counter() - self._last
        if since < CALIBRATION_EVERY_S and not force:
            return None
        loops = max(1, min(20, int(since * CALIBRATION_SHARE / CALIBRATION_NOMINAL_S)))
        walls, cpus = [], []
        for _ in range(loops):
            start, cpu = perf_counter(), thread_time()
            calibration_loop()
            cpus.append(thread_time() - cpu)
            walls.append(perf_counter() - start)
        self.samples.extend(walls)
        self.cpu_samples.extend(cpus)
        level = (statistics.median(walls), statistics.median(cpus))
        before = self._level if self._level is not None else level
        self._level = level
        self._last = perf_counter()
        return Factors(*(CALIBRATION_NOMINAL_S / ((b + n) / 2) for b, n in zip(before, level)))

    def factor(self) -> float:
        """Reference speed over the phase's median wall-clock speed; below
        1 when the machine ran slow."""
        if not self.samples:
            self.tick(force=True)
        return CALIBRATION_NOMINAL_S / statistics.median(self.samples)

    def cpu_factor(self) -> float:
        """As ``factor``, by the thread's CPU clock."""
        if not self.cpu_samples:
            self.tick(force=True)
        return CALIBRATION_NOMINAL_S / statistics.median(self.cpu_samples)
