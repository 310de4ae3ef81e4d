"""Host-speed calibration: how slow the host is around and inside each measured child.

On the shared 2-core host this benchmark was built on, the same
`art --n 13` child took anywhere from 3.4 to 6.7 s within a few minutes, and
its CPU time moved with its wall time: the host's speed changed, in bursts
from under a second to minutes long, not the scheduling.  So each child's
wall time is divided by the host's slowness over its run, a multiple of a
nominal time, measured in one of two ways (run.measure picks per workload):

* slices: a small fixed pure-Python kernel timed on the same CPU in a gap
  before and after each child and, every few milliseconds of the child's
  run, while the child is stopped (run.run_child); slowness is slice time
  over NOMINAL_S.  This suits the seconds-long sweep-bound children: slices
  timed only in the gaps missed the bursts inside a 4-s child and made its
  run-to-run spread worse than the raw wall time's, while slices inside the
  run brought the spread of single `art --n 13` runs from 0.14 to 0.03
  (standard deviation of the log).
* reference: a child that starts the interpreter and imports a few standard
  modules, run in the gap before and after each child; slowness is its time
  over REFERENCE_NOMINAL_S.  This suits the ~0.1-s start-up-bound children,
  which slowed less than the slices did (a log-log slope near 0.6) but about
  as much as the reference child (near 0.9).

Both are the benchmark's own code and the interpreter's, so no change to the
program moves them.
"""

from __future__ import annotations

import marshal
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

# about the fastest slice seen on the host this was sized on (2 cores,
# Python 3.11.7); scaled times read as on a host where a slice takes this long
NOMINAL_S = 0.0018
# sized so the unmarshals take about a quarter of a slice
CODE_LOADS = 45

# the reference child, and its nominal time
REFERENCE_ARGV = [sys.executable, "-c", "import argparse, fractions, json"]
REFERENCE_NOMINAL_S = 0.05

_rng = random.Random(0)
_LOS = sorted(_rng.randrange(1 << 40, 1 << 42) for _ in range(140))
_HIS = [lo + _rng.randrange(1 << 20) for lo in _LOS]
_CODE = marshal.dumps(compile(Path(__file__).read_text(), __file__, "exec"))


def kernel() -> int:
    """One slice: the products sweep's row merge over the triangle i <= j,
    then CODE_LOADS unmarshals of this module's code object, as an import does.

    Against the sweep part alone, adding the unmarshals cut the spread of
    scaled `art` times a little.  The sweep counts its merged segments
    instead of storing them, so a slice touches a few kilobytes and leaves
    the paused child's caches nearly as they were.
    """
    segments = 0
    los, his = _LOS, _HIS
    nb = len(los)
    for i in range(nb):
        a_lo = los[i]
        a_hi = his[i]
        cur_hi = a_hi * his[i]
        for j in range(i + 1, nb):
            if a_lo * los[j] > cur_hi:
                segments += 1
            cur_hi = a_hi * his[j]
        segments += 1
    for _ in range(CODE_LOADS):
        marshal.loads(_CODE)
    return segments


def slice_slowness(slices: int) -> list[float]:
    """Slowness samples of `slices` kernel runs in a row: their times over NOMINAL_S."""
    samples = []
    for _ in range(slices):
        start = time.perf_counter()
        kernel()
        samples.append((time.perf_counter() - start) / NOMINAL_S)
    return samples


def reference_slowness(env: dict) -> list[float]:
    """The slowness sample of one reference child: its time over REFERENCE_NOMINAL_S."""
    start = time.perf_counter()
    subprocess.run(REFERENCE_ARGV, env=env, stdout=subprocess.DEVNULL, check=True)
    return [(time.perf_counter() - start) / REFERENCE_NOMINAL_S]


class Timeline:
    """Measured runs with a calibration gap before the first and after each one.

    `calibrate()` returns the gap's slowness samples (multiples of a nominal
    time).  Run i lies between gaps[i] and gaps[i + 1] and may carry the
    samples during[i] taken while it was paused; its normalized time is its
    wall time over its slowness (see `slowness`).
    """

    def __init__(self, calibrate: Callable[[], list[float]]):
        self.calibrate = calibrate
        self.walls: list[float] = []
        self.during: list[list[float]] = []
        self.gaps: list[list[float]] = [calibrate()]

    def add(self, wall_s: float, during: Sequence[float] = ()) -> int:
        """Record one run's wall time and in-run samples, calibrate after it; returns its index."""
        self.walls.append(wall_s)
        self.during.append(list(during))
        self.gaps.append(self.calibrate())
        return len(self.walls) - 1

    def slowness(self, i: int) -> float:
        """Mean slowness over run i.

        A child's wall time sums the host's speed over its run, so this is a
        mean, not a median: of the samples taken while it was paused, plus
        the mean of the two gaps around it as one more sample (the only one
        for a child that was not paused).
        """
        around = statistics.mean(self.gaps[i] + self.gaps[i + 1])
        return statistics.mean([*self.during[i], around])

    def normalized(self, i: int) -> float:
        return self.walls[i] / self.slowness(i)
