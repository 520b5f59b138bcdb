"""Host-speed yardsticks that turn the benchmark's timings into reference time.

The host this benchmark was written on, a 2-CPU x86 VM (Xeon, KVM), slows
down by up to about 1.8x for minutes at a time when other tenants load it,
and every timing of a run moves with it.  Two yardsticks taken in the same
process as the timed work move with it too, and the benchmark reports its
times divided by them:

- Pass time.  A fixed unit of pure-Python work is timed every ``PERIOD_S``
  during the pass, on the pass's own thread.  ``speed`` of those samples is
  the host's speed relative to one where a unit takes ``UNIT_S``; the pass's
  time times that speed is its reference time.  Timed back to back with
  censym checks, the unit's time and theirs kept a ratio within 2% over 20 s
  windows while each alone varied by 18%.
- Set-up time.  The worker's own start, from process launch until its
  interpreter is up and before censym is imported, depends on the host but
  not on censym.  Set-up time divided by it, times ``START_S``, is the
  reference set-up time; that ratio varied by 3% over probes whose raw
  set-up times varied by 30%.  The unit above over-corrects set-up, which is
  less pure interpreter work.

Running a yardstick on the second CPU at the same time does not work: the
two CPUs contend, and censym slowed by a different factor than the loop.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The reference speed: one unit takes UNIT_S and the worker starts in
# START_S, about what the VM above gave in its fast spells under Python
# 3.11.7.  They only set the scale of the reported times.
UNIT_S = 0.0008
START_S = 0.045
PERIOD_S = 0.05
BURST = 10


def unit() -> int:
    """About 1 ms of the interpreter work censym does: fractions, ints, tuples, dicts."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 160):
        acc += Fraction(i % 7, i % 11 + 1) * Fraction(3, 5)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + i * i % 97
    return len(table) + acc.denominator % 5


def timed_unit() -> float:
    t = time.perf_counter()
    unit()
    return time.perf_counter() - t


def burst() -> list:
    """Times of BURST units back to back."""
    return [timed_unit() for _ in range(BURST)]


def speed(samples: list) -> float:
    """Host speed relative to the reference: mean over samples of UNIT_S / time.

    Averaging the rate, not the time, keeps a sample stretched by an
    interruption from weighing much.
    """
    return sum(UNIT_S / s for s in samples) / len(samples)


class Sampler:
    """Times one unit every PERIOD_S of a pass, from a SIGALRM handler.

    The handler runs on the pass's own thread between two bytecodes, so
    the unit runs on the same CPU, under the same load, as the work around
    it; the time it takes is kept apart from the pass's time.
    """

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        self.samples.append(timed_unit())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
