"""Host-speed calibration: a clock that runs at the program's speed.

The benchmark runs on a few cores of a shared host, where the same
computation takes from one to several times as long depending on what else
the host runs.  CPU time tracks wall time there, so the process is not
waiting: it runs on a slower share of the host.

``Calibrator`` samples that speed while the rounds run.  An interval timer
(SIGALRM) fires every ``PERIOD_S`` seconds of wall time, and its handler
times ``kernel()``: a fixed quadrature whose integrand calls
``scipy.special.betainc`` on a 2-element array, like the program's curvature
points (QUADPACK calling back into Python, which calls a special function on
tiny arrays), then vector math on 16k doubles, like its Monte Carlo.  The
kernel does not use ``fracsurf``, so a change to the program does not change
it.

``clock()`` counts each stretch of program time between two handler calls
at the speed the kernel measured right after it, in the seconds the program
would take on a host whose kernel time is ``REFERENCE_S``.  The handler's own
time does not count.  README.md ("Timing on a shared host") gives the
measurements behind these choices.

The handler runs between the program's bytecodes, in the main thread.  It
can start a ``quad`` while the program is inside one; QUADPACK supports that
nesting (``dblquad`` relies on it), and the benchmark checks that every
round's outputs are identical.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import integrate, special

PERIOD_S = 0.1
# About the median kernel time on the 2-vCPU host of the figures in README.md
# (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only sets the unit.
REFERENCE_S = 3.4e-3

_POINTS = np.array([0.3, 0.7])
_ARRAY = np.linspace(0.0, 1.0, 1 << 14)
_OUT = np.empty_like(_ARRAY)


def _integrand(t: float) -> float:
    return float(special.betainc(0.5, 0.75, _POINTS * t / (1.0 + t)).sum())


def kernel() -> float:
    """Fixed work: one adaptive quadrature (315 evaluations) of a regularized
    incomplete beta function on a 2-element array, then 24 passes of
    multiply, exp and sum over 16k doubles."""
    total = integrate.quad(_integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=50)[0]
    for _ in range(24):
        np.multiply(_ARRAY, 1.5, out=_OUT)
        np.exp(_OUT, out=_OUT)
        total += float(_OUT.sum())
    return total


class Calibrator:
    """Context manager: sample ``kernel()`` every ``period`` seconds of wall
    time and keep the program-speed ``clock()``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []  # seconds per kernel call
        # (clock reading at `mark`, perf_counter when the last handler
        # ended, scale of the open stretch); replaced whole, never mutated
        self._state = (0.0, 0.0, 1.0)
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside a tick is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        clock, mark, _ = self._state
        scale = REFERENCE_S / (end - start)
        self.samples.append(end - start)
        self._state = (clock + (start - mark) * scale, end, scale)
        self._busy = False

    def clock(self) -> float:
        """Program time so far, in reference seconds."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # no tick between the two reads
                break
        clock, mark, scale = state
        return clock + (now - mark) * scale

    def __enter__(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self._state = (0.0, end, REFERENCE_S / (end - start))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
