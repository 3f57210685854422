"""Machine-speed calibration of the timed loop.

The host this benchmark was tuned on changes speed in phases of tens of
seconds to minutes, by up to a third, whatever runs on it.  Within one run
the speed is nearly constant, so no median over the run's trials removes a
slow phase: the run-to-run spread of the plain median trial time was at
times wider than the largest bound a regression gate may use.  Work that
does not touch ssamp slows in the same phases, so the timed loop runs a
fixed reference block after every trial and rescales each trial's wall
time by the reference blocks around it.  ssamp's code never runs inside a
reference block, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference block's typical wall time on the machine the bounds were
# measured on (README.md).  Calibrated times are in that machine's seconds.
NOMINAL_S = 0.010

# Reference blocks on each side of a trial whose median sets its local speed.
WINDOW = 5


class Reference:
    """A fixed block of the kinds of work the workloads do: interpreter
    loops, elementwise numpy on a 16384-vector and dense BLAS matvecs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((600, 1200))
        self._x = rng.standard_normal(1200)
        self.run()  # first touch of the arrays, untimed

    def run(self) -> float:
        """Wall time of one reference block."""
        t0 = time.perf_counter()
        total = 0
        for i in range(37500):
            total += i % 7
        v = np.linspace(0.0, 1.0, 16384)
        for _ in range(75):
            v = np.tanh(v) * 1.0001 + 0.001
        x = self._x
        for _ in range(15):
            x = self._a.T @ (self._a @ x)
            x /= np.linalg.norm(x)
        return time.perf_counter() - t0


def calibrated(seconds: list[float], reference: list[float]) -> list[float]:
    """Each trial's seconds at the nominal reference speed.

    ``reference[i]`` is the block run right after trial ``i``; trial ``i`` is
    scaled by NOMINAL_S over the median of blocks ``i - WINDOW .. i + WINDOW``.
    """
    if len(seconds) != len(reference):
        raise ValueError(f"{len(seconds)} trials but {len(reference)} reference blocks")
    return [
        s * NOMINAL_S / statistics.median(reference[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, s in enumerate(seconds)
    ]
