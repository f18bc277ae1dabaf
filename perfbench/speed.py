"""Host-speed probe that makes timings comparable on a shared machine.

On a small shared machine the speed one process gets drifts by tens of per
cent within seconds (other tenants on the same cores), and by up to a
factor of two between minutes; that swamps any difference between two
versions of the program.  The probe times a fixed kernel of the kinds of
work the solver does -- interpreted Python, vectorised special functions,
dense LAPACK -- between operations.  An operation's wall time scaled by
``NOMINAL_S / kernel time`` around it is its time at a fixed nominal speed.
The kernel calls nothing in ``belowband``, so no change to the program can
move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.special

NOMINAL_S = 0.010    # kernel time that defines the nominal speed (about its
                     # median on the 2-vCPU machine of the first baseline)
INTERVAL_S = 0.25    # operation time between two probes


class SpeedProbe:
    """Times the kernel on demand and keeps every sample, in order."""

    def __init__(self):
        self._t = np.linspace(0.01, 50.0, 3000)
        m = np.random.default_rng(0).standard_normal((130, 130))
        self._m = m + m.T
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(30000):
            x += i * i
        a = scipy.special.ive(0, self._t)
        b = scipy.special.ive(1, self._t)
        float(np.dot(a * b, np.exp(-0.3 * self._t)))
        scipy.linalg.eigh(self._m)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, before: int) -> float:
        """Factor to nominal speed for work between samples ``before`` and the next."""
        return NOMINAL_S / (0.5 * (self.samples[before] + self.samples[before + 1]))
