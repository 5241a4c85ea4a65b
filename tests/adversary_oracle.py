"""Scalar reference for ``BoundaryProbeAdversary.next_query``.

This is the numpy-array version the adversary used before its probe step was
rewritten on Python floats, kept verbatim as the oracle: the rewrite must give
the same query bits and leave the noise stream at the same position.
"""

from __future__ import annotations

import numpy as np

from privpredict.adversaries import BoundaryProbeAdversary, History
from privpredict.core import NoiseSource, Point


class BoundaryProbeOracle(BoundaryProbeAdversary):
    def __init__(self, low, high, tau: float):
        super().__init__(low, high, tau)
        self._lo_arr = np.asarray(self.low)
        self._hi_arr = np.asarray(self.high)

    def next_query(self, history: History, noise: NoiseSource) -> Point:
        self._sync(history)
        base = noise.rng.uniform(self._lo_arr, self._hi_arr)
        normal = self._w[:-1]
        norm = float(np.linalg.norm(normal))
        if norm == 0.0:
            return tuple(float(c) for c in base)
        on_boundary = base - ((float(normal @ base) - self._w[-1]) / norm**2) * normal
        side = 1.0 if len(history) % 2 == 0 else -1.0
        probe = on_boundary + side * self.tau * normal / norm
        probe = np.clip(probe, self._lo_arr, self._hi_arr)
        return tuple(float(c) for c in probe)
