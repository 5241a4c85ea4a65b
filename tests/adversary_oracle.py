"""Scalar reference for ``BoundaryProbeAdversary``.

It stands alone: ``__init__`` and ``_sync`` are the adversary's from before it
cached its boundary and drew its uniforms through ``NoiseSource.doubles``, and
``next_query`` is the numpy-array version from before the probe step was
rewritten on Python floats, all kept verbatim.  The adversary must give the
same query bits and leave the noise stream at the same position.
"""

from __future__ import annotations

import numpy as np

from privpredict.adversaries import History
from privpredict.core import POSITIVE, NoiseSource, Point


class BoundaryProbeOracle:
    def __init__(self, low, high, tau: float):
        self.low = tuple(float(c) for c in low)
        self.high = tuple(float(c) for c in high)
        self.tau = float(tau)
        self._lo_arr = np.asarray(self.low)
        self._hi_arr = np.asarray(self.high)
        self._w = np.zeros(len(self.low) + 1)
        self._seen = 0
        self._last_pair = None

    def _sync(self, history: History) -> None:
        if len(history) < self._seen or (
            self._seen > 0 and tuple(history[self._seen - 1]) != self._last_pair
        ):
            self._w = np.zeros(len(self.low) + 1)
            self._seen = 0
        for x, label in history[self._seen:]:
            lifted = np.asarray(tuple(x) + (-1.0,))
            predicted = POSITIVE if float(self._w @ lifted) >= 0.0 else -POSITIVE
            if predicted != label:
                self._w = self._w + label * lifted
        self._seen = len(history)
        if history:
            self._last_pair = tuple(history[-1])

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

    def disclose(self) -> tuple[Point, ...] | None:
        return None
