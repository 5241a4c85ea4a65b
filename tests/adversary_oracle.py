"""Scalar reference for ``BoundaryProbeAdversary``: its float rule, written out
on its own.

The oracle keeps the whole history of its queries and their labels.  Every
call appends the last query and the label it is given, replays the perceptron
from zero weights over the whole history and takes its side from the history's
length; every sum is an explicit loop that starts from the first product.  The
base point comes from ``Generator.uniform`` and the clip from ``np.clip``, the
numpy expressions the adversary repeats in Python floats.  The adversary must
give the same query bits and leave the noise stream at the same position.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from privpredict.core import POSITIVE, NoiseSource, Point

History = Sequence[tuple[Point, int]]


def _sum_of_products(a, b) -> float:
    if len(a) != len(b):
        raise ValueError(f"lengths {len(a)} and {len(b)} differ")
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total = total + a[i] * b[i]
    return total


class BoundaryProbeOracle:
    def __init__(self, low, high, tau: float):
        self.low = tuple(float(c) for c in low)
        self.high = tuple(float(c) for c in high)
        self.tau = float(tau)
        self.history: list[tuple[Point, int]] = []
        self._last = None

    def _weights(self, history: History) -> list[float]:
        w = [0.0] * (len(self.low) + 1)
        for x, label in history:
            value = _sum_of_products(w[:-1], x) - w[-1]
            predicted = POSITIVE if value >= 0.0 else -POSITIVE
            if predicted != label:
                lifted = list(x) + [-1.0]
                w = [w[i] + label * lifted[i] for i in range(len(w))]
        return w

    def next_query(self, j: int, label: int | None, noise: NoiseSource) -> Point:
        if label is not None:
            self.history.append((self._last, label))
        if j != len(self.history) + 1:
            raise ValueError(f"round {j} follows {len(self.history)} labelled queries")
        self._last = self.query(self.history, noise)
        return self._last

    def query(self, history: History, noise: NoiseSource) -> Point:
        """The query after ``history``, a pure function of it and the noise."""
        w = self._weights(history)
        base = noise.rng.uniform(np.asarray(self.low), np.asarray(self.high)).tolist()
        normal, offset = w[:-1], w[-1]
        norm_squared = _sum_of_products(normal, normal)
        if norm_squared == 0.0:
            return tuple(base)
        norm = math.sqrt(norm_squared)
        shift = (_sum_of_products(normal, base) - offset) / norm_squared
        side = 1.0 if len(history) % 2 == 0 else -1.0
        probe = [base[i] - shift * normal[i] + side * self.tau * normal[i] / norm
                 for i in range(len(base))]
        return tuple(np.clip(probe, self.low, self.high).tolist())

    def disclose(self) -> tuple[Point, ...] | None:
        return None
