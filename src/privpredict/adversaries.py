"""Query-stream generators: offline/oblivious fixed lists, stochastic draws, and
an adaptive boundary probe that reads only the public (point, label) transcript.

The adaptive adversary is a pure function of the public history plus its own
noise source, so feeding it anything beyond (x, Label) pairs is impossible by
construction.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigurationError,
    DataDistribution,
    NoiseSource,
    Point,
    StreamExhausted,
    POSITIVE,
    certain_sign,
)

History = Sequence[tuple[Point, int]]


@dataclass(frozen=True)
class ObliviousAdversary:
    """Fixed query list revealed one point at a time, independent of any outputs."""

    points: tuple[Point, ...]

    def next_query(self, history: History, noise: NoiseSource) -> Point:
        j = len(history)
        if j >= len(self.points):
            raise StreamExhausted(f"fixed query list of length {len(self.points)} is exhausted")
        return self.points[j]

    def disclose(self) -> tuple[Point, ...] | None:
        return None


@dataclass(frozen=True)
class OfflineAdversary(ObliviousAdversary):
    """Oblivious stream plus a pre-run disclosure hook for analysis tooling.

    The disclosed list goes to measurement code only, never to the predictor.
    """

    def disclose(self) -> tuple[Point, ...] | None:
        return self.points


@dataclass(frozen=True)
class StochasticAdversary:
    """Queries drawn i.i.d. from the data distribution."""

    dist: DataDistribution

    def next_query(self, history: History, noise: NoiseSource) -> Point:
        return tuple(self.dist.sample_points(1, noise)[0].tolist())

    def disclose(self) -> tuple[Point, ...] | None:
        return None


class BoundaryProbeAdversary:
    """Adaptive halfspace stressor: fit a running boundary estimate by perceptron
    updates on the observed (point, label) pairs, then query at distance tau from
    it, alternating sides.

    The weights are advanced incrementally while calls see the same history
    growing by appends; any prefix mismatch or shrink triggers a full replay, so
    the query stream stays a pure function of the (point, label) pairs.

    Each query converts only its base point: a ``struct.Struct(f"{d}d")``
    writes it, as the C doubles numpy would store, into a float64 view of a
    bytearray, and the shift is numpy's dot of that view with the normal.  All
    else a query reads -- the normal as a list and an array, the offset, the
    squared norm and the step terms tau * a / |a| -- is made once per weights
    by ``_set_weights``.  The buffer makes an instance single-owner, as its
    history already does.
    """

    def __init__(self, low, high, tau: float):
        self.low = tuple(float(c) for c in low)
        self.high = tuple(float(c) for c in high)
        self.tau = float(tau)
        self._span = [hi - lo for lo, hi in zip(self.low, self.high)]
        self._base_bytes = bytearray(8 * len(self.low))
        self._base = np.frombuffer(self._base_bytes, dtype=np.float64)  # next_query's base point
        self._pack_base = struct.Struct(f"{len(self.low)}d").pack_into
        self._set_weights([0.0] * (len(self.low) + 1))
        self._seen = 0
        self._last_pair = None

    def _set_weights(self, w: list[float]) -> None:
        """Take new weights (a list of floats) and the boundary quantities every
        query reads."""
        self._w = w
        self._normal_list = w[:-1]
        self._normal = np.array(self._normal_list)
        # np.linalg.norm's own formula
        self._norm = norm = math.sqrt(float(np.dot(self._normal, self._normal)))
        self._norm_squared = norm**2
        self._offset = w[-1]
        # (-tau * a) / |a| is the exact negation of (tau * a) / |a|, so the
        # steps to the two sides are these terms and their negations
        ahead = [self.tau * a / norm for a in self._normal_list] if norm else []
        self._steps = (ahead, [-term for term in ahead])

    def _sync(self, history: History) -> None:
        """Advance the perceptron over the pairs not yet seen.

        The prediction w @ (x, -1) >= 0 is decided by ``certain_sign`` in
        Python floats; only where rounding could flip its sign does it take
        numpy's product, so it is numpy's sign bit for bit.  An update
        w + label * (x, -1) is the same IEEE additions on floats as on arrays.
        The last pair seen is matched by identity first: a history that grows
        by appends hands back the same tuple.
        """
        seen = self._seen
        if len(history) < seen or (seen > 0 and history[seen - 1] is not self._last_pair
                                   and tuple(history[seen - 1]) != self._last_pair):
            self._set_weights([0.0] * (len(self.low) + 1))
            self._seen = 0
        w = self._w
        normal, offset = self._normal_list, self._offset  # w[:-1] and w[-1]
        for x, label in history[self._seen:]:
            predicted = certain_sign(normal, x, offset)
            if not predicted:
                lifted = np.asarray(tuple(x) + (-1.0,))
                predicted = POSITIVE if float(np.asarray(w) @ lifted) >= 0.0 else -POSITIVE
            if predicted != label:
                w = [wi + label * li for wi, li in zip(w, tuple(x) + (-1.0,))]
                normal, offset = w[:-1], w[-1]
        if w is not self._w:
            self._set_weights(w)
        self._seen = len(history)
        if history:
            self._last_pair = tuple(history[-1])  # no copy of a tuple

    def next_query(self, history: History, noise: NoiseSource) -> Point:
        self._sync(history)
        # rng.uniform(low, high) at the same stream position: lo + span*u is
        # the same two IEEE operations in Python floats as in numpy
        base = [lo + span * u
                for lo, span, u in zip(self.low, self._span, noise.doubles(len(self.low)))]
        norm = self._norm
        if norm == 0.0:
            return tuple(base)
        # numpy's dot, not a Python sum: BLAS may fuse its multiply-adds
        self._pack_base(self._base_bytes, 0, *base)
        shift = (float(self._normal.dot(self._base)) - self._offset) / self._norm_squared
        probe = []
        # on the boundary, then tau off it, to alternating sides
        for b, a, step, lo, hi in zip(base, self._normal_list, self._steps[len(history) % 2],
                                      self.low, self.high):
            c = b - shift * a + step
            c = c if c > lo else lo  # np.clip's comparisons: a bound wins a tie
            probe.append(c if c < hi else hi)
        return tuple(probe)

    def disclose(self) -> tuple[Point, ...] | None:
        return None


def van_der_corput_queries(count: int, grid_size: int) -> list[Point]:
    """Deterministic bit-reversal sweep of {1..grid_size}: an oblivious stream that
    probes the grid at every dyadic scale.

    Query j is 1 + rev(j) * grid_size // 2**bits, with rev(j) the bit reversal
    of j mod 2**bits.  rev(j) * grid_size < 4**bits fits int64 up to 31 bits;
    wider grids compute with Python ints.
    """
    if count < 1 or grid_size < 2:
        raise ConfigurationError("need count >= 1 and grid_size >= 2")
    bits = max(1, (grid_size - 1).bit_length())
    j = np.arange(min(count, 2**bits)).astype(np.int64 if bits <= 31 else object)
    rev = np.zeros_like(j)
    for b in range(bits):
        rev |= ((j >> b) & 1) << (bits - 1 - b)
    xs = 1 + rev * grid_size // 2**bits
    return [(x,) for x in np.resize(xs, count).astype(float).tolist()]
