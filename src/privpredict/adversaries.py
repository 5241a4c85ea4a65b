"""Query-stream generators: offline/oblivious fixed lists, stochastic draws, and
an adaptive boundary probe that reads only the public (point, label) transcript.

The adaptive adversary is a pure function of the public history plus its own
noise source, so feeding it anything beyond (x, Label) pairs is impossible by
construction.
"""

from __future__ import annotations

import math
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


def _dot(a, b) -> float:
    """Sum a[i] * b[i] as ((a[0]*b[0] + a[1]*b[1]) + a[2]*b[2]) + ..., from the
    first product on, so a lone -0.0 product stays -0.0 (``sum`` would start
    from the int 0).  Elementwise numpy repeats it bit for bit as
    ``s = A[:, 0] * B[:, 0]; s += A[:, 1] * B[:, 1]; ...``.  Raises
    ``ValueError`` when the lengths differ."""
    pairs = zip(a, b, strict=True)
    a0, b0 = next(pairs)
    total = a0 * b0
    for ai, bi in pairs:
        total += ai * bi
    return total


class BoundaryProbeAdversary:
    """Adaptive halfspace stressor: fit a running boundary estimate by perceptron
    updates on the observed (point, label) pairs, then query at distance tau from
    it, alternating sides.

    The weights are advanced incrementally while calls see the same history
    growing by appends; a history that does not begin with the pairs consumed
    so far triggers a full replay, so the query stream stays a pure function
    of the (point, label) pairs.

    All arithmetic is in Python floats.  With weights w = (a, offset):
    - the perceptron predicts +1 at x iff ``_dot(a, x) - offset >= 0``, and an
      update adds label * (x, -1) to w coordinate by coordinate;
    - a query draws base = low + span * u, shifts it onto the boundary by
      ``(_dot(a, base) - offset) / _dot(a, a)`` times a, steps tau * a / |a|
      off it, |a| = sqrt(_dot(a, a)), and clips to the box.
    """

    def __init__(self, low, high, tau: float):
        self.low = tuple(float(c) for c in low)
        self.high = tuple(float(c) for c in high)
        self.tau = float(tau)
        self._span = [hi - lo for lo, hi in zip(self.low, self.high)]
        self._set_weights([0.0] * (len(self.low) + 1))
        self._pairs = []  # the pairs the weights have consumed
        self._history = None

    def _set_weights(self, w: list[float]) -> None:
        """Take new weights and the boundary quantities every query reads."""
        self._w = w
        self._normal = normal = w[:-1]
        self._offset = w[-1]
        self._norm_squared = _dot(normal, normal)
        norm = math.sqrt(self._norm_squared)
        # (-tau * a) / |a| is the exact negation of (tau * a) / |a|, so the
        # steps to the two sides are these terms and their negations
        ahead = [self.tau * a / norm for a in normal] if norm else []
        self._steps = (ahead, [-term for term in ahead])

    def _sync(self, history: History) -> None:
        """Advance the perceptron over the pairs not yet seen.

        The weights are kept when the history begins with the pairs already
        consumed, and replayed from zero otherwise.  A new sequence, or one
        whose last consumed pair is no longer the same object, is compared
        pair by pair; the list a run appends to is only checked at that pair.
        """
        pairs = self._pairs
        seen = len(pairs)
        if history is not self._history or len(history) < seen or (
                seen and history[seen - 1] is not pairs[-1]):
            self._history = history
            if list(history[:seen]) != pairs:
                self._set_weights([0.0] * (len(self.low) + 1))
                pairs.clear()
                seen = 0
        w = self._w
        normal, offset = self._normal, self._offset  # w[:-1] and w[-1]
        for x, label in history[seen:]:
            predicted = POSITIVE if _dot(normal, x) - offset >= 0.0 else -POSITIVE
            if predicted != label:
                w = [wi + label * li for wi, li in zip(w, (*x, -1.0))]
                normal, offset = w[:-1], w[-1]
        if w is not self._w:
            self._set_weights(w)
        pairs += history[seen:]

    def next_query(self, history: History, noise: NoiseSource) -> Point:
        self._sync(history)
        # rng.uniform(low, high) at the same stream position: lo + span*u is
        # the same two IEEE operations in Python floats as in numpy
        base = [lo + span * u
                for lo, span, u in zip(self.low, self._span, noise.doubles(len(self.low)))]
        if not self._norm_squared:
            return tuple(base)
        shift = (_dot(self._normal, base) - self._offset) / self._norm_squared
        probe = []
        # on the boundary, then tau off it, to alternating sides
        for b, a, step, lo, hi in zip(base, self._normal, self._steps[len(history) % 2],
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
