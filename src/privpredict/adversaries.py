"""Query-stream generators: an offline fixed list, stochastic draws, and
an adaptive boundary probe that reads only the public (point, label) transcript.

An adversary takes one call per round, ``next_query(j, label, noise)``: j is
the public 1-based round index, and label the label released for the
adversary's previous query (None on round 1).  What it sees of a run is
therefore its own queries and their labels, by construction of the interface.
The offline and stochastic adversaries ignore the label and keep no
state, so one instance may serve many runs; the boundary probe keeps its last
query and its perceptron, and serves one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DataDistribution,
    NoiseSource,
    Point,
    StreamExhausted,
    POSITIVE,
)


@dataclass(frozen=True)
class OfflineAdversary:
    """Fixed query list revealed one point at a time, independent of any outputs.
    ``disclose`` hands the list to measurement code before a run, never to the predictor."""

    points: tuple[Point, ...]

    def next_query(self, j: int, label: int | None, noise: NoiseSource) -> Point:
        if not 0 < j <= len(self.points):
            raise StreamExhausted(f"fixed query list of length {len(self.points)} "
                                  f"has no query {j}")
        return self.points[j - 1]

    def disclose(self) -> tuple[Point, ...] | None:
        return self.points


@dataclass(frozen=True)
class StochasticAdversary:
    """Queries drawn i.i.d. from the data distribution."""

    dist: DataDistribution

    def next_query(self, j: int, label: int | None, noise: NoiseSource) -> Point:
        return tuple(self.dist.sample_points(1, noise)[0].tolist())

    def disclose(self) -> tuple[Point, ...] | None:
        return None


def _dot(a, b) -> float:
    """Sum a[i] * b[i] as ((a[0]*b[0] + a[1]*b[1]) + a[2]*b[2]) + ...  The sum
    starts from -0.0, which adds to any float exactly, so a lone -0.0 product
    stays -0.0 (``sum`` would start from the int 0).  Elementwise numpy repeats
    it bit for bit as ``s = A[:, 0] * B[:, 0]; s += A[:, 1] * B[:, 1]; ...``."""
    total = -0.0
    for ai, bi in zip(a, b):
        total += ai * bi
    return total


class BoundaryProbeAdversary:
    """Adaptive halfspace stressor: fit a running boundary estimate by perceptron
    updates on the observed (point, label) pairs, then query at distance tau from
    it, alternating sides.

    Each call first folds its previous query and the label released for it
    into the perceptron, then asks round j's query on side (j - 1) % 2.  So
    the query stream is a function of the labels and the noise alone, and one
    instance serves one run.

    All arithmetic is in Python floats.  With weights w = (a, offset):
    - the perceptron predicts +1 at x iff ``_dot(a, x) - offset >= 0``, and an
      update adds label * (x, -1) to w coordinate by coordinate;
    - a query draws base = low + span * u, shifts it onto the boundary by
      ``(_dot(a, base) - offset) / _dot(a, a)`` times a, steps tau * a / |a|
      off it, |a| = sqrt(_dot(a, a)), and clips to the box.
    A query sums its products in ``_dot``'s order while it builds the point,
    and so sums the prediction at itself under the weights that built it: the
    weights its label is folded into on the next call.
    """

    def __init__(self, low, high, tau: float):
        self.low = tuple(float(c) for c in low)
        self.high = tuple(float(c) for c in high)
        self.tau = float(tau)
        self._set_weights([0.0] * (len(self.low) + 1))
        self._last = self._predicted = None  # the previous query, and the sign at it

    def _set_weights(self, w: list[float]) -> None:
        """Take new weights and, per side, the row (lo, span, a, step, hi) of
        each coordinate that a query reads."""
        self._w = w
        normal = w[:-1]
        self._offset = w[-1]
        self._norm_squared = _dot(normal, normal)
        norm = math.sqrt(self._norm_squared)
        # (-tau * a) / |a| is the exact negation of (tau * a) / |a|, so the
        # steps to the two sides are these terms and their negations
        ahead = [self.tau * a / norm if norm else 0.0 for a in normal]
        self._rows = tuple([(lo, hi - lo, a, step, hi)
                            for lo, hi, a, step in zip(self.low, self.high, normal, steps)]
                           for steps in (ahead, [-step for step in ahead]))

    def next_query(self, j: int, label: int | None, noise: NoiseSource) -> Point:
        if label is not None and label != self._predicted:
            self._set_weights([wi + label * li for wi, li in zip(self._w, (*self._last, -1.0))])
        rows = self._rows[(j - 1) % 2]
        # rng.uniform(low, high) at the same stream position: lo + span*u is
        # the same two IEEE operations in Python floats as in numpy
        base, total = [], -0.0
        for (lo, span, a, _, _), u in zip(rows, noise.doubles(len(rows))):
            b = lo + span * u
            base.append(b)
            total += a * b
        if self._norm_squared:
            shift = (total - self._offset) / self._norm_squared
            probe, total = [], -0.0
            # on the boundary, then tau off it, to alternating sides
            for b, (lo, _, a, step, hi) in zip(base, rows):
                c = b - shift * a + step
                c = c if c > lo else lo  # np.clip's comparisons: a bound wins a tie
                c = c if c < hi else hi
                probe.append(c)
                total += a * c
            base = probe
        self._predicted = POSITIVE if total - self._offset >= 0.0 else -POSITIVE
        self._last = x = tuple(base)
        return x

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
