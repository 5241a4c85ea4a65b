"""Scalar reference for the noise primitives of ``NoiseSource``.

These are ``uniform``, ``coin`` and ``doubles`` with one scalar
``Generator.random()`` call per double, as before the source drew its noise
in blocks.  The buffered source must hand out bit-identical values in the
same order, including the rejection of a 0.0 draw by ``uniform``, which
consumes the next double, and its return by ``doubles``.
"""

from __future__ import annotations

from privpredict.core import NEGATIVE, POSITIVE, NoiseSource


class ScalarNoise(NoiseSource):
    """A source that draws each double with its own scalar ``random()`` call.

    It reads the generator directly, so structural draws stay allowed after
    noise draws, as they were for the scalar source.
    """

    def child(self, index: int) -> "ScalarNoise":
        return ScalarNoise(self.seed, self._spawn_key + (int(index),))

    def uniform(self) -> float:
        u = float(self._generator().random())
        while u <= 0.0:
            u = float(self._generator().random())
        return u

    def coin(self) -> int:
        return POSITIVE if self._generator().random() >= 0.5 else NEGATIVE

    def doubles(self, n: int) -> list[float]:
        return [float(self._generator().random()) for _ in range(n)]
