"""A noise source whose noise primitives return their distribution's median.

``uniform`` gives 0.5, so every Laplace draw is exactly 0, and ``coin`` gives
+1.  Structural randomness (shuffles, data sampling) still comes from the
seeded generator, and children are zero-noise sources too.
"""

from privpredict.core import POSITIVE, NoiseSource


class ZeroNoise(NoiseSource):
    def child(self, index: int) -> "ZeroNoise":
        return ZeroNoise(self.seed, self._spawn_key + (int(index),))

    def uniform(self) -> float:
        return 0.5

    def coin(self) -> int:
        return POSITIVE
