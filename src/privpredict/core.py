"""Domain types, datasets and the seeded randomness contract shared by all modules."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Point = tuple[float, ...]

POSITIVE = 1
NEGATIVE = -1
LABELS = (NEGATIVE, POSITIVE)


class ConfigurationError(ValueError):
    """A descriptor or parameter set is invalid before any work starts."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class UsageError(RuntimeError):
    """An operation was called in a state or with inputs it does not support."""


class CapabilityError(RuntimeError):
    """The requested computation is outside the supported desk-scale regime."""


class EmptyVersionSpaceError(RuntimeError):
    """No hypothesis satisfies the accumulated constraints."""


class PlanningError(ConfigurationError):
    """A sample-size plan cannot satisfy its constraints; the message names the binding one."""


class StreamExhausted(RuntimeError):
    """A fixed query stream has no further points."""


FIRST_BLOCK = 4  # doubles in a source's first noise block
BLOCK_CAP = 256  # blocks double in size up to this many doubles


class NoiseSource:
    """Seeded randomness: identical seeds produce identical streams.

    Noise primitives (``uniform``, ``coin``, ``doubles``) and structural
    randomness (shuffles, data sampling) draw from one seeded generator.
    Instances are single-owner: derive one child per concurrent task with
    ``child``.  The generator is built on first use, so a source that only
    hands out children costs no generator of its own.

    Draw contract: structural draws (``rng``, ``permutation``) come first,
    noise draws after them.  Noise draws are taken from blocks of doubles
    drawn ahead with one ``Generator.random(n)`` call each; the blocks start
    at ``FIRST_BLOCK`` doubles and double up to ``BLOCK_CAP``.  They hand out
    the very doubles that one scalar ``random()`` per draw would, but leave the
    generator ahead of the draws handed out, so a structural draw after the
    first noise draw raises ``UsageError``.  ``doubles`` is a noise draw under
    this contract too.
    """

    # class-level defaults, so that __init__ and child do no work
    _rng: np.random.Generator | None = None  # built on first use
    _draws = iter(())  # the current block; the shared empty one until the first noise draw
    _block = 0  # size of the current block, 0 before the first noise draw

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
            )
        return self._rng

    @property
    def rng(self) -> np.random.Generator:
        """The generator, for structural draws made before any noise draw."""
        if self._block:
            raise UsageError(
                "structural draw after a noise draw: the generator is ahead of the "
                "noise handed out, so draw structure first"
            )
        return self._generator()

    def child(self, index: int) -> "NoiseSource":
        """Deterministic derived source for trial/worker ``index``."""
        return NoiseSource(self.seed, self._spawn_key + (int(index),))

    def _refill(self) -> float:
        """Draw the next block and return its first double."""
        size = min(2 * self._block, BLOCK_CAP) or FIRST_BLOCK
        self._block = size
        self._draws = draws = iter(self._generator().random(size).tolist())
        return next(draws)

    def _double(self) -> float:
        u = next(self._draws, None)
        return self._refill() if u is None else u

    def uniform(self) -> float:
        """One uniform draw in (0, 1)."""
        # next() gives None at the end of a block; both None and a 0.0 draw
        # take the slow path
        return next(self._draws, None) or self._positive()

    def _positive(self) -> float:
        u = self._double()
        while u <= 0.0:  # random() can return 0.0; the open interval is required
            u = self._double()
        return u

    def coin(self) -> int:
        """Uniform label in {-1, +1}."""
        return POSITIVE if self._double() >= 0.5 else NEGATIVE

    def doubles(self, n: int) -> list[float]:
        """The next ``n`` doubles in [0, 1), as ``Generator.random(n)`` gives
        them: unlike ``uniform``, a 0.0 is handed out, not rejected."""
        out = list(itertools.islice(self._draws, n))
        while len(out) < n:
            out.append(self._refill())
            out += itertools.islice(self._draws, n - len(out))
        return out

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoiseSource(seed={self.seed}, spawn_key={self._spawn_key})"


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """Ordered multiset of (point, label) records sharing one dimension.

    ``points`` is a read-only (n, d) float64 array and ``labels`` a read-only
    (n,) int8 array of +1/-1; arrays, lists or tuples may be passed in.  Every
    point is finite and has d >= 1 coordinates.  Samples compare and hash by
    identity, since arrays are unhashable.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        try:
            points = np.array(self.points, dtype=np.float64)  # a private copy
            labels = np.asarray(self.labels)
        except (TypeError, ValueError) as exc:  # ragged or not numeric
            raise ConfigurationError(f"points must be numbers sharing one dimension: {exc}") from None
        if points.shape == (0,):
            points = points.reshape(0, 0)
        if points.ndim != 2 or labels.ndim != 1 or len(points) != len(labels):
            raise ConfigurationError("points must be an (n, d) array with one label per point")
        if len(points) and not points.shape[1]:
            raise ConfigurationError("points must have at least one coordinate")
        if not np.isfinite(points).all():
            raise ConfigurationError("points must be finite")
        # checked before the int8 cast, which would truncate 1.5 to 1
        if labels.dtype.kind not in "iuf" or not (abs(labels) == 1).all():
            raise ConfigurationError("labels must be +1 or -1")
        labels = labels.astype(np.int8)
        points.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        if not len(self):
            raise UsageError("empty sample has no dimension")
        return self.points.shape[1]

    def records(self) -> list[tuple[Point, int]]:
        """(point tuple, int label) pairs, in Python floats and ints."""
        return list(zip(map(tuple, self.points.tolist()), self.labels.tolist()))

    @staticmethod
    def from_records(records) -> "LabeledSample":
        records = list(records)
        return LabeledSample([p for p, _ in records], [lab for _, lab in records])


@dataclass(frozen=True)
class GridDistribution:
    """Uniform over the integer grid {1..size} in one dimension, labeled by a threshold.

    The target concept labels x as +1 exactly when x >= threshold.
    """

    size: int = 2**20
    threshold: int = 2**19

    def __post_init__(self):
        if self.size < 1 or not 1 <= self.threshold <= self.size + 1:
            raise ConfigurationError("grid needs size >= 1 and threshold in [1, size+1]")

    def label(self, p: Point) -> int:
        return POSITIVE if p[0] >= self.threshold else NEGATIVE

    def labels(self, points) -> np.ndarray:
        return np.where(np.asarray(points, dtype=float)[:, 0] >= self.threshold, POSITIVE, NEGATIVE)

    def sample_points(self, n: int, noise: NoiseSource) -> np.ndarray:
        return noise.rng.integers(1, self.size + 1, size=(n, 1)).astype(float)


@dataclass(frozen=True)
class BoxDistribution:
    """Uniform over an axis-aligned box, labeled by a halfspace x -> sign(<normal, x> - offset)."""

    low: tuple[float, ...]
    high: tuple[float, ...]
    normal: tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self):
        if len(self.low) != len(self.high) or len(self.low) != len(self.normal):
            raise ConfigurationError("box bounds and target normal must share a dimension")
        if not all(lo < hi for lo, hi in zip(self.low, self.high)):
            raise ConfigurationError("box must have positive volume")
        if not any(c != 0.0 for c in self.normal):
            raise ConfigurationError("target normal must be nonzero")
        # converted once, so that each call converts only the query points
        object.__setattr__(self, "_normal", np.asarray(self.normal, dtype=float))

    def label(self, p: Point) -> int:
        """+1 iff np.dot(normal, p) >= offset, as numpy rounds the product."""
        return int(self.labels([p])[0])

    def labels(self, points) -> np.ndarray:
        """``label`` of every row: a stack of (1 x d) @ (d x 1) products runs
        the kernel of ``np.dot(normal, p)``, so it rounds each one the same."""
        pts = np.asarray(points, dtype=float)
        products = np.matmul(pts[:, None, :], self._normal[:, None])[:, 0, 0]
        return np.where(products >= self.offset, POSITIVE, NEGATIVE)

    def sample_points(self, n: int, noise: NoiseSource) -> np.ndarray:
        return noise.rng.uniform(np.asarray(self.low), np.asarray(self.high), size=(n, len(self.low)))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.high) - np.asarray(self.low)))


@dataclass(frozen=True)
class AtomDistribution:
    """Mixture of point masses with explicit (realizable) target labels."""

    atoms: tuple[Point, ...]
    probs: tuple[float, ...]
    atom_labels: tuple[int, ...]

    def __post_init__(self):
        if not self.atoms or len(self.atoms) != len(self.probs) or len(self.atoms) != len(self.atom_labels):
            raise ConfigurationError("atoms, probs and atom_labels must be nonempty and aligned")
        if abs(sum(self.probs) - 1.0) > 1e-9 or any(p < 0 for p in self.probs):
            raise ConfigurationError("probs must be a probability vector")
        if any(lab not in LABELS for lab in self.atom_labels):
            raise ConfigurationError("atom labels must be +1 or -1")

    def label(self, p: Point) -> int:
        for atom, lab in zip(self.atoms, self.atom_labels):
            if atom == p:
                return lab
        raise UsageError(f"point {p!r} is not an atom of this distribution")

    def labels(self, points) -> np.ndarray:
        return np.array([self.label(p) for p in map(tuple, np.asarray(points, dtype=float).tolist())])

    def sample_points(self, n: int, noise: NoiseSource) -> np.ndarray:
        idx = noise.rng.choice(len(self.atoms), size=n, p=self.probs)
        return np.asarray(self.atoms, dtype=float)[idx]


DataDistribution = GridDistribution | BoxDistribution | AtomDistribution


def draw_sample(dist: DataDistribution, n: int, noise: NoiseSource) -> LabeledSample:
    """Draw n i.i.d. records; labels always equal the target concept's evaluation."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    pts = dist.sample_points(n, noise)
    return LabeledSample(pts, dist.labels(pts))


def partition(sample: LabeledSample, k: int, noise: NoiseSource) -> np.ndarray:
    """Uniform random partition into k equal blocks via a seeded index shuffle:
    the (k, n / k) index matrix whose row i is block i, so ``sample.points[order]``
    gathers every block at once from the already-validated sample."""
    n = len(sample)
    if k < 1 or n % k != 0:
        raise ConfigurationError(f"|S|={n} is not divisible into k={k} equal blocks")
    return noise.permutation(n).reshape(k, n // k)


def empirical_error(hypothesis, sample: LabeledSample) -> float:
    """Exact misclassified fraction of ``hypothesis`` (anything with ``evaluate(point)``).
    No run calls it; it stays because the benchmark's tracer wraps it by name."""
    if len(sample) == 0:
        raise UsageError("empirical error is undefined on an empty sample")
    wrong = sum(1 for p, lab in zip(sample.points, sample.labels) if hypothesis.evaluate(p) != lab)
    return wrong / len(sample)
