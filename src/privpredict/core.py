"""Domain types, datasets and the seeded randomness contract shared by all modules."""

from __future__ import annotations

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


class _FirstUse:
    """Attribute computed on first read and then stored on the instance.

    Unlike ``functools.cached_property``, the value is stored with ``setattr``
    rather than through ``__dict__``; on CPython 3.11 touching ``__dict__``
    materializes the instance dictionary, which slows every later attribute
    read of that instance (``NoiseSource.uniform`` reads ``rng`` on each draw).
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        setattr(instance, self.name, value)
        return value


class NoiseSource:
    """Seeded randomness: identical seeds produce identical streams.

    Noise primitives (``uniform``, ``coin``) and structural randomness
    (shuffles, data sampling) draw from one seeded generator.  Instances are
    single-owner: derive one child per concurrent task with ``child``.  The
    generator is built on first use, so a source that only hands out children
    costs no generator of its own.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = tuple(_spawn_key)

    @_FirstUse
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        )

    def child(self, index: int) -> "NoiseSource":
        """Deterministic derived source for trial/worker ``index``."""
        return NoiseSource(self.seed, self._spawn_key + (int(index),))

    def uniform(self) -> float:
        """One uniform draw in (0, 1)."""
        u = float(self.rng.random())
        while u <= 0.0:  # random() can return 0.0; the open interval is required
            u = float(self.rng.random())
        return u

    def coin(self) -> int:
        """Uniform label in {-1, +1}."""
        return POSITIVE if self.rng.random() >= 0.5 else NEGATIVE

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"NoiseSource(seed={self.seed}, spawn_key={self._spawn_key})"


def _check_point(p: Point) -> Point:
    p = tuple(float(c) for c in p)
    if not p or not all(np.isfinite(c) for c in p):
        raise ConfigurationError(f"point must be nonempty and finite, got {p!r}")
    return p


@dataclass(frozen=True)
class LabeledSample:
    """Ordered multiset of (point, label) records sharing one dimension."""

    points: tuple[Point, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ConfigurationError("points and labels must have equal length")
        if len(set(map(len, self.points))) > 1:
            raise ConfigurationError("all points must share one dimension")
        if not set(self.labels) <= set(LABELS):
            raise ConfigurationError("labels must be +1 or -1")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        if not self.points:
            raise UsageError("empty sample has no dimension")
        return len(self.points[0])

    def records(self) -> list[tuple[Point, int]]:
        return list(zip(self.points, self.labels))

    @staticmethod
    def from_records(records) -> "LabeledSample":
        records = list(records)
        return LabeledSample(
            tuple(_check_point(p) for p, _ in records),
            tuple(int(lab) for _, lab in records),
        )


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

    def labels(self, points: list[Point]) -> tuple[int, ...]:
        xs = np.array([p[0] for p in points], dtype=float)
        return tuple(np.where(xs >= self.threshold, POSITIVE, NEGATIVE).tolist())

    def sample_points(self, n: int, noise: NoiseSource) -> list[Point]:
        xs = noise.rng.integers(1, self.size + 1, size=n)
        return [(x,) for x in xs.astype(float).tolist()]


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

    def label(self, p: Point) -> int:
        return POSITIVE if float(np.dot(self.normal, p)) >= self.offset else NEGATIVE

    def labels(self, points: list[Point]) -> tuple[int, ...]:
        return tuple(self.label(p) for p in points)

    def sample_points(self, n: int, noise: NoiseSource) -> list[Point]:
        lo = np.asarray(self.low)
        hi = np.asarray(self.high)
        pts = noise.rng.uniform(lo, hi, size=(n, len(lo)))
        return [tuple(float(c) for c in row) for row in pts]

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

    def labels(self, points: list[Point]) -> tuple[int, ...]:
        return tuple(self.label(p) for p in points)

    def sample_points(self, n: int, noise: NoiseSource) -> list[Point]:
        idx = noise.rng.choice(len(self.atoms), size=n, p=self.probs)
        return [self.atoms[i] for i in idx]


DataDistribution = GridDistribution | BoxDistribution | AtomDistribution


def draw_sample(dist: DataDistribution, n: int, noise: NoiseSource) -> LabeledSample:
    """Draw n i.i.d. records; labels always equal the target concept's evaluation."""
    if n < 1:
        raise ConfigurationError(f"sample size must be >= 1, got {n}")
    pts = dist.sample_points(n, noise)
    return LabeledSample(tuple(pts), dist.labels(pts))


def partition(sample: LabeledSample, k: int, noise: NoiseSource) -> list[LabeledSample]:
    """Uniform random partition into k equal blocks via a seeded index shuffle."""
    n = len(sample)
    if k < 1 or n % k != 0:
        raise ConfigurationError(f"|S|={n} is not divisible into k={k} equal blocks")
    m = n // k
    order = noise.permutation(n)
    blocks = []
    for i in range(k):
        idx = order[i * m : (i + 1) * m]
        blocks.append(
            LabeledSample(
                tuple(sample.points[j] for j in idx),
                tuple(sample.labels[j] for j in idx),
            )
        )
    return blocks


def empirical_error(hypothesis, sample: LabeledSample) -> float:
    """Exact misclassified fraction of ``hypothesis`` (anything with ``evaluate(point)``)."""
    if len(sample) == 0:
        raise UsageError("empirical error is undefined on an empty sample")
    wrong = sum(1 for p, lab in zip(sample.points, sample.labels) if hypothesis.evaluate(p) != lab)
    return wrong / len(sample)
