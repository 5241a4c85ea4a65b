"""Concept classes and version spaces: evaluation, ERM, restriction by labeled
constraints, and label-pattern counting over fixed query tuples.

Three families are supported: integer-grid thresholds, finite enumerated
classes, and halfspaces.  Version spaces are kept intensionally as constraint
lists with class-specific membership tests; only enumerated classes
materialize their hypothesis set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    CapabilityError,
    ConfigurationError,
    EmptyVersionSpaceError,
    LabeledSample,
    NEGATIVE,
    POSITIVE,
    Point,
    UsageError,
)

Constraint = tuple[Point, int]


@dataclass(frozen=True)
class ThresholdHypothesis:
    """x -> +1 iff x >= threshold, over one-dimensional points."""

    threshold: int

    def evaluate(self, p: Point) -> int:
        if len(p) != 1:
            raise UsageError("threshold hypotheses act on 1-dimensional points")
        return POSITIVE if p[0] >= self.threshold else NEGATIVE


@dataclass(frozen=True)
class EnumeratedHypothesis:
    """One row of an enumerated class's pattern matrix, defined on its point set."""

    index: int
    points: tuple[Point, ...]
    row: tuple[int, ...]

    def evaluate(self, p: Point) -> int:
        try:
            return self.row[self.points.index(tuple(float(c) for c in p))]
        except ValueError:
            raise UsageError(f"point {p!r} is outside the enumerated class's domain") from None


@dataclass(frozen=True)
class HalfspaceHypothesis:
    """Sign of <a, x> - w for weights (a_1..a_d, w); the bias is the last coordinate.

    Weights are unit-normalized at construction (halfspace signs are scale
    invariant).  The all-zero vector is kept as the documented degenerate
    hypothesis that evaluates +1 everywhere (0 >= 0).
    """

    weights: tuple[float, ...]

    @staticmethod
    def from_vector(vec) -> "HalfspaceHypothesis":
        v = np.asarray(vec, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm > 0:
            v = v / norm
        return HalfspaceHypothesis(tuple(float(c) for c in v))

    @property
    def is_degenerate(self) -> bool:
        return all(c == 0.0 for c in self.weights)

    def evaluate(self, p: Point) -> int:
        if len(p) != len(self.weights) - 1:
            raise UsageError("halfspace weight dimension does not match the point")
        value = float(np.dot(self.weights[:-1], p)) - self.weights[-1]
        return POSITIVE if value >= 0.0 else NEGATIVE


Hypothesis = ThresholdHypothesis | EnumeratedHypothesis | HalfspaceHypothesis


def evaluate_many(hypotheses, points) -> np.ndarray:
    """(hypotheses x points) array of +/-1 labels, entry for entry ``h.evaluate(p)``.

    Thresholds compare ``x >= t``.  Halfspaces take each <a, x> as a stacked
    (1 x d) @ (d x 1) matmul, which runs the same dot kernel as ``evaluate``
    (a ``points @ a`` matrix-vector product rounds differently).  Any other
    mix of hypotheses is evaluated one point at a time.
    """
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    if all(isinstance(h, ThresholdHypothesis) for h in hypotheses):
        if pts.shape[1] != 1:
            raise UsageError("threshold hypotheses act on 1-dimensional points")
        thresholds = np.array([h.threshold for h in hypotheses])
        positive = pts[None, :, 0] >= thresholds[:, None]
    elif all(isinstance(h, HalfspaceHypothesis) for h in hypotheses):
        weights = np.array([h.weights for h in hypotheses])
        if pts.shape[1] != weights.shape[1] - 1:
            raise UsageError("halfspace weight dimension does not match the points")
        dots = np.matmul(weights[:, None, None, :-1], pts[None, :, :, None])[:, :, 0, 0]
        positive = dots - weights[:, -1:] >= 0.0
    else:
        return np.array([[h.evaluate(p) for p in points] for h in hypotheses], dtype=int)
    return np.where(positive, POSITIVE, NEGATIVE)


class ThresholdClass:
    """Thresholds t in {1..size+1} over the integer grid {1..size}."""

    def __init__(self, size: int):
        if size < 1:
            raise ConfigurationError("grid size must be >= 1")
        self.size = int(size)

    def _interval(self, constraints: tuple[Constraint, ...]) -> tuple[int, int]:
        lo, hi = 1, self.size + 1
        for (p, lab) in constraints:
            x = math.floor(p[0])
            if lab == POSITIVE:
                hi = min(hi, x)
            else:
                lo = max(lo, x + 1)
        return lo, hi

    def is_empty(self, constraints: tuple[Constraint, ...]) -> bool:
        lo, hi = self._interval(constraints)
        return lo > hi

    def contains(self, h: ThresholdHypothesis, constraints: tuple[Constraint, ...]) -> bool:
        lo, hi = self._interval(constraints)
        return lo <= h.threshold <= hi

    def erm(self, constraints: tuple[Constraint, ...], sample: LabeledSample) -> ThresholdHypothesis:
        lo, hi = self._interval(constraints)
        if lo > hi:
            raise EmptyVersionSpaceError("no threshold satisfies the constraints")
        pos = np.sort([p[0] for p, lab in zip(sample.points, sample.labels) if lab == POSITIVE])
        neg = np.sort([p[0] for p, lab in zip(sample.points, sample.labels) if lab == NEGATIVE])
        cuts = sorted({int(math.floor(p[0])) + 1 for p in sample.points})
        candidates = [lo] + [c for c in cuts if lo < c <= hi]
        best_t, best_err = None, None
        for t in candidates:
            # err(t) = #{+1 points < t} + #{-1 points >= t}
            err = int(np.searchsorted(pos, t, side="left")) + len(neg) - int(
                np.searchsorted(neg, t, side="left")
            )
            if best_err is None or err < best_err:
                best_t, best_err = t, err
        return ThresholdHypothesis(int(best_t))

    def pattern_count(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> int:
        lo, hi = self._interval(constraints)
        if lo > hi:
            return 0
        cuts = {int(math.floor(q[0])) + 1 for q in queries}
        return 1 + sum(1 for c in cuts if lo < c <= hi)

    def pattern_set(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> set[tuple[int, ...]]:
        """Explicit label tuples, materialized from one threshold per pattern cell."""
        if len(queries) > 4096:
            raise CapabilityError("explicit pattern sets are materialized only at desk scale")
        lo, hi = self._interval(constraints)
        if lo > hi:
            return set()
        cuts = {int(math.floor(q[0])) + 1 for q in queries}
        reps = [lo] + sorted(c for c in cuts if lo < c <= hi)
        return {
            tuple(POSITIVE if q[0] >= t else NEGATIVE for q in queries) for t in reps
        }

    def vc_dimension(self) -> int:
        return 1

    def hypotheses(self, constraints: tuple[Constraint, ...] = ()):
        lo, hi = self._interval(constraints)
        return [ThresholdHypothesis(t) for t in range(lo, hi + 1)]


class EnumeratedClass:
    """Finite class materialized as a +/-1 pattern matrix over a fixed point set."""

    def __init__(self, points, patterns):
        self.points = tuple(tuple(float(c) for c in p) for p in points)
        self.patterns = np.asarray(patterns, dtype=int)
        if self.patterns.ndim != 2 or self.patterns.shape[1] != len(self.points):
            raise ConfigurationError("patterns must be a matrix with one column per point")
        if not np.all(np.isin(self.patterns, (-1, 1))):
            raise ConfigurationError("patterns must contain only +1 and -1")
        if len({tuple(r) for r in self.patterns.tolist()}) != len(self.patterns):
            raise ConfigurationError("pattern rows must be distinct")
        self._index = {p: i for i, p in enumerate(self.points)}

    def _col(self, p: Point) -> int:
        key = tuple(float(c) for c in p)
        if key not in self._index:
            raise UsageError(f"point {p!r} is outside the enumerated class's domain")
        return self._index[key]

    def _surviving(self, constraints: tuple[Constraint, ...]) -> np.ndarray:
        mask = np.ones(len(self.patterns), dtype=bool)
        for (p, lab) in constraints:
            mask &= self.patterns[:, self._col(p)] == lab
        return np.flatnonzero(mask)

    def is_empty(self, constraints: tuple[Constraint, ...]) -> bool:
        return len(self._surviving(constraints)) == 0

    def contains(self, h: EnumeratedHypothesis, constraints: tuple[Constraint, ...]) -> bool:
        return all(h.evaluate(p) == lab for p, lab in constraints)

    def hypothesis(self, index: int) -> EnumeratedHypothesis:
        return EnumeratedHypothesis(index, self.points, tuple(int(v) for v in self.patterns[index]))

    def erm(self, constraints: tuple[Constraint, ...], sample: LabeledSample) -> EnumeratedHypothesis:
        rows = self._surviving(constraints)
        if len(rows) == 0:
            raise EmptyVersionSpaceError("all enumerated hypotheses are ruled out")
        cols = [self._col(p) for p in sample.points]
        labels = np.asarray(sample.labels)
        errors = (self.patterns[np.ix_(rows, cols)] != labels[None, :]).sum(axis=1)
        return self.hypothesis(int(rows[int(np.argmin(errors))]))  # argmin keeps lowest index on ties

    def pattern_count(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> int:
        rows = self._surviving(constraints)
        if len(rows) == 0:
            return 0
        cols = [self._col(p) for p in queries]
        sub = self.patterns[np.ix_(rows, cols)]
        return len(np.unique(sub, axis=0))

    def pattern_set(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> set[tuple[int, ...]]:
        rows = self._surviving(constraints)
        cols = [self._col(p) for p in queries]
        return {tuple(int(v) for v in row) for row in self.patterns[np.ix_(rows, cols)]}

    def vc_dimension(self) -> int:
        n_points = len(self.points)
        cap = min(n_points, int(math.log2(len(self.patterns))) + 1)
        best = 0
        for size in range(1, cap + 1):
            shattered = False
            for subset in combinations(range(n_points), size):
                sub = self.patterns[:, subset]
                if len(np.unique(sub, axis=0)) == 2**size:
                    shattered = True
                    break
            if shattered:
                best = size
            else:
                break
        return best

    def hypotheses(self, constraints: tuple[Constraint, ...] = ()):
        return [self.hypothesis(int(i)) for i in self._surviving(constraints)]


class HalfspaceClass:
    """Halfspaces over R^d, parameterized by weight vectors in R^{d+1}."""

    def __init__(self, d: int):
        if d < 1:
            raise ConfigurationError("halfspace dimension must be >= 1")
        self.d = int(d)

    def vc_dimension(self) -> int:
        # Analytic value for d-dimensional halfspaces with bias; no search.
        return self.d + 1

    def contains(self, h: HalfspaceHypothesis, constraints: tuple[Constraint, ...]) -> bool:
        return all(h.evaluate(p) == lab for p, lab in constraints)

    def is_empty(self, constraints: tuple[Constraint, ...]) -> bool:
        if not constraints:
            return False
        try:
            self.erm(constraints, LabeledSample((constraints[0][0],), (constraints[0][1],)))
            return False
        except EmptyVersionSpaceError:
            return True

    def erm(self, constraints: tuple[Constraint, ...], sample: LabeledSample) -> HalfspaceHypothesis:
        """Desk-scale ERM over the consistent subclass via arrangement candidates.

        Candidates come from the boundary arrangement of all involved
        constraints plus a deterministic sphere sample, each also nudged off its
        tight boundaries into the cell it mostly satisfies (arrangement vertices
        sit exactly where the sign convention flips).  Exactness is up to
        candidate resolution, which the suite cross-checks against grid oracles
        at this scale.
        """
        from . import geometry

        normals = [geometry.to_constraint(p, lab) for p, lab in sample.records()]
        must = [geometry.to_constraint(p, lab) for p, lab in constraints]
        profile = geometry.DepthProfile(np.asarray(normals + must, dtype=float))
        space = geometry.FeasibleSubspace.full(self.d + 1)
        raw = geometry.arrangement_candidates(profile, space)
        nudged = []
        for cand in raw:
            strict = profile.normals[profile.normals @ cand > 1e-9]
            if len(strict):
                pull = strict.sum(axis=0)
                norm = float(np.linalg.norm(pull))
                if norm > 0:
                    nudged.append(cand + 1e-6 * pull / norm)
        candidates = list(raw) + nudged
        lifted = np.hstack([np.array(sample.points), -np.ones((len(sample), 1))])
        labels = np.asarray(sample.labels)
        best = None
        for cand in candidates:
            h = HalfspaceHypothesis.from_vector(cand)
            if not all(h.evaluate(p) == lab for p, lab in constraints):
                continue
            predictions = np.where(lifted @ np.asarray(h.weights) >= 0.0, 1, -1)
            wrong = int(np.count_nonzero(predictions != labels))
            key = (wrong, tuple(round(float(c), 9) for c in h.weights))
            if best is None or key < best[0]:
                best = (key, h)
        if best is None:
            raise EmptyVersionSpaceError("no candidate hypothesis satisfies the constraints")
        return best[1]

    def pattern_count(self, constraints, queries) -> int:
        raise CapabilityError(
            "label-pattern counting over continuous halfspaces is unsupported; "
            "use thresholds or an enumerated class"
        )


ConceptClass = ThresholdClass | EnumeratedClass | HalfspaceClass


@dataclass(frozen=True)
class VersionSpace:
    """A concept class restricted by an ordered list of (point, label) constraints."""

    concept_class: ConceptClass
    constraints: tuple[Constraint, ...] = ()

    def restrict(self, x: Point, lab: int) -> "VersionSpace":
        x = tuple(float(c) for c in x)
        return VersionSpace(self.concept_class, self.constraints + ((x, int(lab)),))

    def drop_newest(self) -> "VersionSpace":
        return VersionSpace(self.concept_class, self.constraints[:-1])

    def is_empty(self) -> bool:
        return self.concept_class.is_empty(self.constraints)

    def contains(self, h: Hypothesis) -> bool:
        return self.concept_class.contains(h, self.constraints)

    def erm(self, sample: LabeledSample) -> Hypothesis:
        return self.concept_class.erm(self.constraints, sample)

    def pattern_count(self, queries: list[Point]) -> int:
        return self.concept_class.pattern_count(self.constraints, list(queries))

    def pattern_set(self, queries: list[Point]) -> set[tuple[int, ...]]:
        return self.concept_class.pattern_set(self.constraints, list(queries))


def vc_dimension(concept_class: ConceptClass) -> int:
    return concept_class.vc_dimension()


def load_enumerated_class(path) -> EnumeratedClass:
    """Load an enumerated class from JSON: {"points": [...], "patterns": [[+/-1, ...], ...]}."""
    with open(path) as fh:
        payload = json.load(fh)
    if "points" not in payload or "patterns" not in payload:
        raise ConfigurationError("enumerated class file needs 'points' and 'patterns'")
    points = [(p,) if not isinstance(p, (list, tuple)) else tuple(p) for p in payload["points"]]
    return EnumeratedClass(points, payload["patterns"])
