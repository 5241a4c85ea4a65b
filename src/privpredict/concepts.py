"""Concept classes and version spaces: evaluation, ERM, restriction by labeled
constraints, and label-pattern counting over fixed query tuples; and the block
ensembles that vote.

Two classes are supported: integer-grid thresholds and finite enumerated
classes.  Version spaces are kept intensionally as constraint lists; only
enumerated classes materialize their hypothesis set.  Halfspace blocks are fit
by ``geometry.argmax_cdepth_blocks`` and vote as a ``HalfspaceEnsemble``.

An ensemble is the k block hypotheses of one refresh.  Each ensemble type has
``vote(x)``, the number of blocks that label x +1; ``votes(points)``, those
counts for many points; ``labels(points)``, the (k x n) array of +/-1 labels;
and ``payload()``, the report's ``final_hypotheses``.
"""

from __future__ import annotations

import bisect
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


Hypothesis = ThresholdHypothesis | EnumeratedHypothesis


class ThresholdBlocks:
    """Fixed 1-d samples laid out once for repeated batched threshold ERM.

    Row i holds block i sorted by floor(x), padded to the longest block.  Only
    integer thresholds are candidates, and x < t exactly when floor(x) < t, so
    floors clipped to [0, size + 1] give every candidate's count unchanged.
    ``cut_err[i, j]`` is block i's error at the cut floor(x_j) + 1, which does
    not depend on the constraints.  Padding is a +1 point at size + 1: it is
    never wrong, and its cut size + 2 is never a candidate.
    """

    def __init__(self, samples, size: int):
        k, width = len(samples), max((len(s) for s in samples), default=0)
        floors = np.full((k, width), np.inf)
        positive = np.ones((k, width), dtype=bool)
        for i, sample in enumerate(samples):
            floors[i, : len(sample)] = sample.points.ravel()  # one coordinate per point
            positive[i, : len(sample)] = sample.labels == POSITIVE
        floors = np.clip(np.floor(floors), 0, size + 1)
        order = np.argsort(floors, axis=1, kind="stable")
        self.floors = np.take_along_axis(floors, order, axis=1)
        self.positive = np.take_along_axis(positive, order, axis=1)
        self.cuts = self.floors.astype(np.int64) + 1
        # below[i, j]: points of block i with x < cut[i, j], i.e. the end of j's run of equal floors
        run_end = np.ones((k, width), dtype=bool)
        run_end[:, :-1] = self.floors[:, 1:] != self.floors[:, :-1]
        ends = np.where(run_end, np.arange(1, width + 1), width)
        below = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        pos_below = np.take_along_axis(
            np.hstack([np.zeros((k, 1), dtype=np.int64), np.cumsum(self.positive, axis=1)]), below, axis=1)
        n_neg = width - np.count_nonzero(self.positive, axis=1)
        # err(t) = #{+1 points < t} + #{-1 points >= t}
        self.cut_err = pos_below + n_neg[:, None] - (below - pos_below)


class ThresholdClass:
    """Thresholds t in {1..size+1} over the integer grid {1..size}.

    Thresholds and cuts are compared as float64, so the grid is capped at
    2**52 points, where every threshold is still exactly representable.
    """

    MAX_SIZE = 2**52

    def __init__(self, size: int):
        if size < 1:
            raise ConfigurationError("grid size must be >= 1")
        if size > self.MAX_SIZE:
            raise CapabilityError(f"threshold grids are limited to 2**52 points, got {size}")
        self.size = int(size)
        self._query_cuts_of: tuple[tuple[Point, ...], list[int]] | None = None

    def _interval(self, constraints: tuple[Constraint, ...]) -> tuple[int, int]:
        lo, hi = 1, self.size + 1
        for (p, lab) in constraints:
            x = math.floor(p[0])
            if lab == POSITIVE:
                hi = min(hi, x)
            else:
                lo = max(lo, x + 1)
        return lo, hi

    def _query_cuts(self, queries) -> list[int]:
        """Sorted distinct cuts floor(q) + 1 of the queries, kept for the last query tuple."""
        queries = tuple(queries)  # no copy for a tuple, so a repeated tuple hits by identity
        cached = self._query_cuts_of
        if cached is None or (cached[0] is not queries and cached[0] != queries):
            floors = np.unique(np.floor(np.fromiter((q[0] for q in queries), float, len(queries))))
            if np.abs(floors).max(initial=0.0) < 2.0**62:  # fits int64; false for nan
                cuts = (floors.astype(np.int64) + 1).tolist()
            else:  # int() is exact beyond int64, and raises on inf and nan
                cuts = [int(f) + 1 for f in floors.tolist()]
            cached = self._query_cuts_of = (queries, cuts)
        return cached[1]

    def erm_blocks(self, constraints: tuple[Constraint, ...], blocks: ThresholdBlocks) -> list[int]:
        """ERM threshold of every block at once.

        Candidates are lo followed by the block's sorted cuts inside (lo, hi];
        cuts outside are replaced by lo, so the first argmin is the smallest
        threshold with the least error.
        """
        lo, hi = self._interval(constraints)
        if lo > hi:
            raise EmptyVersionSpaceError("no threshold satisfies the constraints")
        inside = (blocks.cuts > lo) & (blocks.cuts <= hi)
        k, width = inside.shape
        candidates = np.hstack([np.full((k, 1), lo), np.where(inside, blocks.cuts, lo)])
        err_lo = np.count_nonzero((blocks.floors < lo) == blocks.positive, axis=1)
        errors = np.hstack([err_lo[:, None], np.where(inside, blocks.cut_err, width + 1)])
        best = np.argmin(errors, axis=1)
        return candidates[np.arange(k), best].tolist()

    def erm(self, constraints: tuple[Constraint, ...], sample: LabeledSample) -> ThresholdHypothesis:
        return ThresholdHypothesis(self.erm_blocks(constraints, ThresholdBlocks([sample], self.size))[0])

    def pattern_count(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> int:
        lo, hi = self._interval(constraints)
        if lo > hi:
            return 0
        cuts = self._query_cuts(queries)
        return 1 + bisect.bisect_right(cuts, hi) - bisect.bisect_right(cuts, lo)

    def pattern_set(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> set[tuple[int, ...]]:
        """Explicit label tuples, materialized from one threshold per pattern cell."""
        if len(queries) > 4096:
            raise CapabilityError("explicit pattern sets are materialized only at desk scale")
        lo, hi = self._interval(constraints)
        if lo > hi:
            return set()
        cuts = self._query_cuts(queries)
        reps = [lo] + cuts[bisect.bisect_right(cuts, lo) : bisect.bisect_right(cuts, hi)]
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

    def hypothesis(self, index: int) -> EnumeratedHypothesis:
        return EnumeratedHypothesis(index, self.points, tuple(int(v) for v in self.patterns[index]))

    def erm(self, constraints: tuple[Constraint, ...], sample: LabeledSample) -> EnumeratedHypothesis:
        rows = self._surviving(constraints)
        if len(rows) == 0:
            raise EmptyVersionSpaceError("all enumerated hypotheses are ruled out")
        cols = [self._col(p) for p in sample.points]
        errors = (self.patterns[np.ix_(rows, cols)] != sample.labels).sum(axis=1)
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


class ThresholdEnsemble:
    """Block thresholds in block order; block i votes +1 at x iff x >= thresholds[i]."""

    def __init__(self, thresholds: list):
        self.thresholds = thresholds
        self._sorted = sorted(thresholds)

    def __len__(self) -> int:
        return len(self.thresholds)

    def vote(self, x: Point) -> int:
        return bisect.bisect_right(self._sorted, x[0])

    def votes(self, points) -> np.ndarray:
        xs = np.asarray(points, dtype=float)[:, 0]
        return np.searchsorted(np.array(self._sorted), xs, side="right")

    def labels(self, points) -> np.ndarray:
        xs = np.asarray(points, dtype=float)[:, 0]
        return np.where(xs[None, :] >= np.array(self.thresholds)[:, None], POSITIVE, NEGATIVE)

    def payload(self) -> list[dict]:
        return [{"kind": "threshold", "t": int(t)} for t in self.thresholds]


class HalfspaceEnsemble:
    """Block halfspaces as a (k, d+1) weight matrix W, one row (a, w) per block.

    Block i votes +1 at x iff W[i] @ (x, -1) >= 0, so a zero row votes +1
    everywhere.  The sign at a point on a block's boundary rests on the last
    bits of the product, so every path takes it from the same matrix-vector
    product: many points run as a stack of W @ (x, -1) products
    (``lifted @ W.T`` is a matrix-matrix product and rounds differently).
    ``vote`` calls ``W.dot(lifted)``, the same BLAS matrix-vector product as
    ``W @ lifted`` without the matmul ufunc's dispatch.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    def __len__(self) -> int:
        return len(self.weights)

    def vote(self, x: Point) -> int:
        lifted = np.asarray(tuple(x) + (-1.0,))
        return int(np.count_nonzero(self.weights.dot(lifted) >= 0.0))

    def _positive(self, points) -> np.ndarray:
        """(n, k) mask of the +1 votes at each point."""
        pts = np.asarray(points, dtype=float).reshape(len(points), -1)
        lifted = np.hstack([pts, np.full((len(pts), 1), -1.0)])
        return np.matmul(self.weights, lifted[:, :, None])[:, :, 0] >= 0.0

    def votes(self, points) -> np.ndarray:
        return np.count_nonzero(self._positive(points), axis=1)

    def labels(self, points) -> np.ndarray:
        return np.where(self._positive(points).T, POSITIVE, NEGATIVE)

    def payload(self) -> list[dict]:
        return [{"kind": "halfspace", "weights": row} for row in self.weights.tolist()]


class EnumeratedEnsemble:
    """Rows of an enumerated class's pattern matrix, one per block, in block order."""

    def __init__(self, concept: EnumeratedClass, rows: list[int]):
        self.concept = concept
        self.rows = rows
        self._patterns = concept.patterns[rows]
        self._counts = np.count_nonzero(self._patterns > 0, axis=0).tolist()

    def __len__(self) -> int:
        return len(self.rows)

    def vote(self, x: Point) -> int:
        return self._counts[self.concept._col(x)]

    def votes(self, points) -> np.ndarray:
        return np.array([self.vote(p) for p in points])

    def labels(self, points) -> np.ndarray:
        return self._patterns[:, [self.concept._col(p) for p in points]]

    def payload(self) -> list[dict]:
        return [{"kind": "enumerated", "index": int(i)} for i in self.rows]


Ensemble = ThresholdEnsemble | HalfspaceEnsemble | EnumeratedEnsemble


ConceptClass = ThresholdClass | EnumeratedClass


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

    def erm(self, sample: LabeledSample) -> Hypothesis:
        return self.concept_class.erm(self.constraints, sample)

    def pattern_count(self, queries) -> int:
        return self.concept_class.pattern_count(self.constraints, tuple(queries))

    def pattern_set(self, queries) -> set[tuple[int, ...]]:
        return self.concept_class.pattern_set(self.constraints, tuple(queries))


def load_enumerated_class(path) -> EnumeratedClass:
    """Load an enumerated class from JSON: {"points": [...], "patterns": [[+/-1, ...], ...]}."""
    with open(path) as fh:
        payload = json.load(fh)
    if "points" not in payload or "patterns" not in payload:
        raise ConfigurationError("enumerated class file needs 'points' and 'patterns'")
    points = [(p,) if not isinstance(p, (list, tuple)) else tuple(p) for p in payload["points"]]
    return EnumeratedClass(points, payload["patterns"])
