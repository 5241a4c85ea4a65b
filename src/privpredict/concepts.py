"""Concept classes, version spaces and the block ensembles that vote.

Two classes are supported: integer-grid thresholds and finite enumerated
classes.  A version space is a class plus ordered (point, label) constraints.
Halfspace blocks are fit by ``geometry.argmax_cdepth_blocks``.

Hypotheses exist only as ensemble rows.  Every class fits all k blocks in one
batched ERM: ``blocks(points, labels)`` lays out (k, m) labels and m points
per block once, ``erm_blocks(constraints, layout)`` returns one int per block
(a threshold, or a pattern row), and ``ensemble`` wraps those ints.

An ensemble is the k block fits of one refresh.  Each ensemble type has
``vote(x)``, the number of blocks that label x +1; ``votes(points)``, those
counts for many points; ``labels(points)``, the (k x n) array of +/-1 labels;
and ``payload()``, the report's ``final_hypotheses``.
"""

from __future__ import annotations

import bisect
import json
import math
import struct
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


class ThresholdBlocks:
    """k equal-size 1-d blocks laid out once for repeated batched threshold ERM.

    Row i holds block i sorted by floor(x).  Only integer thresholds are
    candidates, and x < t exactly when floor(x) < t, so floors clipped to
    [0, size + 1] give every candidate's count unchanged.  ``cut_err[i, j]`` is
    block i's error at the cut floor(x_j) + 1, which does not depend on the
    constraints.
    """

    def __init__(self, points: np.ndarray, labels: np.ndarray, size: int):
        k, m = labels.shape
        floors = np.clip(np.floor(points.reshape(labels.shape)), 0, size + 1)  # one coordinate per point
        order = np.argsort(floors, axis=1, kind="stable")
        self.floors = np.take_along_axis(floors, order, axis=1)
        self.positive = np.take_along_axis(labels == POSITIVE, order, axis=1)
        self.cuts = self.floors.astype(np.int64) + 1
        # below[i, j]: points of block i with x < cut[i, j], i.e. the end of j's run of equal floors
        run_end = np.ones((k, m), dtype=bool)
        run_end[:, :-1] = self.floors[:, 1:] != self.floors[:, :-1]
        ends = np.where(run_end, np.arange(1, m + 1), m)
        below = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        pos_below = np.take_along_axis(
            np.hstack([np.zeros((k, 1), dtype=np.int64), np.cumsum(self.positive, axis=1)]), below, axis=1)
        n_neg = m - np.count_nonzero(self.positive, axis=1)
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

    def blocks(self, points: np.ndarray, labels: np.ndarray) -> ThresholdBlocks:
        return ThresholdBlocks(points, labels, self.size)

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
        k, m = inside.shape
        candidates = np.hstack([np.full((k, 1), lo), np.where(inside, blocks.cuts, lo)])
        err_lo = np.count_nonzero((blocks.floors < lo) == blocks.positive, axis=1)
        errors = np.hstack([err_lo[:, None], np.where(inside, blocks.cut_err, m + 1)])
        best = np.argmin(errors, axis=1)
        return candidates[np.arange(k), best].tolist()

    def ensemble(self, thresholds: list[int]) -> "ThresholdEnsemble":
        return ThresholdEnsemble(thresholds)

    def pattern_count(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> int:
        lo, hi = self._interval(constraints)
        if lo > hi:
            return 0
        cuts = self._query_cuts(queries)
        return 1 + bisect.bisect_right(cuts, hi) - bisect.bisect_right(cuts, lo)

    def vc_dimension(self) -> int:
        return 1


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

    def blocks(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The (points x k) matrix S of k blocks: S[c, i] sums block i's labels at column c."""
        k, m = labels.shape
        cols = [self._col(p) for p in points.reshape(k * m, points.shape[-1]).tolist()]
        sums = np.zeros((len(self.points), k), dtype=np.int64)
        np.add.at(sums, (cols, np.repeat(np.arange(k), m)), labels.ravel())
        return sums

    def erm_blocks(self, constraints: tuple[Constraint, ...], sums: np.ndarray) -> list[int]:
        """ERM row of every block at once.

        A row's agreement with block i is ``patterns[row] @ S[:, i]`` = m - 2 * error,
        so the first row of greatest agreement is the lowest-index least-error row.
        """
        rows = self._surviving(constraints)
        if len(rows) == 0:
            raise EmptyVersionSpaceError("every pattern row is ruled out")
        return rows[np.argmax(self.patterns[rows] @ sums, axis=0)].tolist()

    def ensemble(self, rows: list[int]) -> "EnumeratedEnsemble":
        return EnumeratedEnsemble(self, rows)

    def pattern_count(self, constraints: tuple[Constraint, ...], queries: list[Point]) -> int:
        rows = self._surviving(constraints)
        if len(rows) == 0:
            return 0
        cols = [self._col(p) for p in queries]
        sub = self.patterns[np.ix_(rows, cols)]
        return len(np.unique(sub, axis=0))

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


class ThresholdEnsemble:
    """Block thresholds in block order; block i votes +1 at x iff x >= thresholds[i].

    ``vote`` bisects the thresholds as sorted floats: CPython compares a float
    query with a float about twice as fast as with an int.  The conversion is
    exact for |t| < 2**53, which covers every threshold of a ``ThresholdClass``;
    a larger |t| raises ``CapabilityError`` rather than round.
    """

    def __init__(self, thresholds: list):
        if thresholds and max(map(abs, thresholds)) >= 2**53:
            raise CapabilityError("ensemble thresholds are limited to |t| < 2**53")
        self.thresholds = thresholds
        self._sorted = sorted(map(float, thresholds))

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

    ``vote`` allocates nothing and converts nothing but x's coordinates.  The
    (d+1) lifted vector is a float64 view of a bytearray whose last entry stays
    -1; a ``struct.Struct(f"{d}d").pack_into``, bound once per ensemble,
    writes x's coordinates into it as the C doubles that numpy's slice
    assignment stores, without numpy's sequence discovery.  A wrong-length x
    raises ``ValueError``, as that assignment did.  ``W.dot(lifted,
    out=product)`` runs the same BLAS matrix-vector product as ``W @ lifted``
    (without the matmul ufunc's dispatch) and only skips allocating its
    result, so the bits do not change.  The product is compared with a kept
    (k,) zero vector, the value the scalar 0.0 broadcasts to, so no scalar is
    converted per vote.  The mask is a view of a bytearray, one 0 or 1 byte per
    block, so ``bytearray.count`` counts it without numpy's dispatch.  The
    buffers make an instance single-owner: two threads must not vote on one
    ensemble at once.  Two ensembles share no buffer.
    """

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        k, width = weights.shape
        self._lifted_bytes = bytearray(8 * width)
        self._lifted = np.frombuffer(self._lifted_bytes, dtype=np.float64)
        self._lifted[-1] = -1.0
        self._pack = struct.Struct(f"{width - 1}d").pack_into
        self._product = np.empty(k)
        self._zeros = np.zeros(k)
        self._mask_bytes = bytearray(k)
        self._mask = np.frombuffer(self._mask_bytes, dtype=bool)

    def __len__(self) -> int:
        return len(self.weights)

    def vote(self, x: Point) -> int:
        try:
            self._pack(self._lifted_bytes, 0, *x)
        except struct.error as exc:
            raise ValueError(f"cannot vote at {x!r}: {exc}") from None
        np.greater_equal(self.weights.dot(self._lifted, out=self._product), self._zeros,
                         out=self._mask)
        return self._mask_bytes.count(1)

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

    def erm(self, sample: LabeledSample) -> int:
        """The ERM threshold or row of one sample, as ``erm_blocks`` fits a block."""
        cls = self.concept_class
        return cls.erm_blocks(self.constraints, cls.blocks(sample.points, sample.labels[None]))[0]

    def pattern_count(self, queries) -> int:
        return self.concept_class.pattern_count(self.constraints, tuple(queries))


def load_enumerated_class(path) -> EnumeratedClass:
    """Load an enumerated class from JSON: {"points": [...], "patterns": [[+/-1, ...], ...]}."""
    with open(path) as fh:
        payload = json.load(fh)
    if "points" not in payload or "patterns" not in payload:
        raise ConfigurationError("enumerated class file needs 'points' and 'patterns'")
    points = [(p,) if not isinstance(p, (list, tuple)) else tuple(p) for p in payload["points"]]
    return EnumeratedClass(points, payload["patterns"])
