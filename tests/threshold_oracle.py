"""Scalar reference for the threshold ERM, pattern counting, the query cuts
and the van der Corput stream.

These are the per-point loops that ``ThresholdClass.erm``,
``ThresholdClass.pattern_count``, ``ThresholdClass._query_cuts`` and
``adversaries.van_der_corput_queries`` used before they were batched, kept as
the oracle: the batched code must return the same integer thresholds, counts,
cuts and point lists.
"""

from __future__ import annotations

import math

import numpy as np

from privpredict.concepts import ThresholdClass
from privpredict.core import NEGATIVE, POSITIVE, ConfigurationError, EmptyVersionSpaceError


def erm(concept: ThresholdClass, constraints, sample) -> int:
    """Scan lo and every cut in (lo, hi]; the first strictly smaller error wins."""
    lo, hi = concept._interval(constraints)
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
    return int(best_t)


def pattern_count(concept: ThresholdClass, constraints, queries) -> int:
    lo, hi = concept._interval(constraints)
    if lo > hi:
        return 0
    cuts = {int(math.floor(q[0])) + 1 for q in queries}
    return 1 + sum(1 for c in cuts if lo < c <= hi)


def query_cuts(queries) -> list:
    """Sorted distinct cuts floor(q) + 1, one Python int per distinct floor."""
    floors = np.unique(np.floor([q[0] for q in queries])).tolist()
    return [int(f) + 1 for f in floors]


def van_der_corput_queries(count: int, grid_size: int) -> list:
    if count < 1 or grid_size < 2:
        raise ConfigurationError("need count >= 1 and grid_size >= 2")
    bits = max(1, (grid_size - 1).bit_length())
    points = []
    j = 0
    while len(points) < count:
        rev = int(format(j % (2**bits), f"0{bits}b")[::-1], 2)
        x = 1 + (rev * grid_size) // (2**bits)
        if x <= grid_size:
            points.append((float(x),))
        j += 1
    return points
