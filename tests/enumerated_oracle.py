"""Scalar reference for enumerated classes: the per-block ERM, the survivor
list, the explicit pattern set and one row as a scalar hypothesis.

``erm`` is the loop ``EnumeratedClass.erm`` ran on one block at a time before
``EnumeratedClass.erm_blocks`` fitted every block in one product: the batched
fit must return the same row for every block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from privpredict.concepts import EnumeratedClass
from privpredict.core import EmptyVersionSpaceError, UsageError


@dataclass(frozen=True)
class EnumeratedHypothesis:
    """One row of an enumerated class's pattern matrix, defined on its point set."""

    index: int
    points: tuple
    row: tuple[int, ...]

    def evaluate(self, p) -> int:
        try:
            return self.row[self.points.index(tuple(float(c) for c in p))]
        except ValueError:
            raise UsageError(f"point {p!r} is outside the enumerated class's domain") from None


def hypothesis(concept: EnumeratedClass, index: int) -> EnumeratedHypothesis:
    return EnumeratedHypothesis(index, concept.points, tuple(int(v) for v in concept.patterns[index]))


def hypotheses(concept: EnumeratedClass, constraints=()) -> list[EnumeratedHypothesis]:
    """Every row that satisfies the constraints, lowest index first."""
    return [hypothesis(concept, int(i)) for i in concept._surviving(constraints)]


def pattern_set(concept: EnumeratedClass, constraints, queries) -> set[tuple[int, ...]]:
    rows = concept._surviving(constraints)
    cols = [concept._col(p) for p in queries]
    return {tuple(int(v) for v in row) for row in concept.patterns[np.ix_(rows, cols)]}


def erm(concept: EnumeratedClass, constraints, sample) -> int:
    """The surviving row with the fewest errors on the sample, lowest index on ties."""
    rows = concept._surviving(constraints)
    if len(rows) == 0:
        raise EmptyVersionSpaceError("all enumerated hypotheses are ruled out")
    cols = [concept._col(p) for p in sample.points]
    errors = (concept.patterns[np.ix_(rows, cols)] != sample.labels).sum(axis=1)
    return int(rows[int(np.argmin(errors))])  # argmin keeps lowest index on ties
