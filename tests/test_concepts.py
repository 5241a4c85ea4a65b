import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privpredict.concepts import (
    EnumeratedClass,
    HalfspaceEnsemble,
    ThresholdClass,
    ThresholdHypothesis,
    VersionSpace,
    load_enumerated_class,
)
from privpredict.core import (
    EmptyVersionSpaceError,
    LabeledSample,
    UsageError,
)


def grid_sample(pairs):
    return LabeledSample(tuple((float(x),) for x, _ in pairs), tuple(lab for _, lab in pairs))


def full_shatter_class(n_points):
    points = [(float(i),) for i in range(1, n_points + 1)]
    patterns = list(itertools.product((-1, 1), repeat=n_points))
    return EnumeratedClass(points, patterns)


def test_evaluate_examples():
    assert ThresholdHypothesis(5).evaluate((7.0,)) == 1
    assert ThresholdHypothesis(5).evaluate((4.0,)) == -1
    # the second row is zero, which votes +1 everywhere
    halfspaces = HalfspaceEnsemble(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert halfspaces.labels([(-3.0, 9.0), (123.0, -9.0)]).tolist() == [[-1, 1], [1, 1]]
    with pytest.raises(UsageError):
        ThresholdHypothesis(5).evaluate((1.0, 2.0))


def test_restrict_thresholds_interval():
    tc = ThresholdClass(10)
    vs = VersionSpace(tc).restrict((5.0,), 1)
    remaining = [h.threshold for h in tc.hypotheses(vs.constraints)]
    assert remaining == [1, 2, 3, 4, 5]
    contradiction = vs.restrict((5.0,), -1)
    assert tc.hypotheses(contradiction.constraints) == []
    assert contradiction.pattern_count([(3.0,)]) == 0
    with pytest.raises(EmptyVersionSpaceError):
        contradiction.erm(grid_sample([(3, 1)]))


def test_restrict_enumerated_brute_force():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls).restrict((1.0,), 1)
    survivors = cls.hypotheses(vs.constraints)
    # independent filter over the materialized class
    expected = [h for h in cls.hypotheses() if h.evaluate((1.0,)) == 1]
    assert len(survivors) == 4
    assert {h.index for h in survivors} == {h.index for h in expected}


def test_erm_realizable_returns_zero_error():
    tc = ThresholdClass(100)
    sample = grid_sample([(x, 1 if x >= 37 else -1) for x in range(1, 101, 7)])
    h = VersionSpace(tc).erm(sample)
    assert all(h.evaluate(p) == lab for p, lab in sample.records())


def test_erm_restricted_matches_enumeration_oracle():
    tc = ThresholdClass(20)
    sample = grid_sample([(x, 1 if x >= 3 else -1) for x in range(1, 21)])
    vs = VersionSpace(tc).restrict((7.0,), -1)  # forces t >= 8
    h = vs.erm(sample)
    assert h.threshold == 8
    # brute force over every threshold in the restricted class
    def err(t):
        ht = ThresholdHypothesis(t)
        return sum(1 for p, lab in sample.records() if ht.evaluate(p) != lab)

    best = min(range(8, 22), key=lambda t: (err(t), t))
    assert h.threshold == best
    from privpredict.core import empirical_error

    assert empirical_error(h, sample) == err(8) / 20 == 5 / 20  # x in [3, 8)


def test_erm_singleton_and_empty():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls)
    for p, lab in [((1.0,), 1), ((2.0,), -1), ((3.0,), 1)]:
        vs = vs.restrict(p, lab)
    sample = grid_sample([(1, -1), (2, -1), (3, -1)])
    h = vs.erm(sample)  # single survivor wins regardless of the sample
    assert [h.evaluate((float(i),)) for i in (1, 2, 3)] == [1, -1, 1]
    with pytest.raises(EmptyVersionSpaceError):
        vs.restrict((1.0,), -1).erm(sample)


def test_pattern_count_thresholds_sorted_points():
    tc = ThresholdClass(50)
    queries = [(float(x),) for x in (3, 9, 17, 20, 31, 44)]
    assert VersionSpace(tc).pattern_count(queries) == len(queries) + 1


def test_pattern_count_full_shatter():
    cls = full_shatter_class(3)
    queries = [(1.0,), (2.0,), (3.0,)]
    assert VersionSpace(cls).pattern_count(queries) == 8


def test_pattern_set_agrees_with_count():
    tc = ThresholdClass(40)
    queries = [(float(x),) for x in (2, 7, 11, 23, 31)]
    vs = VersionSpace(tc).restrict((20.0,), 1)
    explicit = vs.pattern_set(queries)
    assert len(explicit) == vs.pattern_count(queries)
    # every explicit pattern is induced by some surviving threshold
    for pattern in explicit:
        assert any(
            tuple(h.evaluate(q) for q in queries) == pattern
            for h in tc.hypotheses(vs.constraints)
        )
    cls = full_shatter_class(3)
    vs2 = VersionSpace(cls).restrict((1.0,), -1)
    queries2 = [(1.0,), (2.0,), (3.0,)]
    assert len(vs2.pattern_set(queries2)) == vs2.pattern_count(queries2) == 4


def test_pattern_count_random_class_matches_matrix_oracle():
    rng = np.random.default_rng(4)
    points = [(float(i),) for i in range(1, 9)]
    patterns = rng.choice((-1, 1), size=(12, 8))
    patterns = np.unique(patterns, axis=0)
    cls = EnumeratedClass(points, patterns)
    queries = [points[i] for i in (0, 2, 3, 5, 7)]
    expected = len({tuple(row[[0, 2, 3, 5, 7]]) for row in patterns})
    assert VersionSpace(cls).pattern_count(queries) == expected


def _oracle_vc(patterns: np.ndarray) -> int:
    n = patterns.shape[1]
    best = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            rows = {tuple(r) for r in patterns[:, subset].tolist()}
            if len(rows) == 2**size:
                best = max(best, size)
    return best


def test_vc_dimension_examples():
    assert ThresholdClass(100).vc_dimension() == 1
    assert full_shatter_class(3).vc_dimension() == 3
    rng = np.random.default_rng(7)
    patterns = np.unique(rng.choice((-1, 1), size=(10, 6)), axis=0)
    cls = EnumeratedClass([(float(i),) for i in range(6)], patterns)
    assert cls.vc_dimension() == _oracle_vc(patterns)


@given(st.lists(st.tuples(st.integers(1, 30), st.sampled_from([-1, 1])), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_restrict_monotonicity_and_sauer(constraints):
    tc = ThresholdClass(30)
    queries = [(float(x),) for x in range(1, 31, 2)]
    vs = VersionSpace(tc)
    prev = vs.pattern_count(queries)
    t_q = len(queries)
    for x, lab in constraints:
        vs = vs.restrict((float(x),), lab)
        count = vs.pattern_count(queries)
        assert count <= prev
        prev = count
        # Sauer bound at VC=1
        assert count <= 1 + t_q


def test_erm_consistency_property():
    cls = full_shatter_class(3)
    sample = grid_sample([(1, 1), (2, -1), (3, -1)])
    h = VersionSpace(cls).erm(sample)
    assert all(h.evaluate(p) == lab for p, lab in sample.records())


def test_membership_coherence_with_constraints():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls).restrict((2.0,), 1).restrict((3.0,), -1)
    survivors = cls.hypotheses(vs.constraints)
    consistent = [h for h in cls.hypotheses() if all(h.evaluate(p) == lab for p, lab in vs.constraints)]
    assert [h.index for h in survivors] == [h.index for h in consistent]
    assert len(survivors) == 2
    for h in survivors:
        assert h.evaluate((2.0,)) == 1
        assert h.evaluate((3.0,)) == -1


def test_enumerated_class_json_roundtrip(tmp_path):
    path = tmp_path / "cls.json"
    payload = {"points": [1, 2, 3], "patterns": [[1, 1, -1], [-1, 1, 1]]}
    path.write_text(json.dumps(payload))
    cls = load_enumerated_class(path)
    assert cls.points == ((1.0,), (2.0,), (3.0,))
    assert cls.hypothesis(0).evaluate((3.0,)) == -1
    with pytest.raises(UsageError):
        cls.hypothesis(0).evaluate((9.0,))
