import bisect
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumerated_oracle
import sign_oracle
import threshold_oracle
from privpredict.concepts import (
    EnumeratedClass,
    HalfspaceEnsemble,
    ThresholdClass,
    ThresholdEnsemble,
    VersionSpace,
    load_enumerated_class,
)
from privpredict.core import (
    POSITIVE,
    CapabilityError,
    EmptyVersionSpaceError,
    LabeledSample,
    UsageError,
    empirical_error,
)
from threshold_oracle import ThresholdHypothesis


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
    remaining = [h.threshold for h in threshold_oracle.hypotheses(tc, vs.constraints)]
    assert remaining == [1, 2, 3, 4, 5]
    contradiction = vs.restrict((5.0,), -1)
    assert threshold_oracle.hypotheses(tc, contradiction.constraints) == []
    assert contradiction.pattern_count([(3.0,)]) == 0
    with pytest.raises(EmptyVersionSpaceError):
        contradiction.erm(grid_sample([(3, 1)]))


def test_restrict_enumerated_brute_force():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls).restrict((1.0,), 1)
    survivors = enumerated_oracle.hypotheses(cls, vs.constraints)
    # independent filter over the materialized class
    expected = [h for h in enumerated_oracle.hypotheses(cls) if h.evaluate((1.0,)) == 1]
    assert len(survivors) == 4
    assert {h.index for h in survivors} == {h.index for h in expected}


def test_erm_realizable_returns_zero_error():
    tc = ThresholdClass(100)
    sample = grid_sample([(x, 1 if x >= 37 else -1) for x in range(1, 101, 7)])
    h = ThresholdHypothesis(VersionSpace(tc).erm(sample))
    assert all(h.evaluate(p) == lab for p, lab in sample.records())


def test_erm_restricted_matches_enumeration_oracle():
    tc = ThresholdClass(20)
    sample = grid_sample([(x, 1 if x >= 3 else -1) for x in range(1, 21)])
    vs = VersionSpace(tc).restrict((7.0,), -1)  # forces t >= 8
    h = ThresholdHypothesis(vs.erm(sample))
    assert h.threshold == 8
    # brute force over every threshold in the restricted class
    def err(t):
        ht = ThresholdHypothesis(t)
        return sum(1 for p, lab in sample.records() if ht.evaluate(p) != lab)

    best = min(range(8, 22), key=lambda t: (err(t), t))
    assert h.threshold == best
    assert empirical_error(h, sample) == err(8) / 20 == 5 / 20  # x in [3, 8)


def test_erm_singleton_and_empty():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls)
    for p, lab in [((1.0,), 1), ((2.0,), -1), ((3.0,), 1)]:
        vs = vs.restrict(p, lab)
    sample = grid_sample([(1, -1), (2, -1), (3, -1)])
    # the single survivor wins regardless of the sample
    h = enumerated_oracle.hypothesis(cls, vs.erm(sample))
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
    explicit = threshold_oracle.pattern_set(tc, vs.constraints, tuple(queries))
    assert len(explicit) == vs.pattern_count(queries)
    # every explicit pattern is induced by some surviving threshold
    for pattern in explicit:
        assert any(
            tuple(h.evaluate(q) for q in queries) == pattern
            for h in threshold_oracle.hypotheses(tc, vs.constraints)
        )
    cls = full_shatter_class(3)
    vs2 = VersionSpace(cls).restrict((1.0,), -1)
    queries2 = [(1.0,), (2.0,), (3.0,)]
    explicit2 = enumerated_oracle.pattern_set(cls, vs2.constraints, queries2)
    assert len(explicit2) == vs2.pattern_count(queries2) == 4


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
    h = enumerated_oracle.hypothesis(cls, VersionSpace(cls).erm(sample))
    assert all(h.evaluate(p) == lab for p, lab in sample.records())


def test_membership_coherence_with_constraints():
    cls = full_shatter_class(3)
    vs = VersionSpace(cls).restrict((2.0,), 1).restrict((3.0,), -1)
    survivors = enumerated_oracle.hypotheses(cls, vs.constraints)
    consistent = [h for h in enumerated_oracle.hypotheses(cls) if all(h.evaluate(p) == lab for p, lab in vs.constraints)]
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
    assert enumerated_oracle.hypothesis(cls, 0).evaluate((3.0,)) == -1
    with pytest.raises(UsageError):
        enumerated_oracle.hypothesis(cls, 0).evaluate((9.0,))


@st.composite
def enumerated_erm_cases(draw):
    """A class of distinct random +/-1 rows, k equal-size blocks drawn from its
    points with repeats, and random constraints.  A mirrored block holds each
    of its points once with each label, so every row ties on it."""
    d = draw(st.integers(1, 2))
    n_points = draw(st.integers(1, 5))
    points = [tuple(float(i + j) for j in range(d)) for i in range(n_points)]
    all_rows = list(itertools.product((-1, 1), repeat=n_points))
    patterns = draw(st.lists(st.sampled_from(all_rows), min_size=1, max_size=12, unique=True))
    concept = EnumeratedClass(points, patterns)
    k, half = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    cols, labels = [], []
    for _ in range(k):
        block = draw(st.lists(st.integers(0, n_points - 1), min_size=half, max_size=half))
        if draw(st.booleans()):  # mirrored: a forced tie between all rows
            cols.append(block + block)
            labels.append([1] * half + [-1] * half)
        else:
            cols.append(draw(st.lists(st.integers(0, n_points - 1), min_size=2 * half, max_size=2 * half)))
            labels.append(draw(st.lists(st.sampled_from([1, -1]), min_size=2 * half, max_size=2 * half)))
    constraints = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from([1, -1])), max_size=3))
    block_points = np.array([[points[c] for c in row] for row in cols], dtype=float).reshape(k, 2 * half, d)
    return concept, tuple(constraints), block_points, np.array(labels, dtype=np.int8).reshape(k, 2 * half)


@given(enumerated_erm_cases())
@settings(max_examples=300, deadline=None)
def test_enumerated_erm_blocks_match_per_block_oracle(case):
    """The batched fit returns the per-block oracle's row for every block, as a
    Python int, and raises where the oracle raises."""
    concept, constraints, points, labels = case
    samples = [LabeledSample(p, lab) for p, lab in zip(points, labels)]
    if not len(concept._surviving(constraints)):
        with pytest.raises(EmptyVersionSpaceError):
            concept.erm_blocks(constraints, concept.blocks(points, labels))
        with pytest.raises(EmptyVersionSpaceError):
            enumerated_oracle.erm(concept, constraints, samples[0])
        return
    got = concept.erm_blocks(constraints, concept.blocks(points, labels))
    assert got == [enumerated_oracle.erm(concept, constraints, s) for s in samples]
    assert all(type(row) is int for row in got)
    assert [VersionSpace(concept, constraints).erm(s) for s in samples] == got


def test_enumerated_erm_ties_pick_the_lowest_row():
    concept = full_shatter_class(2)  # rows (-1,-1), (-1,1), (1,-1), (1,1)
    points = np.array([[[1.0], [1.0]], [[1.0], [2.0]]])
    labels = np.array([[1, -1], [1, 1]], dtype=np.int8)
    # block 0 sees point 1 once with each label, so every row makes one error
    # and row 0 wins the tie; block 1 is fit exactly by row 3
    assert concept.erm_blocks((), concept.blocks(points, labels)) == [0, 3]
    assert concept.erm_blocks((((2.0,), -1),), concept.blocks(points, labels)) == [0, 2]


def _vote_case(seed: int, d: int, k: int, zeros: float):
    """Weights with +-0.0 entries and points on and off every block's boundary."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((k, d + 1))
    zero = rng.random(weights.shape) < zeros
    weights[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    points = [tuple(x) for x in rng.uniform(-2, 2, (8, d)).tolist()]
    points += [(0.0,) * d, (-0.0,) * d]
    points += [tuple(x) for x in rng.integers(-2, 3, (2, d)).tolist()]  # Python ints
    points += [tuple(np.float64(c) for c in rng.uniform(-2, 2, d))]
    for a, w in zip(weights[:, :-1], weights[:, -1]):
        if a @ a > 0:  # projected onto the boundary, where the last bits decide
            x = rng.uniform(-2, 2, d)
            points.append(tuple((x - (a @ x - w) * a / (a @ a)).tolist()))
    return weights, points


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), k=st.integers(1, 8),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=150, deadline=None)
def test_buffered_vote_equals_the_fresh_array_vote(seed, d, k, zeros):
    """``vote`` and ``votes([x])[0]`` give the oracle's count exactly, at
    points given as floats, np.float64 or Python ints, and two ensembles of
    different widths voting in turn do not see each other's buffers."""
    weights, points = _vote_case(seed, d, k, zeros)
    other_weights, other_points = _vote_case(seed + 1, 5 - d, k + 1, zeros)
    ensemble, other = HalfspaceEnsemble(weights), HalfspaceEnsemble(other_weights)
    for x, y in zip(points, other_points):
        want = sign_oracle.ensemble_vote(weights, x)
        got = ensemble.vote(x)
        assert type(got) is int and got == want == ensemble.votes([x])[0]
        assert other.vote(y) == sign_oracle.ensemble_vote(other_weights, y)
        assert ensemble.vote(x) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_vote_at_a_wrong_length_point_raises_value_error(d):
    weights, points = _vote_case(d, d, 3, 0.3)
    ensemble = HalfspaceEnsemble(weights)
    for x in [(), (0.5,) * (d + 1), (0.5,) * (d - 1)]:
        with pytest.raises(ValueError):
            ensemble.vote(x)
    with pytest.raises(ValueError):
        ensemble.vote(("a",) * d)
    assert ensemble.vote(points[0]) == sign_oracle.ensemble_vote(weights, points[0])


_CAP = ThresholdClass.MAX_SIZE + 1  # the largest threshold a class can produce


@given(st.lists(st.one_of(st.integers(1, _CAP), st.integers(_CAP - 2, _CAP), st.integers(1, 3)),
                max_size=8))
@settings(max_examples=200, deadline=None)
def test_threshold_vote_matches_the_integer_count_up_to_the_class_cap(thresholds):
    """``vote``, ``votes`` and ``labels`` count the thresholds t <= x exactly,
    at t, t +- 0.5 and t +- 1 as floats, at t and t +- 1 as ints, and at
    +-inf, though ``vote`` bisects the thresholds as floats.  At nan, ``vote``
    and ``votes`` still count every block, as the bisect over the int
    thresholds did, while ``labels`` labels no block +1."""
    ensemble = ThresholdEnsemble(thresholds)
    ints = [t + d for t in thresholds for d in (-1, 0, 1)]
    xs = [float(t) + d for t in thresholds for d in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    queries = ints + xs + [float("inf"), float("-inf")]
    positives = (ensemble.labels([(x,) for x in queries]) == POSITIVE).sum(axis=0).tolist()
    want = [sum(t <= x for t in thresholds) for x in queries]  # exact int/float compares
    assert [ensemble.vote((x,)) for x in queries] == want
    assert ensemble.votes([(x,) for x in queries]).tolist() == want
    assert positives == want
    nan = float("nan")
    old_vote = bisect.bisect_right(sorted(thresholds), nan)
    assert ensemble.vote((nan,)) == ensemble.votes([(nan,)])[0] == old_vote == len(thresholds)
    assert (ensemble.labels([(nan,)]) == POSITIVE).sum() == 0


@pytest.mark.parametrize("t", [2**53 + 1, 2**53, -(2**53)])
def test_threshold_ensemble_beyond_exact_floats_raises_capability_error(t):
    with pytest.raises(CapabilityError, match=r"2\*\*53"):
        ThresholdEnsemble([1, t])
    assert ThresholdEnsemble([1, 2**53 - 1]).vote((2.0**53,)) == 2
