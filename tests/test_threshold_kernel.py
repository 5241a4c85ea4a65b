"""The batched threshold ERM, the cached pattern cuts and the array form of the
van der Corput stream against their scalar oracles, plus the one-pass
distribution labels and the lazily built noise generator.

Agreement is exact: the same integer thresholds, counts and point lists.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sign_oracle
import threshold_oracle as oracle
from privpredict.adversaries import van_der_corput_queries
from privpredict.concepts import ThresholdClass, VersionSpace
from privpredict.core import (
    AtomDistribution,
    BoxDistribution,
    CapabilityError,
    ConfigurationError,
    EmptyVersionSpaceError,
    GridDistribution,
    NEGATIVE,
    POSITIVE,
    LabeledSample,
    NoiseSource,
    draw_sample,
)


@functools.lru_cache(maxsize=None)
def coordinates(size):
    """Grid points, off-grid fractions, a small pool that forces duplicates and
    ties, and values far outside the grid.  A plain strategy, built once per
    grid size: building it anew for every coordinate drawn cost most of a
    test's time."""
    return st.one_of(
        st.integers(-3, size + 3).map(float),
        st.floats(-3.0, size + 3.0, allow_nan=False),
        st.sampled_from([1.0, 2.0, 2.5, float(size), float(size + 1)]),
        st.sampled_from([-1e18, 1e18, 2.0**60, -2.5e9]),
    )


@st.composite
def threshold_cases(draw):
    size = draw(st.integers(1, 200))
    single = draw(st.sampled_from([None, 1, -1]))  # None: mixed labels
    labels = st.just(single) if single else st.sampled_from([1, -1])
    k, m = draw(st.integers(1, 6)), draw(st.integers(0, 12))  # m = 0: empty blocks
    records = draw(st.lists(st.tuples(coordinates(size), labels), min_size=k * m, max_size=k * m))
    constraints = draw(st.lists(st.tuples(st.tuples(coordinates(size)), st.sampled_from([1, -1])),
                                max_size=4))
    points = np.array([x for x, _ in records], dtype=float).reshape(k, m, 1)
    return ThresholdClass(size), tuple(constraints), points, np.array([lab for _, lab in records]).reshape(k, m)


@given(threshold_cases())
@settings(max_examples=300, deadline=None)
def test_erm_blocks_match_scalar_erm(case):
    concept, constraints, points, labels = case
    samples = [LabeledSample(p, lab) for p, lab in zip(points, labels)]
    lo, hi = concept._interval(constraints)
    if lo > hi:
        with pytest.raises(EmptyVersionSpaceError):
            concept.erm_blocks(constraints, concept.blocks(points, labels))
        with pytest.raises(EmptyVersionSpaceError):
            oracle.erm(concept, constraints, samples[0])
        return
    expected = [oracle.erm(concept, constraints, s) for s in samples]
    got = concept.erm_blocks(constraints, concept.blocks(points, labels))
    assert got == expected and all(type(t) is int for t in got)
    assert [VersionSpace(concept, constraints).erm(s) for s in samples] == expected
    assert all(lo <= t <= hi for t in got)
    if not labels.shape[1]:
        assert got == [lo] * len(got)


def test_erm_ties_pick_the_smallest_threshold():
    concept = ThresholdClass(10)
    # thresholds 3 and 6 both have error 1; lo = 1 has error 2
    sample = LabeledSample(((2.0,), (4.0,), (5.0,), (7.0,)), (-1, 1, -1, 1))
    assert VersionSpace(concept).erm(sample) == oracle.erm(concept, (), sample) == 3
    # with lo = 4 the tie is between lo and the cut 6; an empty block takes lo
    space = VersionSpace(concept).restrict((3.0,), -1)
    assert space.erm(sample) == space.erm(LabeledSample((), ())) == 4


@given(
    size=st.integers(1, 200),
    queries=st.lists(st.floats(-5.0, 210.0, allow_nan=False), min_size=1, max_size=40),
    others=st.lists(st.integers(-5, 210).map(float), min_size=1, max_size=10),
    constraints=st.lists(st.tuples(st.integers(-3, 203).map(lambda x: (float(x),)),
                                   st.sampled_from([1, -1])), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_pattern_count_matches_scalar_count(size, queries, others, constraints):
    concept = ThresholdClass(size)
    constraints = tuple(constraints)
    first = tuple((q,) for q in queries)
    second = [(q,) for q in others]
    # the same tuple twice (a cache hit), another query list, then the first again
    for qs in (first, first, second, list(first)):
        want = oracle.pattern_count(concept, constraints, qs)
        assert concept.pattern_count(constraints, qs) == want
        assert len(oracle.pattern_set(concept, constraints, qs)) == want


@given(queries=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       constraints=st.lists(st.tuples(st.integers(-3, 203).map(lambda x: (float(x),)),
                                      st.sampled_from([1, -1])), max_size=4))
@settings(max_examples=300, deadline=None)
def test_query_cuts_match_scalar_cuts(queries, constraints):
    """Any finite floats: off-grid, negative, and huge ones beyond int64."""
    concept = ThresholdClass(200)
    constraints = tuple(constraints)
    qs = tuple((q,) for q in queries)
    cuts = concept._query_cuts(qs)
    want = oracle.query_cuts(qs)
    assert cuts == want and all(type(c) is int for c in cuts)
    count = oracle.pattern_count(concept, constraints, qs)
    assert concept.pattern_count(constraints, qs) == len(oracle.pattern_set(concept, constraints, qs)) == count


@pytest.mark.parametrize("bad, error", [(float("inf"), OverflowError),
                                        (float("-inf"), OverflowError),
                                        (float("nan"), ValueError)])
def test_query_cuts_reject_non_finite_queries_as_before(bad, error):
    qs = ((1.5,), (bad,), (2.0**70,))
    with pytest.raises(error):
        oracle.query_cuts(qs)
    with pytest.raises(error):
        ThresholdClass(8)._query_cuts(qs)


def test_pattern_count_through_the_version_space():
    concept = ThresholdClass(64)
    queries = tuple((float(x),) for x in (3, 3, 9, 17.5, 40, 64, 70))
    space = VersionSpace(concept).restrict((10.0,), -1).restrict((50.0,), 1)
    assert space.pattern_count(queries) == oracle.pattern_count(concept, space.constraints, queries) == 3
    assert space.restrict((60.0,), -1).pattern_count(queries) == 0


@given(count=st.integers(1, 700), grid_size=st.integers(2, 5000))
@settings(max_examples=200, deadline=None)
def test_van_der_corput_matches_scalar_loop(count, grid_size):
    assert van_der_corput_queries(count, grid_size) == oracle.van_der_corput_queries(count, grid_size)


@pytest.mark.parametrize("count, grid_size", [
    (100, 2), (40, 3), (300, 16), (129, 100),  # count > 2**bits: the sweep repeats
    (50, 2**31), (50, 2**31 + 1), (30, 2**40 + 7), (20, 2**70 + 3),  # past int64 products
])
def test_van_der_corput_edges(count, grid_size):
    got = van_der_corput_queries(count, grid_size)
    assert got == oracle.van_der_corput_queries(count, grid_size)
    assert all(type(p[0]) is float for p in got)
    with pytest.raises(ConfigurationError):
        van_der_corput_queries(0, grid_size)


def test_threshold_grid_cap_is_named():
    assert ThresholdClass(ThresholdClass.MAX_SIZE).size == 2**52
    with pytest.raises(CapabilityError, match="2\\*\\*52"):
        ThresholdClass(ThresholdClass.MAX_SIZE + 1)


def _label(dist, p) -> int:
    """The scalar labeling rule: the grid's threshold, the box's ``np.dot``
    against its offset, and an atom's own label."""
    if isinstance(dist, GridDistribution):
        return POSITIVE if p[0] >= dist.threshold else NEGATIVE
    if isinstance(dist, BoxDistribution):
        return sign_oracle.box_label(dist.normal, dist.offset, p)
    return dist.label(p)


def _assert_labels_pointwise(dist, points, labels=None):
    """``labels`` (by default ``dist.labels(points)``) equals the scalar rule
    on every row, the row given as the tuple an adversary would pass."""
    labels = dist.labels(points) if labels is None else labels
    assert labels.tolist() == [_label(dist, p) for p in map(tuple, np.asarray(points).tolist())]


@given(size=st.integers(1, 2**40), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       d=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_grid_labels_match_pointwise_label(size, n, seed, d, data):
    """The one-pass ``labels`` of the grid, the box and the atoms equal the
    scalar rule on every row, in the drawn sample and for ``labels`` itself."""
    grid = GridDistribution(size, data.draw(st.integers(1, size + 1)))

    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(d)
    drawn = rng.uniform(-1.0, 1.0, (n, d))
    offset = float(np.dot(normal, drawn[0]))  # drawn[0] lies exactly on the boundary
    box = BoxDistribution((-1.0,) * d, (1.0,) * d, tuple(normal.tolist()), offset)
    # projected onto the boundary, each product lies within rounding of the
    # offset; there, at drawn[0] and one ulp from it along each axis, the
    # sign is up to the last bits of numpy's product
    projected = drawn - np.outer(drawn @ normal - offset, normal) / (normal @ normal)
    up = drawn[0] + np.diag(np.nextafter(drawn[0], 2.0) - drawn[0])
    down = drawn[0] + np.diag(np.nextafter(drawn[0], -2.0) - drawn[0])
    assert float(np.dot(normal, drawn[0])) == offset
    _assert_labels_pointwise(box, np.vstack([drawn, projected, up, down]))

    pool = [tuple(rng.integers(-2, 3, d).astype(float).tolist()) for _ in range(4)]
    atoms = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))  # repeats: the first wins
    atom_labels = tuple(data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(atoms), max_size=len(atoms))))
    atom = AtomDistribution(atoms, (1.0 / len(atoms),) * len(atoms), atom_labels)

    for dist in (grid, box, atom):
        sample = draw_sample(dist, n, NoiseSource(seed))
        assert (sample.points.dtype, sample.labels.dtype) == (np.float64, np.int8)
        _assert_labels_pointwise(dist, sample.points)
        _assert_labels_pointwise(dist, sample.points, sample.labels)


def test_noise_generator_is_built_on_first_use():
    parent = NoiseSource(5)
    child = parent.child(2).child(0)
    assert "_rng" not in vars(parent)
    expected = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(2, 0))).random(4)
    assert np.array_equal(child.rng.random(4), expected)
    assert "_rng" in vars(child) and "_rng" not in vars(parent)
