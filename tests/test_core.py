import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privpredict.core import (
    NEGATIVE,
    POSITIVE,
    AtomDistribution,
    BoxDistribution,
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    UsageError,
    draw_sample,
    empirical_error,
    partition,
)
from threshold_oracle import ThresholdHypothesis


class _Negation:
    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, p):
        return -self.inner.evaluate(p)


def test_noise_source_determinism_and_children():
    a = NoiseSource(42)
    b = NoiseSource(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    c1 = NoiseSource(42).child(3)
    c2 = NoiseSource(42).child(3)
    assert c1.uniform() == c2.uniform()
    assert NoiseSource(42).child(3).uniform() != NoiseSource(42).child(4).uniform()


def test_point_mass_draws_three_copies():
    dist = AtomDistribution(atoms=((7.0,),), probs=(1.0,), atom_labels=(1,))
    sample = draw_sample(dist, 3, NoiseSource(1))
    assert np.array_equal(sample.points, [(7.0,)] * 3)
    assert np.array_equal(sample.labels, [1, 1, 1])
    assert (sample.points.dtype, sample.labels.dtype) == (np.float64, np.int8)


def test_draw_sample_rejects_empty():
    dist = GridDistribution(16, 4)
    with pytest.raises(ConfigurationError):
        draw_sample(dist, 0, NoiseSource(0))


def test_grid_positive_fraction_matches_binomial_oracle():
    # exact positive mass is 51/100; 0.02 is ~4 binomial standard errors at n=1e4
    dist = GridDistribution(100, 50)
    sample = draw_sample(dist, 10_000, NoiseSource(123))
    frac = sum(1 for lab in sample.labels if lab > 0) / len(sample)
    assert abs(frac - 0.51) <= 0.02


def test_draw_sample_deterministic_per_seed():
    dist = GridDistribution(1000, 500)
    s1 = draw_sample(dist, 50, NoiseSource(9))
    s2 = draw_sample(dist, 50, NoiseSource(9))
    assert s1.points.tobytes() == s2.points.tobytes() and s1.points.shape == s2.points.shape
    assert s1.labels.tobytes() == s2.labels.tobytes()


def _block_records(sample, order):
    """Block i of ``order`` as (point tuple, int label) pairs."""
    return [LabeledSample(sample.points[row], sample.labels[row]).records() for row in order]


def test_partition_sizes_and_union():
    sample = draw_sample(GridDistribution(64, 30), 4, NoiseSource(2))
    order = partition(sample, 2, NoiseSource(3))
    assert order.shape == (2, 2)
    assert np.array_equal(order, NoiseSource(3).permutation(4).reshape(2, 2))
    merged = sorted(sum(_block_records(sample, order), []))
    assert merged == sorted(sample.records())


def test_partition_identity_and_divisibility():
    sample = draw_sample(GridDistribution(64, 30), 6, NoiseSource(2))
    [only] = partition(sample, 1, NoiseSource(0))
    assert np.array_equal(only, NoiseSource(0).permutation(6))
    assert sorted(sample.records()) == sorted(_block_records(sample, [only])[0])
    odd = draw_sample(GridDistribution(64, 30), 5, NoiseSource(2))
    with pytest.raises(ConfigurationError):
        partition(odd, 2, NoiseSource(0))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=40, deadline=None)
def test_partition_union_property(seed, k):
    sample = draw_sample(GridDistribution(256, 100), 12, NoiseSource(7))
    order = partition(sample, k, NoiseSource(seed))
    assert np.array_equal(order, NoiseSource(seed).permutation(12).reshape(k, 12 // k))
    merged = sorted(sum(_block_records(sample, order), []))
    assert merged == sorted(sample.records())


def test_empirical_error_realizable_and_complement():
    dist = GridDistribution(100, 40)
    sample = draw_sample(dist, 30, NoiseSource(5))
    target = ThresholdHypothesis(40)
    assert empirical_error(target, sample) == 0.0
    assert empirical_error(_Negation(target), sample) == 1.0


def test_empirical_error_matches_enumeration():
    points = tuple((float(x),) for x in range(1, 11))
    labels = tuple(1 if x >= 4 else -1 for x in range(1, 11))
    sample = LabeledSample(points, labels)
    h = ThresholdHypothesis(7)
    direct = sum(1 for p, lab in sample.records() if h.evaluate(p) != lab) / 10
    assert empirical_error(h, sample) == direct == 0.3


@given(st.integers(min_value=1, max_value=11))
@settings(max_examples=20, deadline=None)
def test_error_complement_property(t):
    sample = draw_sample(GridDistribution(10, 6), 9, NoiseSource(11))
    h = ThresholdHypothesis(t)
    assert empirical_error(h, sample) + empirical_error(_Negation(h), sample) == 1.0


def test_empirical_error_empty_sample_errors():
    with pytest.raises(UsageError):
        empirical_error(ThresholdHypothesis(1), LabeledSample((), ()))


def test_labeled_sample_validation():
    with pytest.raises(ConfigurationError):
        LabeledSample(((1.0,), (2.0, 3.0)), (1, -1))
    for bad in (2, 0, 0.5, 1.5, -1.5, "1"):
        with pytest.raises(ConfigurationError):
            LabeledSample(((1.0,), (2.0,)), (1, bad))
    with pytest.raises(ConfigurationError):
        LabeledSample(((1.0,),), (1, -1))
    with pytest.raises(ConfigurationError):
        LabeledSample(((), ()), (1, -1))  # points without coordinates
    # a non-finite coordinate is rejected however the sample is built
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="finite"):
            LabeledSample(((0.1, 0.2), (bad, 0.0)), (1, -1))
        with pytest.raises(ConfigurationError, match="finite"):
            LabeledSample.from_records([((0.1, 0.2), 1), ((bad, 0.0), -1)])
        with pytest.raises(ConfigurationError, match="finite"):
            LabeledSample(np.array([[0.1, bad]]), np.array([1]))


def test_labeled_sample_arrays_are_read_only_copies():
    points = np.array([[1.0], [2.0]])
    labels = np.array([1, -1])
    sample = LabeledSample(points, labels)
    points[0, 0] = 5.0
    labels[0] = -1
    assert sample.points.tolist() == [[1.0], [2.0]] and sample.labels.tolist() == [1, -1]
    with pytest.raises(ValueError):
        sample.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        sample.labels[0] = -1
    assert sample.records() == [((1.0,), 1), ((2.0,), -1)]
    assert all(type(c) is float for p, _ in sample.records() for c in p)
    assert all(type(lab) is int for _, lab in sample.records())
    empty = LabeledSample((), ())
    assert len(empty) == 0 and empty.records() == []


@given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_box_label_on_the_target_boundary(d, seed):
    """The target normal is an array made once; each label must still equal
    the dot product of the two tuples, bit for bit, on points placed exactly on
    the boundary and one ulp to either side of it."""
    rng = np.random.default_rng(seed)
    normal = tuple(rng.standard_normal(d).tolist())
    on = tuple(rng.uniform(-1.0, 1.0, d).tolist())
    offset = float(np.dot(normal, on))
    dist = BoxDistribution((-1.0,) * d, (1.0,) * d, normal, offset)
    assert dist.labels([on])[0] == POSITIVE
    for direction in (-2.0, 2.0):
        for i in range(d):
            near = on[:i] + (math.nextafter(on[i], direction),) + on[i + 1:]
            want = POSITIVE if float(np.dot(normal, near)) >= offset else NEGATIVE
            assert dist.labels([near])[0] == want


def test_box_label_exact_boundary_examples():
    dist = BoxDistribution((0.0, 0.0), (4.0, 4.0), (0.5, 0.25), 1.0)
    assert dist.labels([(1.0, 2.0)])[0] == POSITIVE  # 0.5 + 0.5 == 1.0 exactly
    assert dist.labels([(0.0, math.nextafter(4.0, 0.0))])[0] == NEGATIVE  # 1 - 2**-53
    points = [(2.0, 0.0), (0.0, 4.0), (0.0, 3.5), (1.0, 2.0), (0.0, math.nextafter(4.0, 0.0))]
    assert dist.labels(points).tolist() == [POSITIVE, POSITIVE, NEGATIVE, POSITIVE, NEGATIVE]
