import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adversary_oracle import BoundaryProbeOracle
from privpredict import adversaries
from privpredict.adversaries import (
    BoundaryProbeAdversary,
    ObliviousAdversary,
    OfflineAdversary,
    StochasticAdversary,
    van_der_corput_queries,
)
from privpredict.core import AtomDistribution, NoiseSource, StreamExhausted


def _stream(adv, labels, noise):
    """Round j = 1, 2, ... of a run: the query after the label released for
    the previous one."""
    return [adv.next_query(j, label, noise) for j, label in enumerate((None, *labels), 1)]


def test_oblivious_order_and_exhaustion():
    adv = ObliviousAdversary(((1.0,), (2.0,), (3.0,)))
    ns = NoiseSource(0)
    assert _stream(adv, (1, -1), ns) == [(1.0,), (2.0,), (3.0,)]
    for j in (0, 4):
        with pytest.raises(StreamExhausted):
            adv.next_query(j, 1, ns)
    assert adv.disclose() is None
    assert OfflineAdversary(((1.0,),)).disclose() == ((1.0,),)


def test_obliviousness_across_predictors():
    points = tuple((float(i),) for i in range(8))
    adv = ObliviousAdversary(points)
    flip = _stream(adv, [1 if j % 2 else -1 for j in range(7)], NoiseSource(1))
    agree = _stream(adv, [1] * 7, NoiseSource(1))
    assert flip == agree == list(points)


def test_stochastic_point_mass_constant():
    dist = AtomDistribution(((4.0,),), (1.0,), (1,))
    adv = StochasticAdversary(dist)
    ns = NoiseSource(1)
    assert set(_stream(adv, (1, -1, 1, 1), ns)) == {(4.0,)}


def test_boundary_probe_pure_function_of_pairs():
    """The probe's queries are a function of its (query, label) pairs and the
    noise: the same labels give the same stream, a changed label another."""
    labels = (1, -1, -1, 1, -1, 1, 1)
    qa, qb = (_stream(BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1), labels,
                      NoiseSource(9)) for _ in range(2))
    assert qa == qb
    flipped = _stream(BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1),
                      (-1,) + labels[1:], NoiseSource(9))
    assert flipped[0] == qa[0] and flipped != qa  # the label of query 1 is read from round 2 on


def test_boundary_probe_distance_tau():
    adv = BoundaryProbeAdversary((-10.0, -10.0), (10.0, 10.0), tau=0.25)
    ns = NoiseSource(3)
    probes = 0
    for j in range(1, 41):
        # labels of the halfspace x0 + x1/2 >= 1/4, so the boundary crosses the box
        q = np.asarray(adv.next_query(j, None if j == 1 else label, ns))
        label = 1 if q[0] + q[1] / 2 >= 0.25 else -1
        w = np.asarray(adv._w)
        if w[:-1].any() and (np.abs(q) < 10.0).all():  # not clipped
            dist = abs(float(w[:-1] @ q) - w[-1]) / np.linalg.norm(w[:-1])
            assert dist == pytest.approx(0.25, abs=1e-9)
            probes += 1
    assert probes > 20


def _bits(point) -> bytes:
    assert type(point) is tuple and all(type(c) is float for c in point)
    return np.array(point).tobytes()


def _probe_both(fast, slow, j, label, fast_noise, slow_noise):
    """Round j's query from each adversary: same bits, same next draw of the stream."""
    x = fast.next_query(j, label, fast_noise)
    assert _bits(x) == _bits(slow.next_query(j, label, slow_noise))
    assert fast_noise.doubles(1) == [slow_noise.rng.random()]
    return x


def _run_both(low, high, tau, labels, seed):
    """The probe and the oracle fed the same labels, round by round."""
    fast, slow = BoundaryProbeAdversary(low, high, tau), BoundaryProbeOracle(low, high, tau)
    fast_noise, slow_noise = NoiseSource(seed).child(1), NoiseSource(seed).child(1)
    for j, label in enumerate((None, *labels), 1):
        _probe_both(fast, slow, j, label, fast_noise, slow_noise)
    return fast


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    low=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, -3.25, 7.0]), min_size=4, max_size=4),
    width=st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0, 10.0]), min_size=4, max_size=4),
    tau=st.sampled_from([0.0, 0.11, 0.5, 25.0]),
    rounds=st.integers(1, 40),
    labels=st.sampled_from(["random", "positive", "negative"]),
)
@example(seed=0, d=1, low=[0.0] * 4, width=[0.0] * 4, tau=0.11, rounds=6, labels="random")
@example(seed=0, d=1, low=[-1.0] * 4, width=[0.0] * 4, tau=0.0, rounds=6, labels="negative")
@example(seed=0, d=3, low=[-1.0] * 4, width=[0.0, 0.0, 0.25, 0.0], tau=0.0, rounds=3,
         labels="random")
@settings(max_examples=150, deadline=None)
def test_boundary_probe_matches_scalar_oracle(seed, d, low, width, tau, rounds, labels):
    low, high = tuple(low[:d]), tuple(lo + w for lo, w in zip(low, width[:d]))
    rng = np.random.default_rng(seed)
    # all-positive labels keep the weights at zero throughout
    released = [{"positive": 1, "negative": -1}.get(labels, int(rng.choice([-1, 1])))
                for _ in range(rounds - 1)]
    _run_both(low, high, tau, released, seed)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    low=st.lists(st.sampled_from([-0.0, 0.0, -1.0, 0.5]), min_size=3, max_size=3),
    width=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=3),
    labels=st.lists(st.sampled_from([-1, 1]), max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_boundary_probe_on_its_boundary_matches_scalar_oracle(seed, d, low, width, labels):
    """tau = 0 queries the boundary estimate itself.  Zero-width sides and
    bounds of -0.0 make clip ties and signed zeros; any label sequence goes."""
    low, high = tuple(low[:d]), tuple(lo + w for lo, w in zip(low, width[:d]))
    _run_both(low, high, 0.0, labels, seed)


def test_boundary_probe_clips_to_the_box():
    adv = BoundaryProbeAdversary((0.0, -1.0), (1.0, 0.0), tau=25.0)
    queries = _stream(adv, (-1, 1, -1, -1, 1), NoiseSource(4))
    assert all(0.0 <= x[0] <= 1.0 and -1.0 <= x[1] <= 0.0 for x in queries)
    # tau far exceeds the box: once the weights leave zero, each probe is clipped
    assert adv._w[:-1] != [0.0, 0.0]
    assert 0.0 in queries[-1] or 1.0 in queries[-1] or -1.0 in queries[-1]


def test_van_der_corput_properties():
    points = van_der_corput_queries(64, 64)
    xs = [p[0] for p in points]
    assert all(1 <= x <= 64 for x in xs)
    assert len(set(xs)) == 64  # full sweep before any repetition
    assert xs[0] == 1.0


@pytest.mark.parametrize("low, high", [((0.0,), (0.0,)), ((-1.0,), (-1.0,)), ((0.0,), (1.0,))])
def test_boundary_probe_keeps_signed_zero_products_at_d1(low, high):
    """At d = 1 the first query meets zero weights, and at x = -1 or at a
    negative weight against x = 0 a product is -0.0; the probe's sums keep
    it, as the oracle's sums from the first product do."""
    assert math.copysign(1.0, adversaries._dot([0.0], (-1.0,))) == -1.0
    assert math.copysign(1.0, adversaries._dot([-0.5], [0.0])) == -1.0
    for seed in range(4):
        for labels in ((1, -1, 1), (-1, -1, 1, -1), (-1, 1, 1, -1, 1)):
            _run_both(low, high, 0.11, labels, seed)
