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


def test_oblivious_order_and_exhaustion():
    adv = ObliviousAdversary(((1.0,), (2.0,), (3.0,)))
    ns = NoiseSource(0)
    history = []
    seen = []
    for label in (1, -1, 1):
        x = adv.next_query(history, ns)
        seen.append(x)
        history.append((x, label))
    assert seen == [(1.0,), (2.0,), (3.0,)]
    with pytest.raises(StreamExhausted):
        adv.next_query(history, ns)
    assert adv.disclose() is None
    assert OfflineAdversary(((1.0,),)).disclose() == ((1.0,),)


def test_obliviousness_across_predictors():
    points = tuple((float(i),) for i in range(8))
    flip, agree = [], []
    for answers, bucket in ((lambda j: 1 if j % 2 else -1, flip), (lambda j: 1, agree)):
        adv = ObliviousAdversary(points)
        history = []
        ns = NoiseSource(1)
        for j in range(8):
            x = adv.next_query(history, ns)
            bucket.append(x)
            history.append((x, answers(j)))
    assert flip == agree


def test_boundary_probe_restart_resets_state():
    adv = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1)
    ns = NoiseSource(0)
    h1 = []
    x = adv.next_query(h1, ns)
    h1.append((x, -1))
    adv.next_query(h1, ns)
    # a fresh, different history must replay from scratch
    h2 = [((0.5, 0.25), -1), ((-0.25, 0.5), 1)]
    x2 = adv.next_query(h2, NoiseSource(5))
    fresh = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1)
    assert x2 == fresh.next_query(h2, NoiseSource(5))


def test_stochastic_point_mass_constant():
    dist = AtomDistribution(((4.0,),), (1.0,), (1,))
    adv = StochasticAdversary(dist)
    ns = NoiseSource(1)
    assert {adv.next_query([], ns) for _ in range(5)} == {(4.0,)}


def test_boundary_probe_pure_function_of_pairs():
    pairs = [((0.3, 0.4), 1), ((-0.2, 0.1), -1), ((0.5, -0.5), 1)]
    a = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1)
    b = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.1)
    qa = [a.next_query(pairs[:j], NoiseSource(9).child(j)) for j in range(4)]
    qb = [b.next_query(pairs[:j], NoiseSource(9).child(j)) for j in range(4)]
    assert qa == qb


def test_boundary_probe_distance_tau():
    adv = BoundaryProbeAdversary((-10.0, -10.0), (10.0, 10.0), tau=0.25)
    pairs = [((1.0, 0.0), 1), ((-1.0, 0.0), -1), ((0.0, 1.0), 1), ((2.0, 0.3), 1)]
    ns = NoiseSource(3)
    q = np.asarray(adv.next_query(pairs, ns))
    w = adv._w
    dist = abs(float(w[:-1] @ q) - w[-1]) / np.linalg.norm(w[:-1])
    assert dist == pytest.approx(0.25, abs=1e-9)


def _bits(point) -> bytes:
    assert type(point) is tuple and all(type(c) is float for c in point)
    return np.array(point).tobytes()


def _probe_both(fast, slow, history, fast_noise, slow_noise):
    """One query from each adversary: same bits, same next draw of the stream."""
    x = fast.next_query(history, fast_noise)
    assert _bits(x) == _bits(slow.next_query(history, slow_noise))
    assert fast_noise.doubles(1) == [slow_noise.rng.random()]
    return x


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    low=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, -3.25, 7.0]), min_size=4, max_size=4),
    width=st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0, 10.0]), min_size=4, max_size=4),
    tau=st.sampled_from([0.0, 0.11, 0.5, 25.0]),
    rounds=st.integers(1, 40),
    labels=st.sampled_from(["random", "positive", "negative"]),
    mismatch=st.integers(0, 39),
)
@example(seed=0, d=1, low=[0.0] * 4, width=[0.0] * 4, tau=0.11, rounds=6, labels="random",
         mismatch=2)
@example(seed=0, d=1, low=[-1.0] * 4, width=[0.0] * 4, tau=0.0, rounds=6, labels="negative",
         mismatch=0)
# the label flipped at round 0 of 3 must replay, though the last pair matches
@example(seed=0, d=3, low=[-1.0] * 4, width=[0.0, 0.0, 0.25, 0.0], tau=0.0, rounds=3,
         labels="random", mismatch=0)
@settings(max_examples=150, deadline=None)
def test_boundary_probe_matches_scalar_oracle(seed, d, low, width, tau, rounds, labels, mismatch):
    low, high = tuple(low[:d]), tuple(lo + w for lo, w in zip(low, width[:d]))
    fast, slow = BoundaryProbeAdversary(low, high, tau), BoundaryProbeOracle(low, high, tau)
    fast_noise, slow_noise = NoiseSource(seed).child(1), NoiseSource(seed).child(1)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(rounds):  # all-positive labels keep the weights at zero throughout
        x = _probe_both(fast, slow, history, fast_noise, slow_noise)
        label = {"positive": 1, "negative": -1}.get(labels, int(rng.choice([-1, 1])))
        history.append((x, label))
    # a history that differs from the consumed one before its end forces a replay
    j = mismatch % rounds
    replayed = history[:j] + [(history[j][0], -history[j][1])] + history[j + 1:]
    for h in (replayed, replayed[: j + 1], history, []):
        _probe_both(fast, slow, h, fast_noise, slow_noise)


def test_boundary_probe_clips_to_the_box():
    adv = BoundaryProbeAdversary((0.0, -1.0), (1.0, 0.0), tau=25.0)
    pairs = [((0.5, -0.5), -1), ((0.25, -0.75), 1)]
    ns = NoiseSource(4)
    for j in range(3):
        x = adv.next_query(pairs[:j], ns)
        assert 0.0 <= x[0] <= 1.0 and -1.0 <= x[1] <= 0.0
    assert 0.0 in x or 1.0 in x or -1.0 in x  # tau far exceeds the box: the probe was clipped


def test_van_der_corput_properties():
    points = van_der_corput_queries(64, 64)
    xs = [p[0] for p in points]
    assert all(1 <= x <= 64 for x in xs)
    assert len(set(xs)) == 64  # full sweep before any repetition
    assert xs[0] == 1.0


@pytest.mark.parametrize("low, high", [((0.0,), (0.0,)), ((-1.0,), (-1.0,)), ((0.0,), (1.0,))])
def test_boundary_probe_keeps_signed_zero_products_at_d1(low, high):
    """At d = 1 the first pair meets zero weights at x = -1, a -0.0 product;
    the next two leave weights (-0.5, 0.0), so a base of 0.0, as the
    zero-width box at 0 draws, makes the shift's product -0.0 as well."""
    history = [((-1.0,), 1), ((1.0,), -1), ((0.5,), 1)]
    assert math.copysign(1.0, adversaries._dot([0.0], (-1.0,))) == -1.0
    assert math.copysign(1.0, adversaries._dot([-0.5], [0.0])) == -1.0
    fast, slow = BoundaryProbeAdversary(low, high, 0.11), BoundaryProbeOracle(low, high, 0.11)
    for seed in range(4):
        fast_noise, slow_noise = NoiseSource(seed), NoiseSource(seed)
        for j in range(len(history) + 1):
            _probe_both(fast, slow, history[:j], fast_noise, slow_noise)
    assert fast._w == [-0.5, 0.0]


def test_boundary_probe_replays_only_when_the_last_pair_seen_changes():
    """The pair seen last is found by identity in an appended history, and by
    equality in a copy of it; neither replays the perceptron.  A copy whose
    last seen label differs replays it from zero weights."""
    adv = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), 0.1)
    noise = NoiseSource(5)
    history = []
    for j in range(12):
        x = adv.next_query(history, noise)
        history.append((x, 1 if j % 3 else -1))
    adv.next_query(history, noise)
    resets = []
    set_weights = adv._set_weights
    adv._set_weights = lambda w: (resets.append(list(w)), set_weights(w))
    copy = [(tuple(x), label) for x, label in history]
    for h in (history, copy):
        x = adv.next_query(h, NoiseSource(6))
        assert x == BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), 0.1).next_query(h, NoiseSource(6))
    assert resets == []
    changed = copy[:-1] + [(copy[-1][0], -copy[-1][1])]
    x = adv.next_query(changed, NoiseSource(6))
    assert resets[0] == [0.0, 0.0, 0.0]
    assert x == BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), 0.1).next_query(changed, NoiseSource(6))
