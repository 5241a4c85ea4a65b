"""``core.certain_sign`` and its two callers against the numpy expressions they
replace (``sign_oracle``): a decided sign never contradicts numpy, and the
callers give numpy's labels and weights bit for bit, deciding or falling back.
Also the stack of (1 x d) @ (d x 1) products that ``BoxDistribution.labels``
takes in place of one ``np.dot`` per point."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sign_oracle
from privpredict import adversaries, core
from privpredict.adversaries import BoundaryProbeAdversary
from privpredict.core import NEGATIVE, POSITIVE, BoxDistribution, NoiseSource, certain_sign


def _same(u, v) -> bool:
    """Equal floats, telling -0.0 from 0.0; any NaN equals any NaN."""
    return len(u) == len(v) and all(
        (p != p and q != q) or (p == q and math.copysign(1.0, p) == math.copysign(1.0, q))
        for p, q in zip(u, v))


@st.composite
def scalars(draw):
    """Zeros, magnitudes from about 1e-150 to 1e150, subnormals and
    non-finite values."""
    kind = draw(st.sampled_from(("zero", "subnormal", "nonfinite") + ("scaled",) * 7))
    if kind == "zero":
        return draw(st.sampled_from((0.0, -0.0)))
    if kind == "subnormal":  # k * 2**-1074 is exact
        return draw(st.integers(-(2**52) + 1, 2**52 - 1)) * 5e-324
    if kind == "nonfinite":
        return draw(st.sampled_from((math.inf, -math.inf, math.nan)))
    mantissa = draw(st.floats(-2.0, 2.0, allow_nan=False))
    return math.ldexp(mantissa, draw(st.integers(-499, 498)))


@st.composite
def sign_cases(draw):
    """(a, x, c) with d = 1..4; x or c may be placed on the boundary
    sum(a * x) = c as floats compute it, and then moved one ulp either way."""
    d = draw(st.integers(1, 4))
    a = [draw(scalars()) for _ in range(d)]
    x = [draw(scalars()) for _ in range(d)]
    c = draw(scalars())
    place = draw(st.sampled_from(("free", "offset", "coordinate")))
    ulps = draw(st.integers(-1, 1))
    with np.errstate(all="ignore"):
        if place == "offset":  # c is exactly where numpy's product lands
            c = float(np.dot(a, x))
            if ulps:
                c = math.nextafter(c, math.copysign(math.inf, ulps))
        elif place == "coordinate":
            j = draw(st.integers(0, d - 1))
            rest = sum(ai * xi for i, (ai, xi) in enumerate(zip(a, x)) if i != j)
            if a[j] != 0.0 and math.isfinite(a[j]) and math.isfinite(c - rest):
                x[j] = (c - rest) / a[j]
                if ulps:
                    x[j] = math.nextafter(x[j], math.copysign(math.inf, ulps))
    return a, tuple(x), c


@given(case=sign_cases(), label=st.sampled_from((POSITIVE, NEGATIVE)))
@settings(max_examples=500, deadline=None)
def test_certain_sign_never_contradicts_numpy(case, label):
    a, x, c = case
    sign = certain_sign(a, x, c)
    with np.errstate(all="ignore"):
        want_label = sign_oracle.box_label(a, c, x)
        want_prediction = sign_oracle.perceptron_predicts(a + [c], x)
        want_weights = sign_oracle.perceptron_step(a + [c], x, label).tolist()
        if sign:
            assert sign == want_label == want_prediction
        if any(ai != 0.0 for ai in a):
            dist = BoxDistribution((-1.0,) * len(a), (1.0,) * len(a), tuple(a), c)
            assert dist.label(x) == want_label
        adv = BoundaryProbeAdversary((-1.0,) * len(a), (1.0,) * len(a), 0.1)
        adv._set_weights(a + [c])
        adv._sync([(x, label)])
    assert _same(adv._w, want_weights)


def test_certain_sign_examples():
    assert certain_sign([0.5, 0.25], (1.0, 2.0), 1.0) == 0  # exactly on the boundary
    assert certain_sign([0.5, 0.25], (1.0, 2.5), 1.0) == POSITIVE
    assert certain_sign([0.5, 0.25], (1.0, 1.5), 1.0) == NEGATIVE
    assert certain_sign([0.0, 0.0], (0.3, 0.7), 0.0) == 0  # zero weights: S = 0
    assert certain_sign([1e-160], (1e-160,), 0.0) == 0  # the product is subnormal
    # 2.5 + 0.5 - 3 = 0 in units of 2**-1074, but the products round to 2 and
    # 0, so the sum made here is -1: below 2**-900 nothing is decided
    tiny = 2.0**-537
    assert certain_sign([5 * tiny / 2, tiny / 2], (tiny, tiny), 3 * 5e-324) == 0
    assert certain_sign([1e200], (1e200,), 0.0) == 0  # it overflows
    for bad in (math.inf, math.nan):
        assert certain_sign([1.0, 1.0], (bad, 1.0), 0.0) == 0
    with pytest.raises(ValueError):
        certain_sign([1.0], (1.0, 2.0), 0.0)  # no silent truncation, as np.dot


def _counting(counts: Counter):
    def counted(a, x, c):
        sign = certain_sign(a, x, c)
        counts["decided" if sign else "fallback"] += 1
        return sign
    return counted


def test_box_label_decides_and_falls_back_as_numpy(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(core, "certain_sign", _counting(counts))
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        for _ in range(50):
            normal = tuple(rng.standard_normal(d).tolist())
            on = tuple(rng.uniform(-1.0, 1.0, d).tolist())
            offset = float(np.dot(normal, on))
            dist = BoxDistribution((-1.0,) * d, (1.0,) * d, normal, offset)
            near = [on[:i] + (math.nextafter(on[i], s),) + on[i + 1:]
                    for i in range(d) for s in (-2.0, 2.0)]
            far = [tuple(rng.uniform(-1.0, 1.0, d).tolist()) for _ in range(4)]
            for p in [on] + near + far:
                assert dist.label(p) == sign_oracle.box_label(normal, offset, p)
    assert counts["decided"] > 0 and counts["fallback"] > 0, counts


@st.composite
def stacked_cases(draw):
    """A vector a and an (n, d) stack of rows, d = 1..4, with entries of
    magnitude 1e-8 to 1e8 of either sign, and signed zeros."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(
        st.sampled_from((0.0, -0.0)),
        st.builds(lambda m, e: m * 10.0**e,
                  st.floats(1.0, 10.0).flatmap(lambda m: st.sampled_from((m, -m))),
                  st.integers(-8, 7)))
    a = draw(st.lists(entry, min_size=d, max_size=d))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=8))
    return np.array(a), np.array(rows)


@given(case=stacked_cases())
@settings(max_examples=300, deadline=None)
def test_stacked_products_equal_dot_bit_for_bit(case):
    a, rows = case
    stacked = np.matmul(rows[:, None, :], a[:, None])[:, 0, 0].tolist()
    for row, got in zip(rows, stacked):
        want = [float(np.dot(a, row)), float(a.dot(row)), float(np.dot(a, tuple(row.tolist())))]
        if len(a) == 1:
            # np.dot returns the one product as is, the stack adds it to +0.0:
            # a -0.0 comes out +0.0, which compares with any offset the same
            want = [w + 0.0 for w in want]
        assert _same([got] * 3, want), (a, row)


def test_probe_perceptron_decides_and_falls_back_as_numpy(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(adversaries, "certain_sign", _counting(counts))
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        adv = BoundaryProbeAdversary((-1.0,) * d, (1.0,) * d, 0.11)
        noise = NoiseSource(d)
        w = np.zeros(d + 1)
        history = []
        for _ in range(60):
            x = adv.next_query(history, noise)
            label = int(rng.choice([-1, 1]))
            w = sign_oracle.perceptron_step(w, x, label)
            history.append((x, label))
        adv.next_query(history, noise)
        assert _same(adv._w, w.tolist())
    assert counts["decided"] > 0 and counts["fallback"] > 0, counts


def test_wrong_dimension_raises_in_label_and_sync():
    dist = BoxDistribution((-1.0, -1.0), (1.0, 1.0), (0.6, -0.8), 0.1)
    for p in ((0.5,), (0.5, 0.5, 0.5)):
        with pytest.raises(ValueError):
            sign_oracle.box_label(dist.normal, dist.offset, p)
        with pytest.raises(ValueError):
            dist.label(p)
    # zero weights, and the weights after one update
    for history in ([], [((0.5, 0.5), -1)]):
        for p in ((0.5,), (0.5, 0.5, 0.5)):
            adv = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), 0.11)
            adv.next_query(history, NoiseSource(0))
            with pytest.raises(ValueError):
                sign_oracle.perceptron_predicts(adv._w, p)
            with pytest.raises(ValueError):
                adv.next_query(history + [(p, 1)], NoiseSource(0))
