"""The halfspace signs that numpy decides, against the numpy expressions they
replace (``sign_oracle``): ``BoxDistribution.label`` against ``np.dot``, and the
stack of (1 x d) @ (d x 1) products that ``BoxDistribution.labels`` takes in
place of one ``np.dot`` per point.  Also the label's wrong-dimension errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sign_oracle
from privpredict.core import BoxDistribution


def _same(u, v) -> bool:
    """Equal floats, telling -0.0 from 0.0; any NaN equals any NaN."""
    return len(u) == len(v) and all(
        (p != p and q != q) or (p == q and math.copysign(1.0, p) == math.copysign(1.0, q))
        for p, q in zip(u, v))


def test_box_label_decides_and_falls_back_as_numpy():
    # points on the boundary, one ulp off it and far from it
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
                assert dist.labels([p])[0] == sign_oracle.box_label(normal, offset, p)


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


def test_wrong_dimension_raises_in_label():
    dist = BoxDistribution((-1.0, -1.0), (1.0, 1.0), (0.6, -0.8), 0.1)
    for p in ((0.5,), (0.5, 0.5, 0.5)):
        with pytest.raises(ValueError):
            sign_oracle.box_label(dist.normal, dist.offset, p)
        with pytest.raises(ValueError):
            dist.labels([p])
