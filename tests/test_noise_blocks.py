"""The block-buffered noise draws of ``NoiseSource`` against the scalar oracle
in ``noise_oracle.py``, plus the draw contract (structural draws first) and
the zero-noise fake.

Agreement is exact: the same doubles, outcomes and labels, compared bit for
bit, including a 0.0 draw placed inside a block or as a block's last double,
which ``uniform`` rejects and ``doubles`` hands out.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_oracle import ScalarNoise
from privpredict.core import BLOCK_CAP, FIRST_BLOCK, POSITIVE, NoiseSource, UsageError
from privpredict.dp import BTParams, bt_init, laplace
from privpredict.predictor import answer_query
from zero_noise import ZeroNoise

PARAMS = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=10**6)


def block_sizes():
    size = FIRST_BLOCK
    while True:
        yield size
        size = min(2 * size, BLOCK_CAP)


def block_ends(count: int) -> list[int]:
    """Stream positions of the last double of each of the first ``count`` blocks."""
    return [end - 1 for end in itertools.accumulate(itertools.islice(block_sizes(), count))]


class ZeroAt:
    """A generator whose doubles at the chosen stream positions are 0.0.

    Every other double comes from a seeded PCG64 generator.  Scalar and block
    calls advance one shared position, so both see the same stream.
    """

    def __init__(self, seed: int, zeros):
        self._real = np.random.default_rng(seed)
        self._zeros = frozenset(zeros)
        self._pos = 0
        self.sizes: list[int] = []

    def random(self, size=None):
        if size is None:
            value = self._real.random()
            if self._pos in self._zeros:
                value = 0.0
            self._pos += 1
            return value
        self.sizes.append(size)
        values = self._real.random(size)
        for i in range(size):
            if self._pos + i in self._zeros:
                values[i] = 0.0
        self._pos += size
        return values


def replay(noise: NoiseSource, ops) -> list:
    """Run ``ops`` on ``noise``; floats are recorded as hex, so equality is bitwise."""
    state = None
    out = []
    for op, q in ops:
        if op == "uniform":
            out.append(noise.uniform().hex())
        elif op == "coin":
            out.append(noise.coin())
        elif op == "doubles":
            out.append([u.hex() for u in noise.doubles(q)])
        elif op == "bt_init" or state is None or state.halted:
            state = bt_init(PARAMS, noise)
            out.append((state.noisy_lower.hex(), state.noisy_upper.hex()))
        else:
            out.append(answer_query(state, q, noise))
    out.append(noise.uniform().hex())  # both sources end at the same stream position
    return out


OPS = st.lists(
    st.tuples(st.sampled_from(["uniform", "coin", "bt_init", "answer_query"]),
              st.floats(0.0, 1.0))
    | st.tuples(st.just("doubles"), st.integers(0, BLOCK_CAP + 3)),  # (op, count)
    max_size=300,
)


@given(seed=st.integers(0, 2**32 - 1), key=st.lists(st.integers(0, 2**16), max_size=3),
       ops=OPS, zeros=st.sets(st.sampled_from(block_ends(7)) | st.integers(0, 520), max_size=6),
       fake=st.booleans())
@settings(max_examples=150, deadline=None)
def test_buffered_draws_match_scalar_oracle(seed, key, ops, zeros, fake):
    buffered, scalar = NoiseSource(seed, tuple(key)), ScalarNoise(seed, tuple(key))
    if fake:
        buffered._rng, scalar._rng = ZeroAt(seed, zeros), ZeroAt(seed, zeros)
    assert replay(buffered, ops) == replay(scalar, ops)


ZERO_PLACES = [
    {1},                                      # inside the first block
    {FIRST_BLOCK - 1},                        # the first block's last double
    {FIRST_BLOCK},                            # the second block's first double
    {FIRST_BLOCK - 1, FIRST_BLOCK},           # a rejection that crosses the edge twice
    set(range(FIRST_BLOCK)),                  # a whole block rejected
    set(block_ends(8)),                       # the last double of every block, past the cap
]


@pytest.mark.parametrize("zeros", ZERO_PLACES)
def test_zero_draw_consumes_the_next_double(zeros):
    count = sum(itertools.islice(block_sizes(), 8)) + 5
    raw = ZeroAt(3, zeros).random(count).tolist()
    buffered, scalar = NoiseSource(0), ScalarNoise(0)
    buffered._rng, scalar._rng = ZeroAt(3, zeros), ZeroAt(3, zeros)
    expected = [u for u in raw if u > 0.0]
    drawn = [buffered.uniform() for _ in expected]
    assert [u.hex() for u in drawn] == [u.hex() for u in expected]
    assert [scalar.uniform() for _ in expected] == drawn


@pytest.mark.parametrize("zeros", ZERO_PLACES)
def test_doubles_hand_out_a_zero_draw(zeros):
    count = sum(itertools.islice(block_sizes(), 8)) + 5
    raw = ZeroAt(3, zeros).random(count).tolist()
    buffered = NoiseSource(0)
    buffered._rng = ZeroAt(3, zeros)
    # one draw, then a block's worth across the edge, then the rest past the cap
    sizes = (1, FIRST_BLOCK, count - 1 - FIRST_BLOCK)
    drawn = [u for size in sizes for u in buffered.doubles(size)]
    assert [u.hex() for u in drawn] == [u.hex() for u in raw]
    assert 0.0 in drawn


def test_coin_takes_a_zero_draw_as_negative():
    buffered = NoiseSource(0)
    buffered._rng = ZeroAt(3, {FIRST_BLOCK - 1})
    raw = ZeroAt(3, {FIRST_BLOCK - 1}).random(2 * FIRST_BLOCK).tolist()
    assert [buffered.coin() for _ in raw] == [POSITIVE if u >= 0.5 else -1 for u in raw]


def test_blocks_start_small_and_double_up_to_the_cap():
    source = NoiseSource(0)
    source._rng = spy = ZeroAt(0, ())
    source.uniform()
    assert spy.sizes == [FIRST_BLOCK]
    for _ in range(sum(itertools.islice(block_sizes(), 9)) - 1):
        source.uniform()
    assert spy.sizes == list(itertools.islice(block_sizes(), 9))
    assert spy.sizes[-2:] == [BLOCK_CAP, BLOCK_CAP]


def test_new_sources_and_children_do_no_work():
    parent = NoiseSource(5)
    child = parent.child(2)
    assert set(vars(parent)) == set(vars(child)) == {"seed", "_spawn_key"}


@pytest.mark.parametrize("draw", [NoiseSource.uniform, NoiseSource.coin,
                                  lambda ns: ns.doubles(1),
                                  lambda ns: laplace(1.0, ns), lambda ns: bt_init(PARAMS, ns)])
def test_structural_draw_after_a_noise_draw_raises(draw):
    source = NoiseSource(11)
    source.permutation(5)
    source.rng.integers(3)
    draw(source)
    with pytest.raises(UsageError, match="structural draw"):
        source.permutation(5)
    with pytest.raises(UsageError, match="structural draw"):
        source.rng
    source.child(0).permutation(5)  # a child is a fresh source


def test_zero_noise_fake_overrides_both_primitives():
    assert {"uniform", "coin"} <= set(vars(ZeroNoise))
    fake = ZeroNoise(1)
    assert [fake.uniform(), fake.coin()] == [0.5, POSITIVE]
    assert isinstance(fake.child(0), ZeroNoise)
    fake.permutation(4)  # it buffers nothing, so structural draws stay allowed
