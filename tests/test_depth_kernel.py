"""The batched halfspace candidate/depth kernel against its scalar oracle; the
one-pass block error against ``empirical_error`` under the vote's rule; and the
ensembles' ``vote``, ``votes`` and ``labels`` against per-point references.

The kernel takes boundary directions in closed form for r <= 3, where the
oracle runs an SVD, so the two agree in every count and depth but not in the
last bits of a point.  Against the oracle, candidate counts, rank skips and
depths are exactly equal, and points agree to POINT_TOL, with a boundary's
+dir, -dir pair matched in either order (the sign of a null vector is
arbitrary).  Where both sides run the kernel (chunked against whole,
multi-block against one block) the points agree bit for bit.
"""

import dataclasses
import itertools
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adversary_oracle
import depth_oracle as oracle
import enumerated_oracle
from privpredict import geometry, harness, predictor
from privpredict.concepts import (
    EnumeratedClass,
    EnumeratedEnsemble,
    HalfspaceEnsemble,
    ThresholdEnsemble,
)
from privpredict.core import CapabilityError, ConfigurationError, empirical_error
from privpredict.geometry import DepthProfile, FeasibleSubspace
from privpredict.harness import ExperimentConfig, run_trial
from threshold_oracle import ThresholdHypothesis


POINT_TOL = 1e-12  # max-abs difference of kernel and oracle points


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= POINT_TOL))


def _assert_candidates_match(profile: DepthProfile, got: np.ndarray, want: np.ndarray):
    """Kernel candidates against the oracle's: the same count, each row within
    POINT_TOL of the oracle row or of its pair partner, and the same depths.

    Boundary candidates come in (+dir, -dir) pairs at even offsets, and the
    dedup keeps or drops both points of a pair, so the kernel's pair is the
    oracle's in one order or the other; the sphere rows follow in order.
    """
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.size == 0:
        return
    paired, width = len(want) // 2 * 2, want.shape[1]
    pairs, got_pairs = want[:paired].reshape(-1, 2, width), got[:paired].reshape(-1, 2, width)
    swap = (np.abs(got_pairs - pairs[:, ::-1]).max(axis=(1, 2))
            < np.abs(got_pairs - pairs).max(axis=(1, 2)))
    aligned = want.copy()
    aligned[:paired] = np.where(swap[:, None, None], pairs[:, ::-1], pairs).reshape(paired, -1)
    assert _close(got, aligned)
    assert np.array_equal(profile.depths(got), profile.depths(aligned))


def _outcome(fn, *args):
    """A result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (the oracle fails with unnamed errors)
        return type(exc)


def _instance(seed: int, ambient: int, r: int, n: int, copies: int, integral: bool):
    """Normals with duplicated and parallel rows, and an r-dimensional subspace."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n, ambient))
    if integral:
        normals = np.round(2.0 * normals)  # small integers: exact parallels and zero rows
    for _ in range(copies if n > 1 else 0):
        src, dst = rng.integers(0, n, size=2)
        normals[dst] = normals[src] * rng.choice([1.0, -1.0, 2.5, -0.5])
    space = FeasibleSubspace.full(ambient)
    while space.dimension > r:
        space, _ = space.intersect(rng.standard_normal(ambient))
    return DepthProfile(normals if n else np.zeros((0, ambient))), space


@given(
    seed=st.integers(0, 2**32 - 1),
    ambient=st.integers(3, 5),
    codim=st.integers(0, 4),
    n=st.integers(0, 40),
    copies=st.integers(0, 6),
    integral=st.booleans(),
    sphere=st.sampled_from([0, 8, 64]),
)
@settings(max_examples=120, deadline=None)
def test_batched_kernel_matches_scalar_oracle(seed, ambient, codim, n, copies, integral, sphere):
    r = max(1, ambient - codim)
    if r > 3:
        n = min(n, 18)  # keeps the oracle's C(n, r-1) SVDs few; the cap has its own test
    profile, space = _instance(seed, ambient, r, n, copies, integral)
    expected = _outcome(oracle.arrangement_candidates, profile, space, sphere)
    got = _outcome(geometry.arrangement_candidates, profile, space, sphere)
    if isinstance(expected, type):
        assert got is expected
        return
    _assert_candidates_match(profile, got, expected)
    if len(expected) == 0:
        return
    want = oracle.argmax_cdepth(profile, space, sphere)
    have = geometry.argmax_cdepth(profile, space, sphere)
    assert _close(have.point, want.point)
    assert type(have.value) is int and have.value == want.value
    assert have.degenerate is want.degenerate is False


def test_rank_skip_on_parallel_normals():
    normals = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    profile, space = DepthProfile(normals), FeasibleSubspace.full(3)
    got = geometry.arrangement_candidates(profile, space, sphere_samples=0)
    _assert_candidates_match(profile, got,
                             oracle.arrangement_candidates(profile, space, sphere_samples=0))
    # the 3 pairs among the parallel normals are rank-deficient and skipped; the
    # other 3 pairs all cut out the same line, whose +/- points survive dedup
    assert len(got) == 2


def test_larger_constraint_count_matches_oracle():
    rng = np.random.default_rng(7)
    profile = DepthProfile(rng.standard_normal((60, 3)))
    space = FeasibleSubspace.full(3)
    want = oracle.argmax_cdepth(profile, space)
    have = geometry.argmax_cdepth(profile, space)
    assert _close(have.point, want.point) and have.value == want.value


def test_empty_candidate_set_is_pinned():
    # one constraint in a plane-sized subspace: no pair of boundaries, no sphere draws
    profile, space = DepthProfile(np.array([[1.0, 2.0, 3.0]])), FeasibleSubspace.full(3)
    for kernel in (oracle.arrangement_candidates, geometry.arrangement_candidates):
        got = kernel(profile, space, 0)
        assert got.shape == (0,) and got.dtype == np.float64
    with pytest.raises(ConfigurationError, match="no depth candidates"):
        geometry.argmax_cdepth(profile, space, 0)


def test_sphere_sample_is_built_once_and_read_only():
    for r, samples in ((2, 64), (3, 64), (4, 16), (3, 0)):
        draws = np.random.default_rng(geometry._SPHERE_SEED).standard_normal((samples, r))
        fresh = [row / np.linalg.norm(row) for row in draws if np.linalg.norm(row) > 0]
        fresh = np.array(fresh).reshape(-1, r)
        cached = geometry.sphere_directions(r, samples)
        assert _same_bits(cached, fresh)
        assert geometry.sphere_directions(r, samples) is cached
        with pytest.raises(ValueError):
            cached[:1] = 0.0


@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(2, 4),
    count=st.integers(1, 30),
    kind=st.sampled_from(["gaussian", "integral", "near-rank-deficient"]),
    # both sides compute the smallest singular value with an absolute error of
    # about 1e-16 times the largest; above 1e2 that error alone reaches the
    # 1e-3 band around RANK_TOL, and the two decisions are equally arbitrary
    scale=st.integers(-12, 2),
)
@settings(max_examples=200, deadline=None)
def test_null_directions_match_svd(seed, r, count, kind, scale):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, r - 1, r))
    if kind == "integral":
        rows = np.round(2.0 * rows)  # exact parallels and zero rows
    elif kind == "near-rank-deficient":  # smallest singular value about 1e-14..1e-6
        gap = 10.0 ** rng.uniform(-14, -6, count)
        if r == 2:
            rows *= gap[:, None, None]
        else:
            rows[:, -1] = (rng.choice([1.0, -2.5, 0.5], count)[:, None] * rows[:, 0]
                           + gap[:, None] * rng.standard_normal((count, r)))
    rows *= 10.0 ** scale
    # each stacked matrix as one subset of a block of count * (r - 1) projected normals
    directions = geometry._null_directions(
        rows.reshape(1, -1, r), np.arange(count * (r - 1)).reshape(count, r - 1))[0]
    smallest = np.linalg.svd(rows, compute_uv=False)[:, -1]
    full = np.any(directions != 0.0, axis=1)
    decided = np.abs(smallest / geometry.RANK_TOL - 1.0) > 1e-3
    assert np.array_equal(full[decided], smallest[decided] > geometry.RANK_TOL)
    assert np.all(np.abs(np.linalg.norm(directions[full], axis=1) - 1.0) <= 1e-12)
    residual = np.abs(np.matmul(rows[full], directions[full][:, :, None]))[..., 0].max(axis=1)
    assert np.all(residual <= 1e-12 * np.linalg.norm(rows[full], axis=(1, 2)))


def test_cross_products_equal_np_cross_bit_for_bit():
    """The r = 3 null direction's cross product, written out by component,
    rounds as ``np.cross`` does: on strided stacks, with signed zeros,
    infinities, 1e+-300 and rows whose products give inf - inf = nan."""
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300,
                     1.0, -2.5, 3.0, np.nan])
    special = rng.choice(pool, (100_000, 2, 3))
    gaussian = rng.standard_normal((100_000, 2, 3)) * 10.0 ** rng.integers(-8, 9, (100_000, 1, 1))
    for rows in (special, gaussian, np.where(rng.random(special.shape) < 0.3, special, gaussian)):
        rows = rows.reshape(400, 250, 2, 3)
        a, b = rows[..., 0, :], rows[..., 1, :]
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            got, want = geometry._cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_subsets_are_cached_read_only_combinations():
    for n, size in [(0, 1), (1, 2), (5, 1), (6, 2), (7, 3)]:
        subsets = geometry._subsets(n, size)
        assert subsets.tolist() == [list(c) for c in itertools.combinations(range(n), size)]
        assert subsets.dtype == np.intp and geometry._subsets(n, size) is subsets
        assert not subsets.flags.writeable
        if len(subsets):
            with pytest.raises(ValueError):
                subsets[0] = 0



# --- the multi-block kernel: every block as the scalar oracle sees it alone ---


def _block_stack(seed: int, k: int, ambient: int, r: int, n: int, copies: int, integral: bool):
    """k blocks of n normals in one r-dimensional subspace; each block draws its
    own duplicated, parallel or integral rows, so candidate counts differ."""
    rng = np.random.default_rng(seed)
    blocks = []
    for b in range(k):
        profile, _ = _instance(seed + 1 + b, ambient, r, n, int(rng.integers(0, copies + 1)),
                               integral and bool(rng.integers(0, 2)))
        blocks.append(profile.normals.reshape(n, ambient))
    space = FeasibleSubspace.full(ambient)
    while space.dimension > r:
        space, _ = space.intersect(rng.standard_normal(ambient))
    return np.array(blocks).reshape(k, n, ambient), space


def _oracle_blocks(normals, space, sphere):
    """The scalar oracle on each block alone, or the error the batch must raise."""
    results = []
    for block in normals:
        profile = DepthProfile(block if len(block) else np.zeros((0, space.ambient_dim)))
        if space.dimension > 0:
            candidates = _outcome(oracle.arrangement_candidates, profile, space, sphere)
            if isinstance(candidates, type):
                return candidates
            if len(candidates) == 0:
                return ConfigurationError
        results.append(oracle.argmax_cdepth(profile, space, sphere))
    return results


def _assert_blocks_match(normals, space, sphere):
    """Each block against the oracle, and bit for bit against the kernel run
    on that block alone."""
    expected = _oracle_blocks(normals, space, sphere)
    if isinstance(expected, type):
        with pytest.raises(expected):
            geometry.argmax_cdepth_blocks(normals, space, sphere)
        return
    points, depths = geometry.argmax_cdepth_blocks(normals, space, sphere)
    assert points.shape == (len(normals), space.ambient_dim) and depths.shape == (len(normals),)
    for b, want in enumerate(expected):
        assert _close(points[b], want.point)
        assert isinstance(depths[b], np.integer) and int(depths[b]) == want.value
        alone = geometry.argmax_cdepth(DepthProfile(normals[b]), space, sphere)
        assert _same_bits(points[b], alone.point) and alone.value == int(depths[b])


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    ambient=st.integers(2, 5),
    codim=st.integers(0, 5),
    n=st.integers(0, 24),
    copies=st.integers(0, 6),
    integral=st.booleans(),
    sphere=st.sampled_from([0, 8, 64]),
    budget=st.sampled_from([None, 1, 50_000]),
)
@settings(max_examples=150, deadline=None)
def test_multi_block_kernel_matches_oracle_block_by_block(seed, k, ambient, codim, n, copies,
                                                          integral, sphere, budget):
    r = max(0, ambient - codim)
    if r > 3:
        n = min(n, 14)  # keeps the oracle's C(n, r-1) SVDs few; the cap has its own test
    normals, space = _block_stack(seed, k, ambient, r, n, copies, integral)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:  # 1 byte: one block per chunk; 50 kB: a few blocks per chunk
            patch.setattr(geometry, "KERNEL_BYTES", budget)
        _assert_blocks_match(normals, space, sphere)


def test_multi_block_kernel_groups_unequal_candidate_counts(monkeypatch):
    normals = np.array([
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, -1.0]],
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],  # parallel rows
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],  # duplicates
        [[0.3, -0.2, 0.9], [0.1, 0.5, -0.4], [-0.7, 0.2, 0.2], [0.6, 0.6, 0.1]],
    ])
    space = FeasibleSubspace.full(3)
    _, counts = geometry._block_candidates(normals, space.basis,
                                           geometry._lifted_sphere(space.basis, 8), geometry._Scratch())
    assert len(set(counts.tolist())) == 3  # three count groups, one of them of two blocks
    _assert_blocks_match(normals, space, 8)
    monkeypatch.setattr(geometry, "KERNEL_BYTES", 1)  # one block per chunk
    _assert_blocks_match(normals, space, 8)
    for r in (2, 1, 0):
        space, _ = space.intersect(np.array([0.2, -0.5, 1.0]) if r == 2 else space.basis[:, 0])
        assert space.dimension == r
        _assert_blocks_match(normals, space, 8)


# --- the workspace: kept across calls, never read before it is written ---


@pytest.mark.parametrize("budget", [None, 1, 50_000])
def test_workspace_keeps_no_stale_data_between_calls(budget, monkeypatch):
    """A large call, a smaller one at lower r, then the large one again share
    one workspace, and each is byte-equal to the same call run in a new
    workspace filled with NaN bytes, so no call reads what another left."""
    if budget is not None:
        monkeypatch.setattr(geometry, "KERNEL_BYTES", budget)
    large = _block_stack(11, 6, 4, 4, 12, 3, False)
    small = _block_stack(12, 2, 3, 2, 5, 2, True)
    shared = threading.local()
    buffers = []
    for normals, space in (large, small, large):
        monkeypatch.setattr(geometry, "_WORKSPACE", shared)
        got = geometry.argmax_cdepth_blocks(normals, space)
        buffers.append(shared.buffer)
        fresh = threading.local()
        fresh.buffer = np.full(1 << 21, 0xFF, dtype=np.uint8)
        monkeypatch.setattr(geometry, "_WORKSPACE", fresh)
        want = geometry.argmax_cdepth_blocks(normals, space)
        assert all(map(_same_bits, got, want))
    assert buffers[1] is buffers[0] and buffers[2] is buffers[0]  # reused, not reallocated


def test_tie_break_compares_points_rounded_to_9_decimals():
    # integral normals whose max-depth candidates differ first in a coordinate
    # that is 0 up to the residue (about 1e-16) of the SVD that both kernels
    # still run at r = 4: rounding makes it a tie
    block = np.array([[0.0, -0.0, -0.0, 1.0], [1.0, 0.0, 0.0, -2.0], [1.0, -1.0, 2.0, 3.0],
                      [-3.0, 3.0, -1.0, -2.0], [-0.0, 1.0, 2.0, 6.0], [-3.0, -1.0, 1.0, -1.0]])
    space = FeasibleSubspace.full(4)
    candidates = geometry.arrangement_candidates(DepthProfile(block), space, 0)
    depths = DepthProfile(block).depths(candidates)
    unrounded = candidates[np.lexsort((*candidates.T[::-1], -depths))[0]]
    assert not _same_bits(oracle.argmax_cdepth(DepthProfile(block), space, 0).point, unrounded)
    _assert_blocks_match(np.array([block, block[::-1], block[[1, 0, 3, 2, 5, 4]]]), space, 0)


def test_multi_block_kernel_errors_and_degenerate_case():
    space = FeasibleSubspace.full(4)
    normals = np.random.default_rng(0).standard_normal((3, 80, 4))
    with pytest.raises(CapabilityError, match=f"^{2 * math.comb(80, 3)} boundary candidates"):
        geometry.argmax_cdepth_blocks(normals, space, 64)
    # a second block with a single boundary has no candidates without sphere draws
    lonely = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]])
    with pytest.raises(ConfigurationError, match="no depth candidates"):
        geometry.argmax_cdepth_blocks(lonely, FeasibleSubspace.full(3), 0)
    zero = FeasibleSubspace(np.zeros((3, 0)))
    points, depths = geometry.argmax_cdepth_blocks(lonely, zero, 0)
    assert _same_bits(points, np.zeros((2, 3))) and depths.tolist() == [2, 2]
    assert geometry.argmax_cdepth(DepthProfile(lonely[0]), zero, 0).degenerate


def test_cap_error_comes_first_and_is_unchanged():
    profile = DepthProfile(np.random.default_rng(0).standard_normal((80, 4)))
    space = FeasibleSubspace.full(4)
    messages = []
    for kernel in (oracle.arrangement_candidates, geometry.arrangement_candidates):
        with pytest.raises(CapabilityError) as info:
            kernel(profile, space, 64)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[1].startswith(
        f"{2 * math.comb(80, 3)} boundary candidates exceed the cap {geometry.CANDIDATE_CAP}")
    with pytest.raises(CapabilityError):
        geometry.argmax_cdepth(profile, space, 64)


# --- the dedup precheck: the lexsort runs only where two candidates may be equal ---


def _dedup_calls(patch) -> list[dict]:
    """Patch in spies that record each ``_first_occurrences`` call's inputs and
    result, and whether it went on to the lexsort."""
    calls = []
    first, first_sorted = geometry._first_occurrences, geometry._first_occurrences_sorted

    def sorted_spy(*args):
        calls[-1]["sorted"] = True
        return first_sorted(*args)

    def spy(points, blocks, k):
        calls.append({"args": (points.copy(), blocks.copy(), k), "sorted": False})
        calls[-1]["result"] = first(points, blocks, k)
        return calls[-1]["result"]

    patch.setattr(geometry, "_first_occurrences", spy)
    patch.setattr(geometry, "_first_occurrences_sorted", sorted_spy)
    return calls


def _assert_dedup_matches_the_lexsort(normals, space, sphere) -> dict:
    """One ``_block_candidates`` call: its points and counts bit-equal to the
    lexsort run alone on the same candidates.  Returns the recorded call."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _dedup_calls(patch)
        geometry._block_candidates(normals, space.basis,
                                   geometry._lifted_sphere(space.basis, sphere), geometry._Scratch())
    (call,) = calls
    (points, counts), (want_points, want_counts) = \
        call["result"], geometry._first_occurrences_sorted(*call["args"])
    assert _same_bits(points, want_points) and _same_bits(counts, want_counts)
    if len(want_points) < len(call["args"][0]):
        assert call["sorted"]
    return call


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    ambient=st.integers(2, 4),
    codim=st.integers(0, 2),
    n=st.integers(0, 16),
    copies=st.integers(0, 6),
    integral=st.booleans(),
    sphere=st.sampled_from([0, 8]),
)
@settings(max_examples=150, deadline=None)
def test_dedup_precheck_matches_the_lexsort(seed, k, ambient, codim, n, copies, integral, sphere):
    """Duplicated, parallel and integral normals give equal candidates, which
    take the lexsort; Gaussian normals give none and keep every candidate."""
    r = max(1, ambient - codim)
    normals, space = _block_stack(seed, k, ambient, r, n, copies, integral)
    call = _assert_dedup_matches_the_lexsort(normals, space, sphere)
    if copies == 0 and not integral:
        assert not call["sorted"]


def test_dedup_precheck_takes_both_branches():
    space = FeasibleSubspace.full(3)
    gaussian = np.random.default_rng(3).standard_normal((2, 6, 3))
    assert not _assert_dedup_matches_the_lexsort(gaussian, space, 8)["sorted"]
    parallel = gaussian.copy()
    parallel[1, 4] = -2.5 * parallel[1, 0]
    call = _assert_dedup_matches_the_lexsort(parallel, space, 8)
    assert call["sorted"] and len(call["result"][0]) < len(call["args"][0])


def test_acceptance_halfspace_trial_takes_the_fast_dedup_branch(monkeypatch):
    calls = _dedup_calls(monkeypatch)
    run_trial(_halfspace_config(), 0)
    assert calls and not any(call["sorted"] for call in calls)


# --- the kernel against its form before each boundary line was lifted once ---


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([1, 2, 7]),
    r=st.integers(1, 5),
    extra=st.integers(0, 2),
    n=st.integers(0, 16),
    copies=st.integers(0, 6),
    integral=st.booleans(),
    sphere=st.sampled_from([0, 8, 64]),
    budget=st.sampled_from([None, 1, 50_000]),
)
@settings(max_examples=100, deadline=None)
def test_kernel_matches_the_batched_oracle_bit_for_bit(seed, k, r, extra, n, copies, integral,
                                                       sphere, budget):
    """Integral, duplicated and parallel normals give equal candidates (the
    lexsort dedup) and rank-deficient subsets (zero directions, the mask
    path); a 1-byte budget gives one block per chunk, 50 kB a few."""
    if r > 3:
        n = min(n, 9)  # keeps C(n, r-1) small
    normals, space = _block_stack(seed, k, r + extra, r, n, copies, integral)
    sphere_points = geometry._lifted_sphere(space.basis, sphere)
    want_points, want_counts = oracle._block_candidates(normals, space.basis, sphere_points)
    got_points, got_counts = geometry._block_candidates(normals, space.basis, sphere_points,
                                                        geometry._Scratch())
    assert _same_bits(got_points, want_points) and _same_bits(got_counts, want_counts)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(geometry, "KERNEL_BYTES", budget)
        want = _outcome(oracle.argmax_cdepth_blocks, normals, space, sphere)
        got = _outcome(geometry.argmax_cdepth_blocks, normals, space, sphere)
    if isinstance(want, type):
        assert got is want
        return
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def _assembly_calls(patch) -> list[bool]:
    """Patch in a spy that records, for each ``_first_occurrences`` call,
    whether its points are the workspace view the candidates were built in
    (every direction nonzero) rather than a masked copy."""
    in_place = []
    first = geometry._first_occurrences

    def spy(points, blocks, k):
        in_place.append(np.shares_memory(points, geometry._WORKSPACE.buffer))
        return first(points, blocks, k)

    patch.setattr(geometry, "_first_occurrences", spy)
    return in_place


def test_acceptance_halfspace_trial_dedups_its_candidates_in_place(monkeypatch):
    in_place = _assembly_calls(monkeypatch)
    run_trial(_halfspace_config(), 0)
    assert in_place and all(in_place)


def test_zero_directions_take_the_mask_path():
    rng = np.random.default_rng(5)
    normals = rng.standard_normal((3, 6, 3))
    normals[1, 4] = -2.5 * normals[1, 0]  # a parallel pair: a zero direction in block 1
    space = FeasibleSubspace.full(3)
    with pytest.MonkeyPatch.context() as patch:
        in_place = _assembly_calls(patch)
        got = geometry.argmax_cdepth_blocks(normals, space, 8)
    assert in_place == [False]
    want = oracle.argmax_cdepth_blocks(normals, space, 8)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


# --- whole runs: the batched kernel and block error against the scalar ones ---


def _halfspace_config() -> ExperimentConfig:
    return ExperimentConfig(mode="halfspace", t_rounds=2**10, d=2, n_budget=600, bt_eps=8.0,
                            bt_delta=1e-2, alpha=0.1, beta=0.1, adversary_tau=0.11)


def _oblivious_config() -> ExperimentConfig:
    return ExperimentConfig(mode="oblivious", t_rounds=2**12, domain_size=2**14, k=52, m=40,
                            bt_eps=8.0, bt_delta=1e-3, alpha=0.1, beta=0.1)


def _canonical(row: dict, payload: dict) -> str:
    return json.dumps([row, payload], sort_keys=True, separators=(",", ":"))


def _runs_with_samples(cfg, trials, monkeypatch):
    """Canonical (row, payload) of each trial, plus each run's sample and report."""
    seen = []

    def spy(spec, sample, *args, **kwargs):
        report = predictor.run(spec, sample, *args, **kwargs)
        seen.append((sample, report))
        return report

    monkeypatch.setattr(harness, "run", spy)
    return [_canonical(*run_trial(cfg, i)) for i in trials], seen


def _halfspace_vote(weights: np.ndarray, x) -> np.ndarray:
    """The vote's rule at one point: +1 where a row of W @ (x, -1) is >= 0."""
    return np.where(weights @ np.asarray(tuple(x) + (-1.0,)) >= 0.0, 1, -1)


class _HalfspaceRow:
    """Row i of a weight matrix as a scalar hypothesis under the vote's rule."""

    def __init__(self, weights: np.ndarray, i: int):
        self.weights, self.i = weights, i

    def evaluate(self, p) -> int:
        return int(_halfspace_vote(self.weights, p)[self.i])


def _scalar_blocks(final_hypotheses) -> list:
    """The payload's block hypotheses, each with a scalar ``evaluate``."""
    if final_hypotheses[0]["kind"] == "threshold":
        return [ThresholdHypothesis(h["t"]) for h in final_hypotheses]
    weights = np.array([h["weights"] for h in final_hypotheses])
    return [_HalfspaceRow(weights, i) for i in range(len(weights))]


def _assert_block_error_matches_scalar(seen):
    for sample, report in seen:
        hyps = _scalar_blocks(report.final_hypotheses)
        assert report.max_block_error == max(empirical_error(h, sample) for h in hyps)


def _assert_same_but_last_bits_of_weights(batched: str, scalar: str):
    """Two canonical (row, payload) pairs: every field but the final weights
    and the block error equal, and the weights within POINT_TOL.

    The kernel's points differ from the oracle's in their last bits, and a
    sample point on its own block's boundary takes its label from them, so
    ``max_block_error`` may differ too; the rest of the run may not.
    """
    (row, payload), (want_row, want) = json.loads(batched), json.loads(scalar)
    skip = {"final_hypotheses", "max_block_error"}
    for record, expected in ((row, want_row), (payload, want)):
        assert {k: v for k, v in record.items() if k not in skip} == \
            {k: v for k, v in expected.items() if k not in skip}
    assert [h["kind"] for h in payload["final_hypotheses"]] == \
        [h["kind"] for h in want["final_hypotheses"]]
    weights = np.array([h["weights"] for h in payload["final_hypotheses"]])
    assert _close(weights, np.array([h["weights"] for h in want["final_hypotheses"]]))


def test_halfspace_trials_byte_identical_to_scalar_kernel(monkeypatch):
    """Whole halfspace runs against the per-block oracle kernel and the scalar
    adversary, to the contract of ``_assert_same_but_last_bits_of_weights``.
    (These two trials happen to be byte-identical; others differ in the last
    bits of their weights.)"""
    cfg = _halfspace_config()
    batched, seen = _runs_with_samples(cfg, (0, 1), monkeypatch)
    refits = []

    def per_block_oracle(normals, subspace, sphere_samples=64):
        results = [oracle.argmax_cdepth(DepthProfile(block), subspace, sphere_samples)
                   for block in normals]
        refits.append(len(results))
        return np.array([r.point for r in results]), np.array([r.value for r in results])

    monkeypatch.setattr(geometry, "argmax_cdepth_blocks", per_block_oracle)
    probes = []

    def scalar_probe(*args):
        probes.append(adversary_oracle.BoundaryProbeOracle(*args))
        return probes[-1]

    monkeypatch.setattr(harness, "BoundaryProbeAdversary", scalar_probe)
    scalar = [_canonical(*run_trial(cfg, i)) for i in (0, 1)]
    assert refits and set(refits) == {40}  # every refresh refit all k = 600 // 15 blocks
    # one oracle per run, told the label of every query but the last
    assert [len(probe.history) for probe in probes] == [cfg.t_rounds - 1] * 2
    for got, want in zip(batched, scalar, strict=True):
        _assert_same_but_last_bits_of_weights(got, want)
    _assert_block_error_matches_scalar(seen)


def test_oblivious_block_error_matches_empirical_error(monkeypatch):
    _, seen = _runs_with_samples(_oblivious_config(), (0,), monkeypatch)
    _assert_block_error_matches_scalar(seen)


# --- the ensemble: one vote rule for the vote, the block error and the payload ---


def _halfspace_adaptive_trial(seed: int, trial: int, monkeypatch):
    """One trial of the halfspace-adaptive configuration: its sample and report."""
    _, seen = _runs_with_samples(dataclasses.replace(_halfspace_config(), seed=seed),
                                 (trial,), monkeypatch)
    return seen[0]


def test_payload_weights_are_the_rows_that_voted(monkeypatch):
    # the payload used to renormalize the unit rows that voted, and in this
    # trial that moved their last bits
    _, report = _halfspace_adaptive_trial(1000, 3, monkeypatch)
    weights = np.array([h["weights"] for h in report.final_hypotheses])
    assert _same_bits(weights, report.ensemble.weights)
    last_top = report.top_rounds[-1]["round"]
    after = [r for r in report.rounds if r["round"] > last_top]
    assert after and all(r["q"] == report.ensemble.vote(r["x"]) / len(weights) for r in after)


def test_block_error_takes_the_vote_s_rule(monkeypatch):
    # dot(a, x) - w put a sample point on the other side of its block's
    # boundary than the vote puts it, and reported 0.09833
    sample, report = _halfspace_adaptive_trial(5000, 20, monkeypatch)
    assert report.max_block_error == 0.1
    _assert_block_error_matches_scalar([(sample, report)])


def _threshold_case(rng):
    thresholds = rng.integers(-2, 12, size=rng.integers(1, 8)).tolist()
    points = [(float(x),) for x in rng.integers(-3, 14, size=10)]
    points += [(float(x),) for x in rng.uniform(-3, 14, size=10)]
    expected = [[ThresholdHypothesis(t).evaluate(p) for p in points] for t in thresholds]
    return ThresholdEnsemble(thresholds), points, expected


def _halfspace_case(rng):
    d = int(rng.integers(1, 6))
    weights = rng.standard_normal((int(rng.integers(1, 6)), d + 1))
    weights /= np.linalg.norm(weights, axis=1)[:, None]
    weights = np.vstack([weights, np.zeros(d + 1)])  # a zero row votes +1 everywhere
    a, w = weights[0, :-1], weights[0, -1]
    points = [tuple(x) for x in rng.uniform(-1, 1, (10, d)).tolist()]
    for x in rng.uniform(-1, 1, (20, d)):  # on row 0's boundary, where rounding decides
        points.append(tuple((x - (a @ x - w) * a / (a @ a)).tolist()))
    expected = np.array([_halfspace_vote(weights, p) for p in points]).T
    return HalfspaceEnsemble(weights), points, expected


def _enumerated_case(rng):
    domain = [(float(i), float(i % 2)) for i in range(int(rng.integers(1, 5)))]
    patterns = np.unique(rng.choice((-1, 1), size=(8, len(domain))), axis=0)
    concept = EnumeratedClass(domain, patterns)
    rows = rng.integers(0, len(patterns), size=rng.integers(1, 8)).tolist()
    points = [domain[i] for i in rng.integers(0, len(domain), size=12)]
    expected = [[enumerated_oracle.hypothesis(concept, r).evaluate(p) for p in points] for r in rows]
    return EnumeratedEnsemble(concept, rows), points, expected


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from([_threshold_case, _halfspace_case,
                                                              _enumerated_case]))
@settings(max_examples=90, deadline=None)
def test_ensemble_vote_votes_and_labels_match_scalar_reference(seed, case):
    ensemble, points, expected = case(np.random.default_rng(seed))
    expected = np.asarray(expected)
    assert np.array_equal(ensemble.labels(points), expected)
    assert np.array_equal(ensemble.votes(points), (expected > 0).sum(axis=0))
    for x in points:
        assert ensemble.vote(x) == ensemble.votes([x])[0] == (ensemble.labels([x]) > 0).sum()
