"""The batched halfspace candidate/depth kernel against its scalar oracle, and
the one-pass block error against ``empirical_error``.

Agreement is exact: candidate arrays bit for bit, the argmax point bit for bit
and its depth as the same integer.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adversary_oracle
import depth_oracle as oracle
from privpredict import geometry, harness, predictor
from privpredict.concepts import (
    EnumeratedClass,
    HalfspaceHypothesis,
    ThresholdHypothesis,
    evaluate_many,
)
from privpredict.core import CapabilityError, ConfigurationError, UsageError, empirical_error
from privpredict.geometry import DepthProfile, FeasibleSubspace
from privpredict.harness import ExperimentConfig, hypotheses_from_payload, run_trial


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert _same_bits(got, expected)
    if len(expected) == 0:
        return
    want = oracle.argmax_cdepth(profile, space, sphere)
    have = geometry.argmax_cdepth(profile, space, sphere)
    assert _same_bits(have.point, want.point)
    assert type(have.value) is int and have.value == want.value
    assert have.degenerate is want.degenerate is False


def test_rank_skip_on_parallel_normals():
    normals = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    profile, space = DepthProfile(normals), FeasibleSubspace.full(3)
    got = geometry.arrangement_candidates(profile, space, sphere_samples=0)
    assert _same_bits(got, oracle.arrangement_candidates(profile, space, sphere_samples=0))
    # the 3 pairs among the parallel normals are rank-deficient and skipped; the
    # other 3 pairs all cut out the same line, whose +/- points survive dedup
    assert len(got) == 2


def test_larger_constraint_count_matches_oracle():
    rng = np.random.default_rng(7)
    profile = DepthProfile(rng.standard_normal((60, 3)))
    space = FeasibleSubspace.full(3)
    want = oracle.argmax_cdepth(profile, space)
    have = geometry.argmax_cdepth(profile, space)
    assert _same_bits(have.point, want.point) and have.value == want.value


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
    expected = _oracle_blocks(normals, space, sphere)
    if isinstance(expected, type):
        with pytest.raises(expected):
            geometry.argmax_cdepth_blocks(normals, space, sphere)
        return
    points, depths = geometry.argmax_cdepth_blocks(normals, space, sphere)
    assert points.shape == (len(normals), space.ambient_dim) and depths.shape == (len(normals),)
    for b, want in enumerate(expected):
        assert _same_bits(points[b], want.point)
        assert isinstance(depths[b], np.integer) and int(depths[b]) == want.value


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
    _, counts = geometry._block_candidates(normals, space.basis, geometry._lifted_sphere(space.basis, 8))
    assert len(set(counts.tolist())) == 3  # three count groups, one of them of two blocks
    _assert_blocks_match(normals, space, 8)
    monkeypatch.setattr(geometry, "KERNEL_BYTES", 1)  # one block per chunk
    _assert_blocks_match(normals, space, 8)
    for r in (2, 1, 0):
        space, _ = space.intersect(np.array([0.2, -0.5, 1.0]) if r == 2 else space.basis[:, 0])
        assert space.dimension == r
        _assert_blocks_match(normals, space, 8)


def test_tie_break_compares_points_rounded_to_9_decimals():
    # integral normals whose max-depth candidates differ first in a coordinate
    # that is 0 up to SVD residue (about 1e-16): rounding makes it a tie
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


# --- whole runs: the batched kernel and block error leave reports byte-identical ---


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


def _assert_block_error_matches_scalar(seen):
    for sample, report in seen:
        hyps = hypotheses_from_payload({"final_hypotheses": report.final_hypotheses})
        assert report.max_block_error == max(empirical_error(h, sample) for h in hyps)


def test_halfspace_trials_byte_identical_to_scalar_kernel(monkeypatch):
    cfg = _halfspace_config()
    batched, seen = _runs_with_samples(cfg, (0, 1), monkeypatch)
    refits = []

    def per_block_oracle(normals, subspace, sphere_samples=64):
        results = [oracle.argmax_cdepth(DepthProfile(block), subspace, sphere_samples)
                   for block in normals]
        refits.append(len(results))
        return np.array([r.point for r in results]), np.array([r.value for r in results])

    monkeypatch.setattr(geometry, "argmax_cdepth_blocks", per_block_oracle)
    monkeypatch.setattr(harness, "BoundaryProbeAdversary", adversary_oracle.BoundaryProbeOracle)
    scalar = [_canonical(*run_trial(cfg, i)) for i in (0, 1)]
    assert refits and set(refits) == {40}  # every refresh refit all k = 600 // 15 blocks
    assert batched == scalar
    _assert_block_error_matches_scalar(seen)


def test_oblivious_block_error_matches_empirical_error(monkeypatch):
    _, seen = _runs_with_samples(_oblivious_config(), (0,), monkeypatch)
    _assert_block_error_matches_scalar(seen)


# --- evaluate_many: the ensemble labels every point as evaluate does ---


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_evaluate_many_halfspaces_match_evaluate(seed, d):
    rng = np.random.default_rng(seed)
    hyps = [HalfspaceHypothesis.from_vector(rng.standard_normal(d + 1)) for _ in range(4)]
    hyps.append(HalfspaceHypothesis.from_vector(np.zeros(d + 1)))  # degenerate: +1 everywhere
    points = [tuple(rng.uniform(-1, 1, d)) for _ in range(20)]
    a, w = np.asarray(hyps[0].weights[:-1]), hyps[0].weights[-1]
    for x in rng.uniform(-1, 1, (20, d)):  # on hyps[0]'s boundary, where rounding decides
        points.append(tuple(float(c) for c in x - (a @ x - w) * a / (a @ a)))
    expected = [[h.evaluate(p) for p in points] for h in hyps]
    assert np.array_equal(evaluate_many(hyps, points), expected)


def test_evaluate_many_thresholds_and_enumerated():
    thresholds = [ThresholdHypothesis(t) for t in (1, 5, 6, 11)]
    points = [(float(x),) for x in range(0, 12)] + [(5.5,), (-3.0,)]
    assert np.array_equal(evaluate_many(thresholds, points),
                          [[h.evaluate(p) for p in points] for h in thresholds])
    concept = EnumeratedClass([(0.0,), (1.0,), (2.0,)], [[1, -1, 1], [-1, -1, 1]])
    hyps = concept.hypotheses()
    points = [(2.0,), (0.0,), (1.0,), (0.0,)]
    assert np.array_equal(evaluate_many(hyps, points), [[1, 1, -1, 1], [1, -1, -1, -1]])
    with pytest.raises(UsageError):
        evaluate_many(thresholds, [(1.0, 2.0)])
    with pytest.raises(UsageError):
        evaluate_many([HalfspaceHypothesis((1.0, 0.0, 0.0))], [(1.0,)])
