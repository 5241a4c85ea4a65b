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


def test_cap_error_comes_first_and_is_unchanged():
    profile = DepthProfile(np.random.default_rng(0).standard_normal((80, 4)))
    space = FeasibleSubspace.full(4)
    messages = []
    for kernel in (oracle.arrangement_candidates, geometry.arrangement_candidates):
        with pytest.raises(CapabilityError) as info:
            kernel(profile, space, 64, 2000)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[1].startswith(f"{2 * math.comb(80, 3)} boundary candidates exceed the cap 2000")
    with pytest.raises(CapabilityError):
        geometry.argmax_cdepth(profile, space, 64, 2000)


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
    monkeypatch.setattr(geometry, "argmax_cdepth", oracle.argmax_cdepth)
    scalar = [_canonical(*run_trial(cfg, i)) for i in (0, 1)]
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
