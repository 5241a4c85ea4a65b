import gc
import itertools
import json
import math

import numpy as np
import pytest

from privpredict.adversaries import BoundaryProbeAdversary, OfflineAdversary, van_der_corput_queries
import enumerated_oracle
from depth_analysis import to_constraint
from privpredict.concepts import EnumeratedClass, ThresholdClass
from privpredict.core import (
    AtomDistribution,
    BoxDistribution,
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    draw_sample,
)
from privpredict import harness, predictor
from privpredict.dp import PrivacyLedger, compose_advanced
from privpredict.predictor import (
    RunSpec,
    _HalfspaceGenerator,
    _ObliviousGenerator,
    default_v_max,
    run,
)
from threshold_oracle import ThresholdHypothesis
from zero_noise import ZeroNoise


def _unanimous_run(label):
    # 52 singleton blocks over a point mass; accuracy is trivial, votes unanimous
    atom_x = 50.0
    dist = AtomDistribution(((atom_x,),), (1.0,), (label,))
    spec = RunSpec(k=52, m=1, t_rounds=1, bt_eps=8.0, bt_delta=1e-3, v_max=5)
    sample = draw_sample(dist, 52, NoiseSource(1))
    query = (atom_x,) if label > 0 else (atom_x - 20.0,)
    adversary = OfflineAdversary((query,))
    return run(spec, sample, adversary, ZeroNoise(2),
               concept=ThresholdClass(100), target=dist if label > 0 else None)


def test_zero_noise_unanimous_rounds():
    up = _unanimous_run(1)
    assert up.rounds[0]["outcome"] == "R" and up.rounds[0]["label"] == 1
    down = _unanimous_run(-1)
    assert down.rounds[0]["outcome"] == "L" and down.rounds[0]["label"] == -1


def _split_sample():
    pts = [((99.0,), 1)] * 26 + [((1.0,), -1)] * 26
    return LabeledSample.from_records(pts)


def test_zero_noise_split_vote_is_hard():
    spec = RunSpec(k=52, m=1, t_rounds=1, bt_eps=8.0, bt_delta=1e-3, v_max=5)
    adversary = OfflineAdversary(((1.0,),))  # 26 blocks vote +1 (t=1), 26 vote -1 (t=2)
    report = run(spec, _split_sample(), adversary, ZeroNoise(3),
                 concept=ThresholdClass(100))
    [entry] = report.rounds
    assert entry["outcome"] == "top"
    assert entry["q"] == 0.5
    assert entry["label"] == 1  # zero-noise coin convention
    assert report.top_count == 1
    assert len(report.top_rounds) == 1


def test_budget_abort():
    spec = RunSpec(k=52, m=1, t_rounds=3, bt_eps=8.0, bt_delta=1e-3, v_max=0)
    adversary = OfflineAdversary(((1.0,), (1.0,), (1.0,)))
    report = run(spec, _split_sample(), adversary, ZeroNoise(3),
                 concept=ThresholdClass(100))
    assert report.aborted
    assert report.top_count == 1
    assert len(report.rounds) == 1  # the budget-exceeding round is the last one
    # the final ensemble is refit after that round: every block labels 1 positive
    assert report.final_hypotheses == [{"kind": "threshold", "t": 1}] * 52


def test_empty_transcript_run():
    spec = RunSpec(k=4, m=1, t_rounds=0, bt_eps=30.0, bt_delta=0.2, v_max=2)
    dist = GridDistribution(64, 30)
    sample = draw_sample(dist, 4, NoiseSource(0))
    report = run(spec, sample, OfflineAdversary(()), NoiseSource(1),
                 concept=ThresholdClass(64))
    assert report.rounds == []
    assert (report.eps_total, report.delta_total) == (0.0, predictor.DELTA_PRIME)


def test_sample_size_checked():
    spec = RunSpec(k=4, m=2, t_rounds=1, bt_eps=30.0, bt_delta=0.2, v_max=2)
    sample = draw_sample(GridDistribution(64, 30), 4, NoiseSource(0))
    with pytest.raises(ConfigurationError):
        run(spec, sample, OfflineAdversary(((1.0,),)), NoiseSource(1),
            concept=ThresholdClass(64))


def test_default_v_max_values():
    assert default_v_max(1, 1024, 0.1) == math.ceil(4 * (10 + math.log2(10)))


def _criterion_style_run(seed, t_rounds=256):
    domain = 2**12
    dist = GridDistribution(domain, domain // 2 + 1)
    spec = RunSpec(k=52, m=20, t_rounds=t_rounds, bt_eps=8.0, bt_delta=1e-3,
                   v_max=default_v_max(1, t_rounds, 0.1))
    root = NoiseSource(seed)
    sample = draw_sample(dist, spec.k * spec.m, root.child(2))
    adversary = OfflineAdversary(tuple(van_der_corput_queries(t_rounds, domain)))
    report = run(spec, sample, adversary, root, concept=ThresholdClass(domain),
                 target=dist, seed=seed)
    return report, dist


def _wrong_predictions_oracle(target, rounds) -> int:
    """``run``'s count of released labels that disagree with the target, as it
    read before it built its arrays with ``np.fromiter``."""
    return int(np.count_nonzero(
        target.labels([r["x"] for r in rounds]) != [r["label"] for r in rounds]))


def test_wrong_predictions_match_the_list_expression(tmp_path):
    class_file = tmp_path / "class.json"
    class_file.write_text(json.dumps({  # integer atoms
        "points": [1, 2, 3, 4, 5],
        "patterns": [[-1, -1, -1, -1, -1], [-1, -1, 1, 1, 1], [-1, 1, 1, 1, 1], [1, 1, -1, 1, 1]],
    }))
    configs = [
        dict(mode="oblivious", t_rounds=256, domain_size=2**10, k=52, m=4, bt_delta=1e-3),
        dict(mode="stochastic-baseline", t_rounds=64, domain_size=64, k=52, m=2, bt_delta=1e-3),
        dict(mode="halfspace", t_rounds=64, d=2, n_budget=600, bt_delta=1e-2),
        dict(mode="oblivious", t_rounds=64, concept_file=str(class_file), k=52, m=1, bt_delta=1e-3),
    ]
    kinds, wrong = set(), 0
    for config in configs:
        cfg = harness.ExperimentConfig(**config)
        for trial in range(3):
            row, payload = harness.run_trial(cfg, trial)
            target, _ = harness._build_distribution(cfg, NoiseSource(cfg.seed + trial).child(3))
            want = _wrong_predictions_oracle(target, payload["rounds"])
            assert payload["wrong_predictions"] == row["wrong_prediction_count"] == want
            kinds.add(type(target))
            wrong += want
    assert kinds == {GridDistribution, BoxDistribution, AtomDistribution}
    assert wrong > 0


def test_transcript_coherence_and_realizability():
    for seed in range(5):
        report, _ = _criterion_style_run(seed)
        for entry in report.rounds:
            if entry["outcome"] == "L":
                assert entry["label"] == -1
            elif entry["outcome"] == "R":
                assert entry["label"] == 1
        # hard-query realizability: without fallbacks the version space never dies
        assert report.fallback_flags == []
        for top in report.top_rounds:
            assert top["patterns_after"] >= 1


def test_transcript_shares_the_query_points_and_stays_out_of_the_collector():
    # a round record holds the adversary's own point tuple, so with only
    # atomic values beside it CPython's cyclic GC never tracks the record
    domain, t_rounds = 2**12, 512
    dist = GridDistribution(domain, domain // 2 + 1)
    spec = RunSpec(k=52, m=20, t_rounds=t_rounds, bt_eps=8.0, bt_delta=1e-3,
                   v_max=default_v_max(1, t_rounds, 0.1))
    root = NoiseSource(3)
    sample = draw_sample(dist, spec.k * spec.m, root.child(2))
    points = tuple(van_der_corput_queries(t_rounds, domain))
    adversary = OfflineAdversary(points)
    gc.collect()  # untracks the point tuples, which hold only floats
    report = run(spec, sample, adversary, root, concept=ThresholdClass(domain), target=dist)
    assert len(report.rounds) == t_rounds and report.top_rounds
    for entry in report.rounds:
        assert entry["x"] is points[entry["round"] - 1]
    for top in report.top_rounds:
        assert top["x"] is points[top["round"] - 1]
    assert not any(gc.is_tracked(entry) for entry in report.rounds + report.top_rounds)


def test_pattern_bookkeeping_is_monotone():
    report, _ = _criterion_style_run(11, t_rounds=512)
    for top in report.top_rounds:
        assert 1 <= top["patterns_after"] <= top["patterns_before"]
        assert top["halved"] == (2 * top["patterns_after"] <= top["patterns_before"])


def test_wrong_output_implies_quarter_of_votes_wrong():
    # accuracy-transfer arithmetic: a wrong L/R answer forces >= k/4 wrong voters
    for seed in range(6):
        report, dist = _criterion_style_run(seed)
        k = 52
        for entry in report.rounds:
            if entry["outcome"] == "top":
                continue
            true_label = dist.labels([entry["x"]])[0]
            if entry["label"] != true_label:
                votes_for_wrong = entry["q"] if entry["label"] == 1 else 1 - entry["q"]
                assert votes_for_wrong >= 0.25


def test_ledger_totals_match_composition_exactly():
    report, _ = _criterion_style_run(7)
    ledger = PrivacyLedger()
    for _ in range(report.top_count):
        ledger.append(report.bt_eps, report.bt_delta)
    eps, delta = compose_advanced(ledger, 1e-6)
    assert (eps, delta) == (report.eps_total, report.delta_total)


def test_determinism_and_stateless_regeneration(monkeypatch):
    a, _ = _criterion_style_run(21)
    b, _ = _criterion_style_run(21)
    assert a.to_json() == b.to_json()
    spec = RunSpec(k=52, m=20, t_rounds=64, bt_eps=8.0, bt_delta=1e-3, v_max=40)
    domain = 2**12
    dist = GridDistribution(domain, domain // 2 + 1)
    sample = draw_sample(dist, spec.k * spec.m, NoiseSource(21).child(2))
    adversary = OfflineAdversary(tuple(van_der_corput_queries(64, domain)))

    def report_json():
        return run(spec, sample, adversary, NoiseSource(21), concept=ThresholdClass(domain),
                   target=dist, seed=21).to_json()

    memo = report_json()
    refreshes = []

    class RefitBeforeVote:
        """Stands in for the ensemble: each vote first refits every block from
        the generator's current version space, then votes with that fit."""

        def __init__(self, generator, ensemble):
            self.generator, self.ensemble = generator, ensemble

        def vote(self, x):
            self.ensemble, dropped = _ObliviousGenerator.refresh(self.generator)
            refreshes.append(dropped)
            return self.ensemble.vote(x)

        def __getattr__(self, name):  # payload and labels come from the last fit
            return getattr(self.ensemble, name)

    class ForcedRefresh(_ObliviousGenerator):
        def refresh(self):
            ensemble, dropped = super().refresh()
            return RefitBeforeVote(self, ensemble), dropped

    monkeypatch.setattr(predictor, "_ObliviousGenerator", ForcedRefresh)
    assert report_json() == memo
    assert len(refreshes) == 64 and not any(refreshes)


def _direct_vote(hypotheses, x) -> int:
    return sum(1 for h in hypotheses if h.evaluate(x) > 0)


def _thresholds(ensemble) -> list[ThresholdHypothesis]:
    return [ThresholdHypothesis(t) for t in ensemble.thresholds]


def _rows(ensemble) -> list:
    return [enumerated_oracle.hypothesis(ensemble.concept, i) for i in ensemble.rows]


def _stacked(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Equal-size blocks as the generators take them: (k, m, d) points and (k, m) labels."""
    return np.stack([b.points for b in blocks]), np.stack([b.labels for b in blocks])


def test_threshold_vote_fast_path_matches_generic():
    blocks = [draw_sample(GridDistribution(256, 100), 8, NoiseSource(i)) for i in range(5)]
    ensemble, dropped = _ObliviousGenerator(ThresholdClass(256), *_stacked(blocks)).refresh()
    assert dropped == []
    assert len(set(ensemble.thresholds)) > 1
    for x in ((0.0,), (1.0,), (99.0,), (100.0,), (101.0,), (256.0,), (300.0,)):
        assert ensemble.vote(x) == _direct_vote(_thresholds(ensemble), x)
    assert ensemble.vote((0.0,)) == 0 and ensemble.vote((300.0,)) == 5


def test_enumerated_vote_matches_direct_count():
    points = [(float(i),) for i in range(1, 5)]
    cls = EnumeratedClass(points, list(itertools.product((-1, 1), repeat=4)))
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(9):
        idx = rng.choice(4, size=2, replace=False)
        blocks.append(LabeledSample(tuple(points[i] for i in idx),
                                    tuple(int(v) for v in rng.choice((-1, 1), size=2))))
    gen = _ObliviousGenerator(cls, *_stacked(blocks))
    ensemble, _ = gen.refresh()
    assert len(set(ensemble.rows)) > 2
    for x in points:
        assert ensemble.vote(x) == _direct_vote(_rows(ensemble), x)
    assert 0 < ensemble.vote((2.0,)) < 9
    gen.on_top((2.0,), 1, None)
    gen.on_top((3.0,), -1, None)
    ensemble, dropped = gen.refresh()
    assert dropped == []
    for x in points:
        assert ensemble.vote(x) == _direct_vote(_rows(ensemble), x)
    assert (ensemble.vote((2.0,)), ensemble.vote((3.0,))) == (9, 0)

    # one point, one block per label: the ensemble splits evenly
    half, _ = _ObliviousGenerator(EnumeratedClass([(1.0,)], [[-1], [1]]),
                                  np.array([[[1.0]], [[1.0]]]),
                                  np.array([[1], [-1]], dtype=np.int8)).refresh()
    assert half.vote((1.0,)) == 1


def test_oblivious_generator_fallback_flag():
    blocks = [draw_sample(GridDistribution(64, 30), 4, NoiseSource(i)) for i in range(3)]
    gen = _ObliviousGenerator(ThresholdClass(64), *_stacked(blocks))
    gen.refresh()
    gen.on_top((20.0,), 1, None)
    gen.on_top((20.0,), -1, None)  # contradiction
    ensemble, dropped = gen.refresh()
    assert dropped == [1]
    assert gen.space.constraints == (((20.0,), 1),)
    assert all(h.evaluate((20.0,)) == 1 for h in _thresholds(ensemble))


def test_halfspace_generator_base_case_and_hyperplane():
    rng = np.random.default_rng(5)
    target = np.array([0.7, -0.4, 0.05])
    pts = rng.uniform(-1, 1, size=(24, 2))
    labels = np.where(pts @ target[:2] - target[2] >= 0, 1, -1)
    sample = LabeledSample(tuple(map(tuple, pts)), tuple(int(v) for v in labels))
    blocks = [LabeledSample(sample.points[i::3], sample.labels[i::3]) for i in range(3)]
    gen = _HalfspaceGenerator(*_stacked(blocks))
    stacked = [[to_constraint(p, lab) for p, lab in blk.records()] for blk in blocks]
    assert gen.normals.tobytes() == np.array(stacked).tobytes()
    _, least_depth = gen.refresh()
    assert least_depth == 8  # realizable: every block satisfies all 8 of its constraints
    assert not gen.degenerate

    info = gen.on_top((0.3, 0.2), 1, None)
    assert (info["dim_before"], info["dim_after"], info["redundant"]) == (3, 2, False)
    ensemble, _ = gen.refresh()
    normal = np.array([0.3, 0.2, -1.0])
    assert np.all(np.abs(ensemble.weights @ normal) <= 1e-9)

    gen.on_top((0.5, -0.1), 1, None)
    gen.on_top((-0.4, 0.8), 1, None)
    ensemble, _ = gen.refresh()
    assert gen.space.dimension == 0
    assert gen.degenerate
    assert not ensemble.weights.any()
    assert ensemble.vote((0.123, 0.456)) == 3


def test_halfspace_generator_rejects_non_finite_points():
    # the finiteness check lives in LabeledSample, so a non-finite block never
    # reaches the generator
    with pytest.raises(ConfigurationError, match="finite"):
        blocks = [LabeledSample(((0.1, 0.2), (float("inf"), 0.0)), (1, -1))]
        _HalfspaceGenerator(*_stacked(blocks))


def test_halfspace_cdepth_progression():
    # after c hard queries every block's reported value stays above the
    # transfer-weakened floor 1 - 2*c*alpha*(d+1): witnessing cdepth on the
    # shrunken subspace loses at most the depth-transfer factor (d+1) per query
    alpha, d = 0.1, 2
    spec = RunSpec(k=40, m=15, t_rounds=256, bt_eps=8.0, bt_delta=1e-2, v_max=4)
    dist = BoxDistribution((-1.0, -1.0), (1.0, 1.0), (0.6, -0.8), -0.1)
    for seed in range(6):
        root = NoiseSource(400 + seed)
        sample = draw_sample(dist, 600, root.child(2))
        adversary = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.11)
        report = run(spec, sample, adversary, root, target=dist, seed=seed)
        assert report.cdepth_progress[0]["min_cdepth_fraction"] == 1.0  # realizable base case
        for entry in report.cdepth_progress:
            floor = max(0.0, 1.0 - 2.0 * entry["hard_count"] * alpha * (d + 1) - 0.05)
            assert entry["min_cdepth_fraction"] >= floor


def test_halfspace_adaptive_run_round_trip():
    spec = RunSpec(k=40, m=15, t_rounds=128, bt_eps=8.0, bt_delta=1e-2, v_max=4)
    dist = BoxDistribution((-1.0, -1.0), (1.0, 1.0), (0.8, 0.6), 0.05)
    root = NoiseSource(17)
    sample = draw_sample(dist, 600, root.child(2))
    adversary = BoundaryProbeAdversary((-1.0, -1.0), (1.0, 1.0), tau=0.11)
    report = run(spec, sample, adversary, root, target=dist, seed=17)
    assert report.top_count <= 4
    dims = [(t["dim_before"], t["dim_after"], t["redundant"]) for t in report.top_rounds]
    for before, after, redundant in dims:
        assert (before - after == 1) != redundant
    payload = json.loads(report.to_json())
    assert set(payload) >= {"seed", "config_digest", "rounds", "top_rounds",
                            "eps_total", "delta_total", "fallback_flags"}
