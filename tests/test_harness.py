import contextlib
import csv
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_oracle
from privpredict import harness, predictor
from privpredict.cli import main
from privpredict.concepts import HalfspaceEnsemble, ThresholdEnsemble
from privpredict.core import (
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    draw_sample,
)
from privpredict.harness import (
    CSV_COLUMNS,
    AuditToy,
    ExperimentConfig,
    evaluate_gates,
    majority_vote_error,
    run_experiment,
    run_trial,
)
from privpredict.predictor import RunSpec, run
from privpredict.adversaries import OfflineAdversary
from threshold_oracle import ThresholdHypothesis


def _small_config(tmp_path, **overrides):
    base = dict(
        mode="oblivious",
        t_rounds=32,
        trials=2,
        seed=10,
        domain_size=1024,
        k=52,
        m=4,
        bt_eps=8.0,
        bt_delta=1e-3,
        out_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_roundtrip_and_digest(tmp_path):
    cfg = _small_config(tmp_path)
    clone = ExperimentConfig.from_dict(json.loads(cfg.canonical_json()))
    assert clone == cfg
    assert clone.digest() == cfg.digest()
    assert _small_config(tmp_path, seed=11).digest() != cfg.digest()
    for key in ("bogus_key", "eps", "delta", "threshold", "sphere_samples", "adversary"):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentConfig.from_dict({"mode": "oblivious", key: 1})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"mode": "no-such-mode"})


def test_empty_run_row(tmp_path):
    cfg = _small_config(tmp_path, t_rounds=0, trials=1)
    result = run_experiment(cfg)
    assert len(result.rows) == 1
    assert result.rows[0]["top_count"] == 0
    assert result.rows[0]["final_eps"] == 0.0


def test_csv_schema_and_byte_identical_reruns(tmp_path):
    cfg = _small_config(tmp_path)
    first = run_experiment(cfg)
    blob1 = open(first.csv_path, "rb").read()
    second = run_experiment(cfg)
    blob2 = open(second.csv_path, "rb").read()
    assert blob1 == blob2
    with open(first.csv_path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_COLUMNS
        rows = list(reader)
    assert len(rows) == cfg.trials
    for raw, row in zip(rows, first.rows):
        # lossless parse back
        assert int(raw["seed"]) == row["seed"]
        assert int(raw["top_count"]) == row["top_count"]
        assert float(raw["max_block_error"]) == row["max_block_error"]
        assert float(raw["final_eps"]) == row["final_eps"]


def test_per_seed_reports_on_disk(tmp_path):
    cfg = _small_config(tmp_path)
    result = run_experiment(cfg)
    files = sorted(p for p in os.listdir(result.out_dir) if p.endswith(".json"))
    assert files == ["10.json", "11.json"]
    payload = json.loads(open(os.path.join(result.out_dir, "10.json")).read())
    assert payload["seed"] == 10
    assert payload["config_digest"] == cfg.digest()


def test_workers_do_not_change_results(tmp_path):
    serial = run_experiment(_small_config(tmp_path / "a"))
    parallel = run_experiment(_small_config(tmp_path / "b", workers=2))
    assert serial.rows == parallel.rows


def test_gate_evaluation():
    rows = [{"top_count": 0}, {"top_count": 2}, {"top_count": 5}]
    gates = [{"column": "top_count", "max": 4, "fraction": 0.6}]
    [res] = evaluate_gates(rows, gates)
    assert res["passed"] and res["observed_fraction"] == pytest.approx(2 / 3)
    [strict] = evaluate_gates(rows, [{"column": "top_count", "max": 4}])
    assert not strict["passed"]


@pytest.mark.parametrize("gate", [
    {"column": "top_counts", "max": 3},
    {"column": "top_count"},
    {"column": "top_count", "max": "3"},
    {"column": "top_count", "max": 3, "fraction": 0},
    {"column": "top_count", "max": 3, "fraction": 1.5},
    {"column": "top_count", "max": 3, "frac": 0.9},
    {"column": "top_count", "max": float("nan")},
])
def test_bad_gates_fail_before_any_trial_runs(tmp_path, gate, capsys):
    with pytest.raises(ConfigurationError):
        _small_config(tmp_path, gates=[gate])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_small_config(tmp_path).to_dict(), "gates": [gate]}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", [
    {"alpha": "0.1"},
    {"t_rounds": "8"},
    {"t_rounds": 8.0},
    {"seed": True},
    {"bt_eps": None},
    {"mode": 1},
    {"record_timing": 1},
    {"gates": {}},
    {"heldout": -5},
    {"seed": -1},
    {"seed": 2**63 - 1},  # the second trial's seed would be 2**63
    {"bt_eps": 10**400},  # beyond the double range
    {"beta": 5e-324},  # subnormal: 1 / beta is infinite
    {"k": -1},
    {"m": -40},
    {"n_budget": -600},
    {"v_max": -1},
    {"d": 0},
    {"d": -1},
    {"workers": 0},
    {"workers": -1},
])
def test_wrong_types_and_negative_counts_fail_before_any_trial_runs(tmp_path, value, capsys):
    [key] = value
    with pytest.raises(ConfigurationError, match=key):
        _small_config(tmp_path, **value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_small_config(tmp_path).to_dict(), **value}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", [
    {"bt_eps": -1.0}, {"bt_delta": 2.0}, {"domain_size": 0}, {"k": 1}, {"domain_size": 1},
    {"bt_eps": 1e308},  # the query noise scale 6 / (eps * k) underflows to 0
    {"bt_eps": float("inf")},
    {"k": 0, "n_budget": 600_000_000_000},  # a sample of 4.4 TiB
    {"heldout": 2**40},
    {"mode": "halfspace", "d": 10**12},
    {"domain_size": 2**52 + 1},  # over ThresholdClass.MAX_SIZE
])
def test_plan_errors_fail_before_the_output_directory(tmp_path, value, capsys):
    """Values a config takes, but that the trial's BetweenThresholds parameters
    (among them a k too small for the threshold gap), sample cap, threshold
    grid or grid sweep reject, fail in ``build_run_spec``: before any trial
    runs and before ``runs/<digest>/`` is created."""
    with pytest.raises(ConfigurationError):
        harness.build_run_spec(_small_config(tmp_path, **value))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_small_config(tmp_path).to_dict(), **value}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_unreadable_concept_file_fails_before_the_output_directory(tmp_path, capsys):
    """The trials load the class file even when ``v_max`` is given, so a
    missing one fails in ``build_run_spec``."""
    cfg_path = tmp_path / "cfg.json"
    cfg = _small_config(tmp_path, concept_file=str(tmp_path / "missing.json"), v_max=4)
    cfg_path.write_text(cfg.canonical_json())
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_sample_cap_is_named(tmp_path):
    for value in ({"k": 0, "n_budget": harness.SAMPLE_CAP + 1}, {"heldout": harness.SAMPLE_CAP + 1},
                  {"mode": "halfspace", "d": harness.SAMPLE_CAP // 208 + 1}):
        with pytest.raises(ConfigurationError, match="SAMPLE_CAP"):
            harness.build_run_spec(_small_config(tmp_path, **value))
    harness.build_run_spec(_small_config(tmp_path, heldout=harness.SAMPLE_CAP))


# JSON values for any config field: boundary and huge integers (10**400 is
# beyond the double range), the ends of the double range, and wrong types
_ANY_JSON = st.sampled_from((0, 1, -1, 2, 52, 2**31 - 1, 2**53 + 1, 2**63, 10**400,
                             0.0, 0.5, 1e-308, 5e-324, 1e308, math.inf, -math.inf, math.nan,
                             None, True, "1", [], {}))
# Where an accepted value would make a long run (t_rounds, trials) or start
# processes (workers), a field draws small valid values or invalid ones only;
# out_dir is overridden by --out.
_FUZZED_FIELDS = {
    **{name: _ANY_JSON for name in ("seed", "alpha", "beta", "d", "domain_size", "k", "m",
                                    "n_budget", "bt_eps", "bt_delta", "v_max",
                                    "adversary_tau", "heldout")},
    "mode": st.sampled_from(harness.MODES + ("", 1)),
    "t_rounds": st.sampled_from((0, 1, 16, -1, 16.0, math.nan, None, "16")),
    "trials": st.sampled_from((1, 0, -1, 1.0, None)),
    "workers": st.sampled_from((1, 0, -1, 1.5, "1")),
    "concept_file": st.sampled_from(("", "missing.json", 1, None)),
    "record_timing": st.sampled_from((False, True, 0, "true")),
    "gates": st.sampled_from(([], [{"column": "top_count", "max": math.inf}],
                              [{"column": "top_count", "max": math.nan}],
                              [{"column": "top_counts", "max": 1}], [1], "gates")),
}


@given(overrides=st.fixed_dictionaries({}, optional=_FUZZED_FIELDS))
@settings(max_examples=150, deadline=None)
def test_cli_run_accepts_or_names_a_configuration_error(overrides):
    """``predict run`` on a config with any fields replaced returns 0, or 2 with
    a message and no ``runs/``; it never raises, and no trial draws a sample
    over the cap."""
    draw = harness.draw_sample

    def capped(dist, n, noise):
        assert n * len(getattr(dist, "low", (0.0,))) <= harness.SAMPLE_CAP, (dist, n)
        return draw(dist, n, noise)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "draw_sample", capped):
        cfg_path = os.path.join(tmp, "cfg.json")
        base = {"mode": "oblivious", "t_rounds": 16, "domain_size": 1024, "k": 52, "m": 4}
        with open(cfg_path, "w") as fh:
            json.dump({**base, **overrides}, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", "--config", cfg_path, "--out", tmp])
        if rc != 0:
            assert rc == 2 and err.getvalue().startswith(("configuration error", "i/o error"))
            assert not os.path.exists(os.path.join(tmp, "runs"))


def test_shared_grid_sweep_adversary_carries_nothing_between_trials(tmp_path):
    """Every oblivious trial of one grid shape in a process gets the same
    adversary object; trial i run again after trial j gives the same bytes."""
    cfg = _small_config(tmp_path, t_rounds=256)
    dist, _ = harness._build_distribution(cfg, NoiseSource(0))
    assert harness._build_adversary(cfg, dist) is harness._build_adversary(cfg, dist)
    first, other, again = (json.dumps(run_trial(cfg, i)[1], sort_keys=True) for i in (0, 1, 0))
    assert first == again != other


def test_cli_negative_seed_override_exits_with_a_message(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small_config(tmp_path).canonical_json())
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: seed must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_halfspace_blocks_over_the_candidate_cap_fail_before_any_trial_runs(tmp_path, capsys):
    # eps this large lets the planner take one block of all 600 points, whose
    # first refit, at dimension d + 1 = 3, has 2 * C(600, 2) + 64 candidates
    cfg = ExperimentConfig(mode="halfspace", t_rounds=64, d=2, n_budget=600, bt_eps=1e308,
                           out_dir=str(tmp_path))
    assert cfg.resolve_plan() == (1, 600)
    with pytest.raises(ConfigurationError, match="CANDIDATE_CAP") as info:
        harness.build_run_spec(cfg)
    assert f"{2 * 600 * 599 // 2} boundary candidates" in str(info.value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.canonical_json())
    assert main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "CANDIDATE_CAP" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("target", [
    {"alpha": 0.0},
    {"alpha": -1.0},
    {"alpha": 1.0},
    {"alpha": float("nan")},
    {"beta": 0.0},
    {"beta": -0.5},
    {"beta": 1.5},
    {"adversary_tau": -0.1},
])
def test_targets_out_of_range_fail_before_any_trial_runs(tmp_path, target, capsys):
    [key] = target
    with pytest.raises(ConfigurationError, match=key):
        _small_config(tmp_path, **target)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**_small_config(tmp_path).to_dict(), **target}))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_trial_heldout_and_payload(tmp_path):
    cfg = _small_config(tmp_path, heldout=2000)
    row, payload = run_trial(cfg, 0)
    assert 0.0 <= payload["heldout_error"] <= 1.0
    assert row["seed"] == 10
    assert len(payload["final_hypotheses"]) == 52


@pytest.mark.parametrize("overrides", [
    dict(heldout=2000),
    dict(mode="halfspace", t_rounds=128, d=2, k=0, m=0, n_budget=600, bt_delta=1e-2),
])
def test_run_trial_payload_equals_the_report_json(tmp_path, monkeypatch, overrides):
    reports = []

    def spy(*args, **kwargs):
        reports.append(predictor.run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "run", spy)
    cfg = _small_config(tmp_path, **overrides)
    _, payload = run_trial(cfg, 0)
    expected = json.loads(reports[0].to_json())
    if cfg.heldout:
        expected["heldout_error"] = payload["heldout_error"]
    canonical = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))  # noqa: E731
    assert canonical(payload) == canonical(expected)
    assert ("heldout_error" in payload) == bool(cfg.heldout)


def test_enumerated_concept_mode(tmp_path):
    import itertools

    cls_path = tmp_path / "cls.json"
    patterns = [list(p) for p in itertools.product((-1, 1), repeat=4)]
    cls_path.write_text(json.dumps({"points": [1, 2, 3, 4], "patterns": patterns}))
    cfg = _small_config(tmp_path, concept_file=str(cls_path), t_rounds=16, trials=1)
    row, payload = run_trial(cfg, 0)
    assert all(h["kind"] == "enumerated" for h in payload["final_hypotheses"])
    assert len(payload["rounds"]) == 16


def test_enumerated_mode_draws_a_target_the_ensemble_can_split_on(tmp_path):
    # Row 0 of the full-shatter class labels every point -1 and is every
    # block's first consistent row; as the target it would make every vote
    # unanimous, so the target row is drawn instead.
    import itertools

    cls_path = tmp_path / "cls.json"
    patterns = [list(p) for p in itertools.product((-1, 1), repeat=5)]
    cls_path.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "patterns": patterns}))
    cfg = _small_config(tmp_path, concept_file=str(cls_path), t_rounds=64, trials=10)
    payloads = [run_trial(cfg, i)[1] for i in range(cfg.trials)]
    assert any(0 < r["q"] < 1 for p in payloads for r in p["rounds"])
    assert any(p["top_count"] > 0 for p in payloads)


def test_default_v_max_uses_the_enumerated_class_vc_dimension(tmp_path):
    import itertools

    cls_path = tmp_path / "cls.json"
    patterns = [list(p) for p in itertools.product((-1, 1), repeat=5)]
    cls_path.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "patterns": patterns}))
    cfg = _small_config(tmp_path, concept_file=str(cls_path), t_rounds=256, beta=0.1)
    assert harness.build_run_spec(cfg).v_max == 174  # ceil(4 * (5 * log2 256 + log2 10))
    # thresholds keep VC 1 and halfspaces d + 1
    assert harness.build_run_spec(_small_config(tmp_path, t_rounds=256, beta=0.1)).v_max == 46
    halfspace = _small_config(tmp_path, mode="halfspace", d=3, t_rounds=256)
    assert harness.build_run_spec(halfspace).v_max == 5


def test_enumerated_vc_dimension_is_searched_once_per_class_file(tmp_path, monkeypatch):
    import itertools

    from privpredict.concepts import EnumeratedClass

    cls_path = tmp_path / "cls.json"
    patterns = [list(p) for p in itertools.product((-1, 1), repeat=5)]
    cls_path.write_text(json.dumps({"points": [1, 2, 3, 4, 5], "patterns": patterns}))
    cfg = _small_config(tmp_path, concept_file=str(cls_path), t_rounds=64, trials=2)
    searches, specs = [], []
    search = EnumeratedClass.vc_dimension

    def counted_search(self):
        searches.append(self)
        return search(self)

    def spy(spec, *args, **kwargs):
        specs.append(spec)
        return run(spec, *args, **kwargs)

    monkeypatch.setattr(EnumeratedClass, "vc_dimension", counted_search)
    monkeypatch.setattr(harness, "run", spy)
    for trial in range(cfg.trials):
        run_trial(cfg, trial)
    assert len(searches) == 1
    assert [s.v_max for s in specs] == [predictor.default_v_max(5, 64, cfg.beta)] * 2
    # a rewritten file is searched again: the cache is keyed by content too
    cls_path.write_text(json.dumps({"points": [1, 2], "patterns": [[1, 1], [-1, 1]]}))
    v_max = predictor.default_v_max(1, 64, cfg.beta)
    assert harness.build_run_spec(cfg).v_max == v_max
    assert len(searches) == 2


def test_stochastic_baseline_mode(tmp_path):
    cfg = _small_config(tmp_path, mode="stochastic-baseline", trials=1)
    row, payload = run_trial(cfg, 0)
    assert len(payload["rounds"]) == cfg.t_rounds
    assert row["top_count"] >= 0


def test_majority_vote_error_matches_direct_count():
    dist = GridDistribution(256, 100)
    fresh = draw_sample(dist, 500, NoiseSource(4))
    hyps = [ThresholdHypothesis(t) for t in (80, 100, 120)]
    fast = majority_vote_error(ThresholdEnsemble([80, 100, 120]), fresh)
    direct = 0
    for p, lab in fresh.records():
        votes = sum(h.evaluate(p) for h in hyps)
        direct += (1 if votes >= 0 else -1) != lab
    assert fast == direct / len(fresh)


def test_majority_vote_error_matches_direct_count_on_halfspace_boundaries():
    # points placed on the block's boundary, where the sign of the vote's
    # product W @ (x, -1) rests on its last bit
    for seed in range(5):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((1, 3))
        weights /= np.linalg.norm(weights)
        a, w = weights[0, :-1], weights[0, -1]
        q = rng.uniform(-1, 1, size=(100, 2))
        points = q - np.outer(q @ a - w, a) / (a @ a)
        labels = rng.choice([-1, 1], size=100)
        fresh = LabeledSample(tuple(map(tuple, points.tolist())), tuple(labels.tolist()))
        direct = sum((1 if weights @ np.asarray(p + (-1.0,)) >= 0.0 else -1) != lab
                     for p, lab in fresh.records())
        assert majority_vote_error(HalfspaceEnsemble(weights), fresh) == direct / len(fresh)


def test_cli_run_and_gates(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = _small_config(tmp_path, gates=[{"column": "top_count", "max": 50}])
    cfg_path.write_text(cfg.canonical_json())
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "config digest" in out
    # an impossible gate fails the run
    bad = _small_config(tmp_path, gates=[{"column": "top_count", "max": -1}])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(bad.canonical_json())
    assert main(["run", "--config", str(bad_path)]) == 1


def test_cli_seed_override_env(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small_config(tmp_path, trials=1).canonical_json())
    assert main(["run", "--config", str(cfg_path), "--seed", "77"]) == 0
    digest_dirs = os.listdir(tmp_path / "runs")
    found = []
    for d in digest_dirs:
        found += [f for f in os.listdir(tmp_path / "runs" / d) if f.endswith(".json")]
    assert "77.json" in found


def test_cli_plan_output(capsys):
    rc = main(["plan", "--mode", "oblivious", "--d", "1", "--T", "1024",
               "--alpha", "0.1", "--beta", "0.1", "--eps", "1", "--delta", "1e-6"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 28230
    assert payload["bt_beta_unclamped"] == payload["bt_beta"] and payload["vacuous"] is False
    rc_bad = main(["plan", "--mode", "oblivious", "--d", "1", "--T", "16",
                   "--alpha", "0.1", "--beta", "0.1", "--eps", "1", "--delta", "1e-6"])
    assert rc_bad == 1


def test_cli_audit_quick(capsys):
    # Below about 1e4 trials per side, a rare first-top event of the honest
    # channel can go unseen on one side (at seed 7 and 5e3 trials, first_top@8
    # is seen 44 times against 0), and a zero count reads as divergence; 2e4
    # trials leave a margin.  Each side draws all its transcripts from one
    # noise stream, so this takes well under a second.
    rc = main(["audit", "--trials", "20000"])
    out = capsys.readouterr().out
    assert "eps_hat" in out
    assert "WITHIN BUDGET" in out
    assert rc == 0


def _observable(report) -> tuple:
    """A run's public output channel, as the audit toy's mechanism returns it:
    the emitted labels, the first top round (0 if none) and whether the run
    aborted."""
    first_top = report.top_rounds[0]["round"] if report.top_rounds else 0
    return tuple(r["label"] for r in report.rounds), first_top, report.aborted


def test_audit_toy_mechanism_matches_full_predictor_loop():
    """The lean audited channel reproduces the full loop bit for bit, on both
    samples and for the honest and the broken (half-noise) variant.  The
    toy draws from the source it is handed, so it gets the stream ``run``
    answers from: the mechanism child, past the partition draw."""
    from privpredict.concepts import ThresholdClass

    toy = AuditToy()
    stops = set()
    for scale_factor in (1.0, 0.5):
        mech = toy.mechanism(scale_factor)

        class ToySpec(RunSpec):
            def bt_params(self):  # the toy's widened vote thresholds
                return toy.params(scale_factor)

        spec = ToySpec(
            k=toy.k,
            m=1,
            t_rounds=toy.t_rounds,
            bt_eps=toy.bt_eps / scale_factor,
            bt_delta=toy.bt_delta,
            v_max=0,
        )
        for side, sample in enumerate(toy.samples()):
            for seed in range(60):
                src = NoiseSource(seed).child(0)
                src.permutation(len(sample))
                lean = mech(sample, src)
                full = run(spec, sample, OfflineAdversary(tuple(toy.stream())),
                           NoiseSource(seed), concept=ThresholdClass(toy.domain))
                assert lean == _observable(full), (scale_factor, side, seed)
                stops.add(lean[2])
    assert stops == {False, True}  # halted and full-length transcripts both compared


def test_audit_toy_mechanism_matches_the_divide_on_use_oracle():
    """The mechanism that caches each sample's query values gives the same
    transcripts as the one that divided each cached count on use, over 2,000
    draws per sample from one source, as ``audit_dp`` draws, for the honest
    and the broken variant."""
    toy = AuditToy()
    stops = set()
    for scale_factor in (1.0, 0.5):
        cached, oracle = toy.mechanism(scale_factor), audit_oracle.mechanism(toy, scale_factor)
        for side, sample in enumerate(toy.samples()):
            ours, theirs = NoiseSource(side), NoiseSource(side)
            for draw in range(2000):
                got = cached(sample, ours)
                assert got == oracle(sample, theirs), (scale_factor, side, draw)
                stops.add(got[2])
    assert stops == {False, True}


def test_run_audit_builds_one_generator_per_side(monkeypatch):
    """Every transcript of a side draws from that side's one source, so an
    audit builds two numpy generators, not one per transcript."""
    built = []
    build = NoiseSource._generator

    def counting(self):
        if self._rng is None:
            built.append(self._spawn_key)
        return build(self)

    monkeypatch.setattr(NoiseSource, "_generator", counting)
    harness.run_audit(1000, 7)
    assert len(built) <= 2, built


class _CountingSource(NoiseSource):
    """A source that counts its noise draws (the toy makes no other kind)."""

    draws = 0

    def uniform(self):
        self.draws += 1
        return super().uniform()

    def coin(self):
        self.draws += 1
        return super().coin()


def test_audit_toy_mechanism_continues_the_stream():
    """Two transcripts on one source: the first starts at the stream's start,
    the second where the first stopped, so the stream is never replayed."""
    toy = AuditToy()
    mech = toy.mechanism()
    sample, _ = toy.samples()
    differ = 0
    for seed in range(20):
        src = _CountingSource(seed)
        first = mech(sample, src)
        used = src.draws
        second = mech(sample, src)
        assert used > 0 and src.draws > used
        assert mech(sample, NoiseSource(seed)) == first, seed
        ahead = NoiseSource(seed)
        ahead.doubles(used)
        assert mech(sample, ahead) == second, seed
        differ += first != second
    assert differ > 0
