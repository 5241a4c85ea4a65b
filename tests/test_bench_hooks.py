"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions and
methods of the package by name.  Installing its hooks raises as soon as the
package drops or renames one of those names, which would otherwise surface
only in the benchmark's own smoke test."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_hooks_install_and_restore(tracing):
    patches = tracing.Patches()
    try:
        tracing.AnswerClock().install(patches)
        tracing.Tracer().install(patches)
        originals = {}  # a name wrapped by both hook sets: its first original is the package's own
        for owner, attr, original in patches._undo:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        patches.restore()
    for (owner, attr), original in originals.items():
        assert _current(owner, attr) is original, (owner, attr)


# Hooks that no benchmark workload reaches, each with the reason.  A hook that
# falls silent after a refactor (its caller now resolves a different name)
# leaves its per-layer metric at 0; it then shows up here as a new entry.
NEVER_CALLED = {
    # the halfspace refresh runs the batched argmax_cdepth_blocks, not these
    # per-block functions
    "geometry.argmax_cdepth",
    "geometry.arrangement_candidates",
    "DepthProfile.depths",
    # every concept class refits all its blocks through erm_blocks; the
    # one-sample VersionSpace.erm has no caller in a run
    "VersionSpace.erm",
    # run_trial serializes through to_payload; the JSON is built by the caller
    "RunReport.to_json",
    # the block error is one count over the ensemble's labels, not
    # empirical_error
    "predictor.empirical_error",
    # the audit toy answers through predictor.answer_query, which resolves
    # predictor.bt_query
    "harness.bt_query",
    # no workload streams queries from this adversary
    "StochasticAdversary.next_query",
}


def _hook_name(owner, attr):
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def test_every_hook_but_the_listed_ones_sees_a_call(tracing):
    from privpredict import harness

    workloads = importlib.import_module("workloads").WORKLOADS
    patches = tracing.Patches()
    tracing.AnswerClock().install(patches)
    tracing.Tracer().install(patches)
    hooks = {(owner, attr) for owner, attr, _ in patches._undo}
    patches.restore()

    calls = {_hook_name(owner, attr): 0 for owner, attr in hooks}

    def counter(name):
        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    patches = tracing.Patches()
    try:
        for owner, attr in hooks:
            patches.replace(owner, attr, counter(_hook_name(owner, attr)))
        # one short trial in the shape of each prediction workload; both seeds
        # have top rounds, so the refit and shrink hooks run
        for name, short in (("halfspace-adaptive", dict(t_rounds=64)),
                            ("oblivious-sweep", dict(t_rounds=256, heldout=100))):
            cfg = harness.ExperimentConfig(seed=0, **dict(workloads[name].config, **short))
            row, _ = harness.run_trial(cfg, 0)
            assert row["top_count"] > 0, name
        for broken in (False, True):
            harness.run_audit(1000, 7, broken=broken)
    finally:
        patches.restore()
    assert {name for name, count in calls.items() if count == 0} == NEVER_CALLED


def test_answer_clock_takes_one_sample_between_two_adversary_calls(tracing):
    """The clock times the gap from one ``next_query`` return to the next call,
    so a run that asks its adversary once per round leaves T - 1 samples."""
    from privpredict import harness

    workloads = importlib.import_module("workloads").WORKLOADS
    clock, patches = tracing.AnswerClock(), tracing.Patches()
    try:
        clock.install(patches)
        for name, short in (("halfspace-adaptive", dict(t_rounds=64)),
                            ("oblivious-sweep", dict(t_rounds=256, heldout=100))):
            cfg = harness.ExperimentConfig(seed=0, **dict(workloads[name].config, **short))
            clock.new_job()
            _, payload = harness.run_trial(cfg, 0)
            assert len(payload["rounds"]) == cfg.t_rounds, name
            assert len(clock.samples) == cfg.t_rounds - 1, name
    finally:
        patches.restore()


COUNTED = ("dp.bt_query_calls", "dp.bt_init_calls", "dp.laplace_calls", "dp.top_frac")


def _counted(tracing, tracer):
    """The tracer's counted dp.* metrics, as totals over everything it saw."""
    from collections import Counter

    metrics = tracing.layer_metrics(tracer, 1, Counter(), None, 1.0, 0.0)
    return {name: metrics[name] for name in COUNTED}


def _expected(rounds, instances, tops):
    return dict(zip(COUNTED, (rounds, instances, rounds + instances, tops / rounds)))


def test_tracer_counts_one_bt_query_per_round_and_one_laplace_per_draw(tracing):
    """dp.bt_query_calls, dp.laplace_calls and dp.top_frac count what happened:
    one BetweenThresholds query per transcript round, one Laplace draw per
    query plus one per instance.  A rewrite of the noise path that bypasses
    the traced names shows up here instead of as a silently wrong metric."""
    from privpredict import harness

    workloads = importlib.import_module("workloads").WORKLOADS
    cfg = harness.ExperimentConfig(seed=0, **dict(workloads["oblivious-sweep"].config,
                                                  t_rounds=256, heldout=100))
    patches = tracing.Patches()
    tracer = tracing.Tracer()
    try:
        tracer.install(patches)
        _, payload = harness.run_trial(cfg, 0)
    finally:
        patches.restore()
    rounds, tops = len(payload["rounds"]), payload["top_count"]
    assert rounds == cfg.t_rounds and tops > 0
    assert _counted(tracing, tracer) == _expected(rounds, 1 + tops - payload["aborted"], tops)

    patches = tracing.Patches()
    tracer, clock = tracing.Tracer(), tracing.AnswerClock()
    try:
        clock.install(patches)  # keeps every audit transcript's output
        tracer.install(patches)
        harness.run_audit(1000, 7)
    finally:
        patches.restore()
    transcripts = sum(clock.outputs.values())
    rounds = sum(len(labels) * n for (labels, _, _), n in clock.outputs.items())
    tops = sum(n for (_, _, halted), n in clock.outputs.items() if halted)
    assert transcripts == 2000 and 0 < tops < transcripts
    assert _counted(tracing, tracer) == _expected(rounds, transcripts, tops)
