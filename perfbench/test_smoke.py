"""Smoke test of the benchmark at a tiny length:

    python3 -m pytest -q perfbench/test_smoke.py

Every end-to-end and per-layer name of BENCHMARK.json, and the unlisted
failed_frac and answer_us_p90, must print with its unit on every workload,
and the output checks must bite.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run as bench

bench.load_program()

import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from privpredict import harness  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    if w.is_audit:
        return dataclasses.replace(w, audit_trials=10_000)
    config = dict(w.config, t_rounds=128)
    if "heldout" in config:
        config["heldout"] = 500
    return dataclasses.replace(w, trials=2, config=config)


def printed(capsys) -> tuple[dict, dict[str, tuple[float, str]]]:
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return json.loads(lines[-1]), metrics


def run_tiny(name: str, trace: bool) -> None:
    workload = tiny(name)
    if trace:
        bench.run_traced(workload, workload.default_seed, 0.0)
    else:
        bench.run_untraced(workload, workload.default_seed, 0.0, setup=[(1.0, 1.0)])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, trace, capsys):
    run_tiny(name, trace)
    result, metrics = printed(capsys)
    units = bench.declared_metrics(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert metrics[metric][1] == unit
    assert metrics["failed_frac"] == (0.0, "ratio")
    if not trace:
        for name in ("answer_us_p90", "answer_us_p50_wall", "answer_us_p90_wall"):
            assert metrics[name][1] == "us"
        assert metrics["trials_per_s_wall"][1] == "1/s"
        assert metrics["setup_s_wall"][1] == "s"
    if trace:
        coverage = result["metrics"]["trace.self_coverage"]["value"]
        assert 0.9 < coverage <= 1.0 + 1e-9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_self_times_partition_the_wall_time():
    tracer = tracing.Tracer()
    outer = tracer.span("outer")(lambda: inner())
    inner = tracer.span("inner")(lambda: sum(range(10_000)))
    outer()
    assert tracer.min_self_s() >= 0.0
    assert tracer.self_total_s() == pytest.approx(tracer.inclusive["outer"])
    (_, inner_id, inner_parent, *_), (_, outer_id, outer_parent, *_) = tracer.spans
    assert (inner_parent, outer_parent) == (outer_id, -1)


def test_setup_probe_times_a_fresh_process(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    ((seconds, scale),) = bench.setup_seconds("audit-transcript", 7)
    assert 0.0 < seconds < 60.0 and 0.0 < scale < 100.0


def test_a_flipped_label_on_an_l_round_fails_the_trial(monkeypatch, capsys):
    original = harness.run_trial

    def flipped(cfg, index):
        row, payload = original(cfg, index)
        entry = next(r for r in payload["rounds"] if r["outcome"] == "L")
        entry["label"] = 1
        return row, payload

    monkeypatch.setattr(harness, "run_trial", flipped)
    run_tiny("oblivious-sweep", trace=False)
    result, metrics = printed(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert metrics["failed_frac"][0] == 1.0


def test_the_audit_check_flags_the_broken_side_only():
    honest = harness.run_audit(10_000, 7, broken=False)
    broken = harness.run_audit(10_000, 7, broken=True)
    assert workloads.check_audit(False, *honest) == []
    assert workloads.check_audit(True, *broken) == []
    assert workloads.check_audit(True, *honest) != []
    assert workloads.check_audit(False, *broken) != []
