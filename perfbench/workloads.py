"""The three benchmark workloads, how each one is built from a seed, and the
output checks that decide whether a trial counts as failed.

A workload is a fixed list of jobs derived from the base seed.  Every job is
one call into the public harness: ``harness.run_trial`` for the prediction
workloads (one job is one trial), ``harness.run_audit`` for the audit (one job
is one side of the honest/broken pair and covers ``audit_trials`` trials).
The calls resolve ``harness.<name>`` at call time, so the tracer's wrappers
take effect.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

from privpredict import harness
from privpredict.dp import PrivacyLedger, compose_advanced
from privpredict.harness import AuditToy, ExperimentConfig
from tracing import ANSWER_BLOCK

DELTA_PRIME = 1e-6   # delta' of the advanced composition a report must match
AUDIT_SLACK = 0.3    # honest eps_hat may exceed the tight budget by this much


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    trials: int = 0               # prediction: trials, seeds seed+0 .. seed+trials-1
    config: dict = dataclasses.field(default_factory=dict)
    audit_trials: int = 0         # audit: audit_dp trials per side of each run_audit call

    @property
    def is_audit(self) -> bool:
        return self.audit_trials > 0

    def build(self, seed: int):
        if self.is_audit:
            return AuditRun(self, seed)
        return PredictionRun(self, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="halfspace-adaptive",
            default_seed=0,
            trials=40,
            config=dict(mode="halfspace", t_rounds=2**10, d=2, n_budget=600, bt_eps=8.0,
                        bt_delta=1e-2, alpha=0.1, beta=0.1, adversary_tau=0.11),
        ),
        Workload(
            name="oblivious-sweep",
            default_seed=0,
            trials=100,
            config=dict(mode="oblivious", t_rounds=2**12, domain_size=2**14, k=52, m=40,
                        bt_eps=8.0, bt_delta=1e-3, alpha=0.1, beta=0.1, heldout=10_000),
        ),
        Workload(
            name="audit-transcript",
            default_seed=7,
            audit_trials=20_000,
        ),
    )
}


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class PredictionRun:
    """Trials ``seed + i`` of one ExperimentConfig through ``harness.run_trial``."""

    def __init__(self, workload: Workload, seed: int):
        self.cfg = ExperimentConfig(seed=seed, **workload.config)
        self.k = harness.build_run_spec(self.cfg).k
        self.jobs = list(range(workload.trials))

    def run_job(self, index: int):
        return harness.run_trial(self.cfg, index)

    def job_trials(self, index: int) -> int:
        return 1

    def timing_units(self, index: int, trials: int, elapsed: float, clock):
        """(unit, trials, seconds) of one job: a trial is its own timing unit."""
        return [(index, trials, elapsed)]

    def payload(self, result) -> bytes:
        return canonical(result[1])

    def check(self, index: int, result) -> list[str]:
        return check_prediction(self.cfg, result[0], result[1])

    def quality(self, result, outputs) -> tuple[float, int, int, int]:
        """(eps spent, runs, wrong answers, answers) contributed by one job."""
        row, payload = result
        return row["final_eps"], 1, row["wrong_prediction_count"], len(payload["rounds"])

    def layer_counts(self, result) -> Counter:
        payload = result[1]
        return Counter(rounds=len(payload["rounds"]),
                       dropped_constraints=len(payload["fallback_flags"]))


class AuditRun:
    """``harness.run_audit`` on the honest side, then on the broken side."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.toy = AuditToy()
        sample, _ = self.toy.samples()
        boundary = min(p[0] for p, lab in sample.records() if lab > 0)
        self.target = tuple(1 if x[0] >= boundary else -1 for x in self.toy.stream())
        self.k = None  # no ensemble refreshes
        self.jobs = [False, True]  # the broken flag of each run_audit call

    def run_job(self, broken: bool):
        return harness.run_audit(self.workload.audit_trials, self.seed, broken=broken)

    def job_trials(self, broken: bool) -> int:
        return self.workload.audit_trials

    def timing_units(self, index: int, trials: int, elapsed: float, clock):
        """(unit, trials, seconds) of one job, split into windows of ANSWER_BLOCK
        transcripts.  A window runs from the start of its first transcript to
        the start of the next window's, and the last one to the end of the
        job's last transcript.  An audit trial is two transcripts, one per
        side of ``audit_dp``.  The job's few steps before the first transcript
        and after the last are left out.
        """
        starts = list(clock.starts) + [clock.starts[-1] + clock.samples[-1]]
        units = []
        for first in range(0, len(clock.starts), ANSWER_BLOCK):
            last = min(first + ANSWER_BLOCK, len(clock.starts))
            units.append(((index, first), (last - first) / 2, starts[last] - starts[first]))
        return units

    def payload(self, result) -> bytes:
        report, budget_eps, budget_delta = result
        return canonical({"report": dataclasses.asdict(report),
                          "budget": [budget_eps, budget_delta]})

    def check(self, broken: bool, result) -> list[str]:
        return check_audit(broken, *result)

    def quality(self, result, outputs: Counter) -> tuple[float, int, int, int]:
        """Each transcript that halted spent the tight budget of its one instance;
        a label is wrong when it disagrees with the sample's threshold concept."""
        _, budget_eps, _ = result
        eps = runs = wrong = answers = 0
        for (labels, first_top, _aborted), count in outputs.items():
            runs += count
            if first_top:
                eps += budget_eps * count
            answers += len(labels) * count
            wrong += sum(lab != want for lab, want in zip(labels, self.target)) * count
        return eps, runs, wrong, answers

    def layer_counts(self, result) -> Counter:
        return Counter()


def check_prediction(cfg: ExperimentConfig, row: dict, payload: dict) -> list[str]:
    """Problems in one trial's outputs; an empty list means the trial is correct."""
    problems = []
    for entry in payload["rounds"]:
        want = {"L": -1, "R": 1}.get(entry["outcome"])
        if want is not None and entry["label"] != want:
            problems.append(f"round {entry['round']}: outcome {entry['outcome']} "
                            f"emitted label {entry['label']}")
            break
    tops = sum(1 for entry in payload["rounds"] if entry["outcome"] == "top")
    if not payload["top_count"] == tops == len(payload["top_rounds"]) == row["top_count"]:
        problems.append(f"top_count {payload['top_count']} disagrees with {tops} top rounds")
    if payload["aborted"]:
        problems.append("run aborted past its top budget")
    ledger = PrivacyLedger()
    for _ in range(payload["top_count"]):
        ledger.append(cfg.bt_eps, cfg.bt_delta)
    want_eps, want_delta = compose_advanced(ledger, DELTA_PRIME)
    if (row["final_eps"], row["final_delta"]) != (want_eps, want_delta) or (
        payload["eps_total"], payload["delta_total"]) != (want_eps, want_delta):
        problems.append(f"final (eps, delta) = ({row['final_eps']!r}, {row['final_delta']!r}), "
                        f"composition gives ({want_eps!r}, {want_delta!r})")
    if cfg.mode == "halfspace":
        dim = cfg.d + 1
        for top in payload["top_rounds"]:
            before, after, redundant = top["dim_before"], top["dim_after"], top["redundant"]
            if before != dim or (before - after == 1) == redundant:
                problems.append(f"round {top['round']}: dimension chain {dim} -> "
                                f"({before}, {after}, redundant={redundant})")
                break
            dim = after
    return problems


def check_audit(broken: bool, report, budget_eps: float, budget_delta: float) -> list[str]:
    """The honest side stays within budget + slack; the broken side is flagged."""
    if broken:
        if not report.eps_hat > budget_eps:
            return [f"broken side not flagged: eps_hat {report.eps_hat!r} <= {budget_eps}"]
        return []
    if report.diverged or not report.eps_hat <= budget_eps + AUDIT_SLACK:
        return [f"honest side over budget: eps_hat {report.eps_hat!r} "
                f"(diverged={report.diverged}) vs {budget_eps} + {AUDIT_SLACK}"]
    return []

