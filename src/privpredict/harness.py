"""Experiment orchestration: JSON configs, seeded trial fan-out, per-run report
emission, CSV aggregation, statistical gates, and the transcript-channel audit."""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import planner
from .adversaries import (
    BisectionAdversary,
    BoundaryProbeAdversary,
    ObliviousAdversary,
    OfflineAdversary,
    StochasticAdversary,
    load_query_csv,
    van_der_corput_queries,
)
from .concepts import (
    HalfspaceHypothesis,
    ThresholdClass,
    ThresholdHypothesis,
    evaluate_many,
    load_enumerated_class,
)
from .core import (
    AtomDistribution,
    BoxDistribution,
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    draw_sample,
)
from .dp import (
    BTOutcome,
    BTParams,
    PrivacyLedger,
    audit_dp,
    bt_init,
    bt_query,  # noqa: F401  (kept importable here: perfbench/tracing.py wraps it)
    compose_tight,
    first_top_events,
    label_prefix_events,
)
from .predictor import RunSpec, answer_query, default_v_max, run

CSV_COLUMNS = [
    "seed",
    "top_count",
    "max_block_error",
    "final_eps",
    "final_delta",
    "wrong_prediction_count",
    "fallback_count",
    "wall_ms",
]

MODES = ("oblivious", "halfspace", "stochastic-baseline")


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; serializes to/from JSON verbatim."""

    mode: str = "oblivious"
    t_rounds: int = 256
    trials: int = 1
    seed: int = 0
    alpha: float = 0.1
    beta: float = 0.1
    eps: float = 1.0
    delta: float = 1e-6
    d: int = 2
    domain_size: int = 2**14
    threshold: int = 0  # 0 means the grid midpoint
    concept_file: str = ""
    k: int = 0  # 0 means derive from n_budget
    m: int = 0
    n_budget: int = 0
    bt_eps: float = 8.0
    bt_delta: float = 1e-3
    v_max: int = 0  # 0 means the generator default
    adversary: str = "auto"
    adversary_tau: float = 0.0  # 0 means 2*alpha*diameter
    heldout: int = 0
    sphere_samples: int = 64
    workers: int = 1
    out_dir: str = "runs-out"
    record_timing: bool = False
    gates: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.t_rounds < 0 or self.trials < 1:
            raise ConfigurationError("need t_rounds >= 0 and trials >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        extra = set(payload) - known
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        return ExperimentConfig(**payload)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def resolve_plan(self) -> tuple[int, int]:
        if self.k and self.m:
            return self.k, self.m
        if self.n_budget:
            plan = planner.plan_budgeted(self.t_rounds, self.n_budget, self.bt_eps, self.bt_delta)
            return plan.k, plan.m
        raise ConfigurationError("config needs either explicit (k, m) or an n_budget")


def _build_distribution(cfg: ExperimentConfig, noise: NoiseSource):
    if cfg.mode in ("oblivious", "stochastic-baseline"):
        if cfg.concept_file:
            concept = load_enumerated_class(cfg.concept_file)
            probs = tuple(1.0 / len(concept.points) for _ in concept.points)
            target = concept.patterns[int(noise.rng.integers(len(concept.patterns)))]
            labels = tuple(int(v) for v in target)
            return AtomDistribution(concept.points, probs, labels), concept
        threshold = cfg.threshold or cfg.domain_size // 2 + 1
        return GridDistribution(cfg.domain_size, threshold), ThresholdClass(cfg.domain_size)
    lo = tuple(-1.0 for _ in range(cfg.d))
    hi = tuple(1.0 for _ in range(cfg.d))
    direction = noise.rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    offset = float(noise.rng.uniform(-0.2, 0.2))
    return BoxDistribution(lo, hi, tuple(float(c) for c in direction), offset), None


def _build_adversary(cfg: ExperimentConfig, dist, noise: NoiseSource):
    kind = cfg.adversary
    if kind == "auto":
        kind = {"oblivious": "grid-sweep", "halfspace": "boundary-probe",
                "stochastic-baseline": "stochastic"}[cfg.mode]
        if kind == "grid-sweep" and isinstance(dist, AtomDistribution):
            kind = "atom-sweep"
    if kind == "grid-sweep":
        points = van_der_corput_queries(cfg.t_rounds, cfg.domain_size) if cfg.t_rounds else []
        return OfflineAdversary(tuple(points))
    if kind == "atom-sweep":
        atoms = dist.atoms
        points = tuple(atoms[i % len(atoms)] for i in range(cfg.t_rounds))
        return OfflineAdversary(points)
    if kind == "stochastic":
        return StochasticAdversary(dist)
    if kind == "bisection":
        return BisectionAdversary(1, cfg.domain_size)
    if kind == "boundary-probe":
        tau = cfg.adversary_tau or 2.0 * cfg.alpha * dist.diameter
        return BoundaryProbeAdversary(dist.low, dist.high, tau)
    if kind.startswith("csv:"):
        return ObliviousAdversary(tuple(load_query_csv(kind[4:])))
    raise ConfigurationError(f"unknown adversary kind {kind!r}")


def build_run_spec(cfg: ExperimentConfig) -> RunSpec:
    k, m = cfg.resolve_plan()
    generator = "halfspace" if cfg.mode == "halfspace" else "oblivious"
    if cfg.v_max:
        v_max = cfg.v_max
    else:
        if generator == "halfspace":
            vc = cfg.d + 1
        elif cfg.concept_file:
            vc = load_enumerated_class(cfg.concept_file).vc_dimension()
        else:
            vc = 1
        v_max = default_v_max(generator, vc, cfg.t_rounds, cfg.beta)
    return RunSpec(
        generator=generator,
        k=k,
        m=m,
        t_rounds=cfg.t_rounds,
        bt_eps=cfg.bt_eps,
        bt_delta=cfg.bt_delta,
        v_max=v_max,
        sphere_samples=cfg.sphere_samples,
    )


def hypotheses_from_payload(payload: dict, concept=None) -> list:
    out = []
    for entry in payload["final_hypotheses"]:
        if entry["kind"] == "threshold":
            out.append(ThresholdHypothesis(entry["t"]))
        elif entry["kind"] == "halfspace":
            out.append(HalfspaceHypothesis(tuple(entry["weights"])))
        elif entry["kind"] == "enumerated":
            if concept is None:
                raise ConfigurationError("enumerated hypotheses need their concept class")
            out.append(concept.hypothesis(entry["index"]))
    return out


def majority_vote_error(hypotheses, sample: LabeledSample) -> float:
    """Heldout error of the sign of the ensemble's mean vote (ties count as +1)."""
    if all(isinstance(h, ThresholdHypothesis) for h in hypotheses):
        ts = np.sort([h.threshold for h in hypotheses])
        xs = np.array([p[0] for p in sample.points])
        votes = 2.0 * np.searchsorted(ts, xs, side="right") - len(hypotheses)
    else:
        votes = evaluate_many(hypotheses, sample.points).sum(axis=0)
    predicted = np.where(votes >= 0, 1, -1)
    return float(np.mean(predicted != np.array(sample.labels)))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[dict, dict]:
    """One seeded run; returns (csv row, full JSON payload)."""
    trial_seed = cfg.seed + trial_index
    root = NoiseSource(trial_seed)
    spec = build_run_spec(cfg)
    dist, concept = _build_distribution(cfg, root.child(3))
    adversary = _build_adversary(cfg, dist, root.child(3))
    sample = draw_sample(dist, spec.k * spec.m, root.child(2))
    started = time.perf_counter()
    report = run(
        spec,
        sample,
        adversary,
        root,
        concept=concept,
        target=dist,
        seed=trial_seed,
        config_digest=cfg.digest(),
    )
    wall_ms = int((time.perf_counter() - started) * 1000) if cfg.record_timing else 0
    payload = report.to_payload()
    if cfg.heldout:
        fresh = draw_sample(dist, cfg.heldout, root.child(4))
        hyps = hypotheses_from_payload(payload, concept)
        payload["heldout_error"] = majority_vote_error(hyps, fresh)
    row = {
        "seed": trial_seed,
        "top_count": report.top_count,
        "max_block_error": report.max_block_error,
        "final_eps": report.eps_total,
        "final_delta": report.delta_total,
        "wrong_prediction_count": report.wrong_predictions,
        "fallback_count": len(report.fallback_flags),
        "wall_ms": wall_ms,
    }
    return row, payload


def _trial_worker(args) -> tuple[int, dict, str]:
    cfg_dict, trial_index = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    row, payload = run_trial(cfg, trial_index)
    return trial_index, row, json.dumps(payload, sort_keys=True, separators=(",", ":"))


def evaluate_gates(rows: list[dict], gates: list[dict]) -> list[dict]:
    """Each gate: {"column", "max", "fraction"?}; the fraction of rows with
    column <= max must reach the (default 1.0) fraction."""
    results = []
    for gate in gates:
        column = gate["column"]
        bound = gate["max"]
        need = gate.get("fraction", 1.0)
        ok = sum(1 for r in rows if r[column] <= bound)
        frac = ok / len(rows) if rows else 1.0
        results.append({**gate, "observed_fraction": frac, "passed": frac >= need})
    return results


@dataclass
class ExperimentResult:
    digest: str
    out_dir: str
    csv_path: str
    rows: list[dict]
    gate_results: list[dict]

    @property
    def passed(self) -> bool:
        return all(g["passed"] for g in self.gate_results)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all trials, write runs/<digest>/<seed>.json and aggregate.csv."""
    digest = cfg.digest()
    out_root = Path(cfg.out_dir) / "runs" / digest
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg.to_dict(), i) for i in range(cfg.trials)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = sorted(pool.map(_trial_worker, jobs), key=lambda t: t[0])
    else:
        outcomes = [_trial_worker(job) for job in jobs]
    rows = []
    for trial_index, row, payload_json in outcomes:
        rows.append(row)
        (out_root / f"{row['seed']}.json").write_text(payload_json)
    csv_path = out_root / "aggregate.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    gate_results = evaluate_gates(rows, cfg.gates)
    return ExperimentResult(
        digest=digest,
        out_dir=str(out_root),
        csv_path=str(csv_path),
        rows=rows,
        gate_results=gate_results,
    )


# ---------------------------------------------------------------------------
# Transcript-channel audit toy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditToy:
    """A small thresholds ensemble whose public transcript is audited.

    Sixteen singleton blocks vote on four probe rounds where neighboring inputs
    shift the vote by exactly 1/16, then on certain-filler rounds.  The top
    budget is zero, so exactly one mechanism instance ever runs and the tight
    budget for the whole transcript is that instance's (eps, delta).  The
    threshold gap is widened from the prediction default to the loosest setting
    the gap precondition admits at this ensemble size, which is what makes the
    budget small enough for an empirical audit to say anything at all.
    """

    k: int = 16
    t_rounds: int = 32
    probe_rounds: int = 4
    bt_eps: float = 6.25
    bt_delta: float = 0.003
    t_lower: float = 1.0 / 16.0
    t_upper: float = 0.95
    domain: int = 64
    probe_x: float = 16.0
    filler_x: float = 64.0

    def stream(self) -> list[tuple[float, ...]]:
        probes = [(self.probe_x,)] * self.probe_rounds
        fillers = [(self.filler_x,)] * (self.t_rounds - self.probe_rounds)
        return probes + fillers

    def samples(self) -> tuple[LabeledSample, LabeledSample]:
        neg = [((17.0 + (i % 13),), -1) for i in range(self.k - 1)]
        base = [((30.0,), 1)] + neg
        swapped = list(base)
        swapped[1] = ((31.0,), 1)
        return LabeledSample.from_records(base), LabeledSample.from_records(swapped)

    def params(self, scale_factor: float = 1.0) -> BTParams:
        # scale_factor < 1 silently shrinks the noise: the "broken" variant runs
        # at eps/scale_factor while still claiming bt_eps.
        return BTParams(
            eps=self.bt_eps / scale_factor,
            delta=self.bt_delta,
            n=self.k,
            t_lower=self.t_lower,
            t_upper=self.t_upper,
            max_queries=self.t_rounds,
        )

    def budget(self) -> tuple[float, float]:
        """Tight composition bound over the single opened instance."""
        ledger = PrivacyLedger()
        ledger.append(self.bt_eps, self.bt_delta)
        return compose_tight(ledger, self.bt_delta)

    def mechanism(self, scale_factor: float = 1.0):
        """The vote/threshold channel of a prediction run with top budget zero.

        Equivalent to the full loop with singleton blocks: the partition draw is
        consumed identically, vote counts are permutation invariant, and each
        vote is answered by ``answer_query``, the step ``run`` uses.
        """
        params = self.params(scale_factor)
        xs = np.array([x[0] for x in self.stream()])
        k = self.k

        def mech(sample: LabeledSample, noise: NoiseSource):
            mech_noise = noise.child(0)
            mech_noise.permutation(len(sample))
            thresholds = np.sort(
                [1.0 if lab > 0 else p[0] + 1.0 for p, lab in sample.records()]
            )
            # the vote counts of every round at once; nearly every transcript
            # halts within its first few rounds, so a count is divided on use
            counts = np.searchsorted(thresholds, xs, side="right").tolist()
            state = bt_init(params, mech_noise)
            labels: list[int] = []
            for j, count in enumerate(counts, 1):
                outcome, label = answer_query(state, count / k, mech_noise)
                labels.append(label)
                if outcome is BTOutcome.TOP:
                    return tuple(labels), j, True
            return tuple(labels), 0, False

        return mech

    def events(self):
        return first_top_events(self.t_rounds) + label_prefix_events(4)


def run_audit(trials: int, seed: int, broken: bool = False, toy: AuditToy | None = None):
    """Audit the toy's transcript channel; returns (report, budget_eps, budget_delta)."""
    toy = toy or AuditToy()
    sample, neighbor = toy.samples()
    mech = toy.mechanism(scale_factor=0.5 if broken else 1.0)
    report = audit_dp(
        mech,
        sample,
        neighbor,
        toy.events(),
        trials=trials,
        noise=NoiseSource(seed),
        delta=toy.bt_delta,
    )
    budget_eps, budget_delta = toy.budget()
    return report, budget_eps, budget_delta
