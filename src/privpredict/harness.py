"""Experiment orchestration: JSON configs, seeded trial fan-out, per-run report
emission, CSV aggregation, statistical gates, and the transcript-channel audit."""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import geometry, planner
from .adversaries import (
    BoundaryProbeAdversary,
    OfflineAdversary,
    StochasticAdversary,
    van_der_corput_queries,
)
from .concepts import Ensemble, ThresholdClass, load_enumerated_class
from .core import (
    AtomDistribution,
    BoxDistribution,
    CapabilityError,
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    PreconditionError,
    draw_sample,
)
from .dp import (
    BTParams,
    audit_dp,
    bt_init,
    bt_query,  # noqa: F401  (kept importable here: perfbench/tracing.py wraps it)
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
SAMPLE_CAP = 2**24  # coordinates one trial may draw, for its sample and for its heldout set


# the Python types a JSON value of each field's annotation may load as; bool,
# an int subclass, is accepted only for bool fields
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "list": list}


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; serializes to/from JSON verbatim."""

    mode: str = "oblivious"
    t_rounds: int = 256
    trials: int = 1
    seed: int = 0
    alpha: float = 0.1
    beta: float = 0.1
    d: int = 2
    domain_size: int = 2**14
    concept_file: str = ""
    k: int = 0  # 0 means derive from n_budget
    m: int = 0
    n_budget: int = 0
    bt_eps: float = 8.0
    bt_delta: float = 1e-3
    v_max: int = 0  # 0 means the generator default
    adversary_tau: float = 0.0  # 0 means 2*alpha*diameter
    heldout: int = 0
    workers: int = 1
    out_dir: str = "runs-out"
    record_timing: bool = False
    gates: list = field(default_factory=list)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _JSON_TYPES[f.type]) or (
                    isinstance(value, bool) and f.type != "bool") or (
                    isinstance(value, int) and f.type == "float" and abs(value) > sys.float_info.max):
                raise ConfigurationError(f"{f.name} must be a JSON {f.type}, got {value!r}")
        for name in ("seed", "k", "m", "n_budget", "v_max", "heldout"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("d", "workers"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.t_rounds < 0 or self.trials < 1:
            raise ConfigurationError("need t_rounds >= 0 and trials >= 1")
        if self.seed + self.trials > 2**63:  # a trial's seed names its payload file
            raise ConfigurationError(f"seed + trials must not pass 2**63, got {self.seed + self.trials}")
        for name in ("alpha", "beta"):
            if not sys.float_info.min <= getattr(self, name) < 1:  # so that 1/beta is finite
                raise ConfigurationError(f"{name} must lie in [2**-1022, 1), got {getattr(self, name)!r}")
        if not self.adversary_tau >= 0:  # also rejects nan
            raise ConfigurationError(f"adversary_tau must be >= 0, got {self.adversary_tau!r}")
        for gate in self.gates:
            _check_gate(gate)

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


def _check_gate(gate) -> None:
    """Gates come from config files: reject one that evaluate_gates could not read."""
    if not isinstance(gate, dict) or gate.get("column") not in CSV_COLUMNS:
        raise ConfigurationError(f"a gate needs a column of {CSV_COLUMNS}, got {gate!r}")
    extra = set(gate) - {"column", "max", "fraction"}
    if extra:
        raise ConfigurationError(f"unknown gate keys: {sorted(extra)}")
    if not isinstance(gate.get("max"), (int, float)) or gate["max"] != gate["max"]:  # nan
        raise ConfigurationError(f"gate on {gate['column']!r} needs a numeric max")
    fraction = gate.get("fraction", 1.0)
    if not (isinstance(fraction, (int, float)) and 0 < fraction <= 1):
        raise ConfigurationError(f"gate fraction must lie in (0, 1], got {fraction!r}")


def _build_distribution(cfg: ExperimentConfig, noise: NoiseSource):
    if cfg.mode in ("oblivious", "stochastic-baseline"):
        if cfg.concept_file:
            concept = load_enumerated_class(cfg.concept_file)
            probs = tuple(1.0 / len(concept.points) for _ in concept.points)
            target = concept.patterns[int(noise.rng.integers(len(concept.patterns)))]
            labels = tuple(int(v) for v in target)
            return AtomDistribution(concept.points, probs, labels), concept
        threshold = cfg.domain_size // 2 + 1
        return GridDistribution(cfg.domain_size, threshold), _threshold_class(cfg.domain_size)
    lo = tuple(-1.0 for _ in range(cfg.d))
    hi = tuple(1.0 for _ in range(cfg.d))
    direction = noise.rng.standard_normal(cfg.d)
    direction /= np.linalg.norm(direction)
    offset = float(noise.rng.uniform(-0.2, 0.2))
    return BoxDistribution(lo, hi, tuple(float(c) for c in direction), offset), None


def _build_adversary(cfg: ExperimentConfig, dist):
    """The mode's query stream: a boundary probe against halfspaces, i.i.d. draws
    for the stochastic baseline, and otherwise a sweep of the atoms or the grid."""
    if cfg.mode == "halfspace":
        tau = cfg.adversary_tau or 2.0 * cfg.alpha * dist.diameter
        return BoundaryProbeAdversary(dist.low, dist.high, tau)
    if cfg.mode == "stochastic-baseline":
        return StochasticAdversary(dist)
    if isinstance(dist, AtomDistribution):
        atoms = dist.atoms
        return OfflineAdversary(tuple(atoms[i % len(atoms)] for i in range(cfg.t_rounds)))
    return _grid_sweep(cfg.t_rounds, cfg.domain_size)


@functools.lru_cache(maxsize=8)
def _threshold_class(domain_size: int) -> ThresholdClass:
    """One class per grid size in a process, so the query cuts it keeps for the
    last stream carry over from trial to trial."""
    return ThresholdClass(domain_size)


@functools.lru_cache(maxsize=8)
def _grid_sweep(t_rounds: int, domain_size: int) -> OfflineAdversary:
    """The van der Corput sweep of a grid.  It depends on no seed, so it is built
    once per shape in a process, and every trial hands the class the same tuple."""
    points = van_der_corput_queries(t_rounds, domain_size) if t_rounds else []
    return OfflineAdversary(tuple(points))


@functools.lru_cache(maxsize=8)
def _class_vc_dimension(path: str, content: bytes) -> int:
    """The VC dimension of a concept file's class.  The search is brute force,
    so it runs once per file path and content in a process, not per trial."""
    return load_enumerated_class(path).vc_dimension()


def build_run_spec(cfg: ExperimentConfig) -> RunSpec:
    halfspace = cfg.mode == "halfspace"
    # checked before the plan, whose divisor search runs up to n_budget; a box
    # point has d coordinates, and any other point counts as one
    n = max(cfg.k * cfg.m if cfg.k and cfg.m else cfg.n_budget, cfg.heldout)
    if n * (cfg.d if halfspace else 1) > SAMPLE_CAP:
        raise ConfigurationError(f"a trial would draw {n} points of d={cfg.d if halfspace else 1} "
                                 f"coordinates, over harness.SAMPLE_CAP = {SAMPLE_CAP}")
    # the trials load the class file, so one that cannot be read fails here
    content = Path(cfg.concept_file).read_bytes() if cfg.concept_file and not halfspace else None
    k, m = cfg.resolve_plan()
    if halfspace:
        try:  # the first refit runs at full dimension d + 1, so it has the most candidates
            geometry.check_cap(m, cfg.d + 1, sphere_samples=64)  # the refit's sphere samples
        except CapabilityError as exc:
            raise ConfigurationError(f"halfspace blocks of m={m} points in d={cfg.d} "
                                     f"overflow geometry.CANDIDATE_CAP: {exc}") from exc
    if cfg.v_max:
        v_max = cfg.v_max
    elif halfspace:
        v_max = cfg.d + 2  # one more than the d + 1 drops of the subspace's dimension
    else:
        vc = 1 if content is None else _class_vc_dimension(cfg.concept_file, content)
        v_max = default_v_max(vc, cfg.t_rounds, cfg.beta)
    spec = RunSpec(k=k, m=m, t_rounds=cfg.t_rounds, bt_eps=cfg.bt_eps,
                   bt_delta=cfg.bt_delta, v_max=v_max)
    try:  # the trial's BetweenThresholds parameters, grid and sweep fail here, not in it
        spec.bt_params()
        if not halfspace and not cfg.concept_file:
            _threshold_class(cfg.domain_size)
            if cfg.mode == "oblivious":
                _grid_sweep(cfg.t_rounds, cfg.domain_size)
    except PreconditionError as exc:
        raise ConfigurationError(f"threshold-gap precondition binds at k={k}: {exc}") from exc
    except CapabilityError as exc:
        raise ConfigurationError(f"domain_size={cfg.domain_size}: {exc}") from exc
    return spec


def majority_vote_error(ensemble: Ensemble, sample: LabeledSample) -> float:
    """Heldout error of the sign of the ensemble's mean vote (ties count as +1)."""
    predicted = np.where(2 * ensemble.votes(sample.points) >= len(ensemble), 1, -1)
    return float(np.mean(predicted != sample.labels))


def run_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[dict, dict]:
    """One seeded run; returns (csv row, full JSON payload)."""
    trial_seed = cfg.seed + trial_index
    root = NoiseSource(trial_seed)
    spec = build_run_spec(cfg)
    dist, concept = _build_distribution(cfg, root.child(3))
    adversary = _build_adversary(cfg, dist)
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
        payload["heldout_error"] = majority_vote_error(report.ensemble, fresh)
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
    build_run_spec(cfg)  # a plan no trial can run fails before anything is written
    digest = cfg.digest()
    out_root = Path(cfg.out_dir) / "runs" / digest
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg.to_dict(), i) for i in range(cfg.trials)]
    if cfg.workers > 1:
        # imported here: it loads multiprocessing, which one-process runs never use
        from concurrent.futures import ProcessPoolExecutor

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

    k = 16
    t_rounds = 32
    probe_rounds = 4
    bt_eps = 6.25
    bt_delta = 0.003
    t_lower = 1.0 / 16.0
    t_upper = 0.95
    domain = 64
    probe_x = 16.0
    filler_x = 64.0

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
        """The transcript's budget: the (eps, delta) of its one mechanism instance."""
        return self.bt_eps, self.bt_delta

    def mechanism(self, scale_factor: float = 1.0):
        """The vote/threshold channel of a prediction run with top budget zero.

        Equivalent to the full loop with singleton blocks after its partition
        draw: the blocks are fit by the ERM ``run`` refits with, vote counts
        are permutation invariant, and each vote is answered by
        ``answer_query``, the step ``run`` uses.  So the vote counts of every
        round depend on the sample alone.  Each sample's query values
        count / k are computed once and cached, so a round does no division.
        ``bt_init`` and every answer draw straight from ``noise``, so calls on
        one source continue its stream.
        """
        params = self.params(scale_factor)
        stream = self.stream()
        k = self.k
        concept = ThresholdClass(self.domain)
        queries_of: dict[LabeledSample, list[float]] = {}

        def mech(sample: LabeledSample, noise: NoiseSource):
            queries = queries_of.get(sample)
            if queries is None:
                blocks = concept.blocks(sample.points, sample.labels[:, None])
                ensemble = concept.ensemble(concept.erm_blocks((), blocks))
                queries = queries_of[sample] = (ensemble.votes(stream) / k).tolist()
            state = bt_init(params, noise)
            labels: list[int] = []
            for j, q in enumerate(queries, 1):
                _, label = answer_query(state, q, noise)
                labels.append(label)
                if state.halted:  # a TOP answer halts the instance
                    return tuple(labels), j, True
            return tuple(labels), 0, False

        return mech

    def events(self):
        return first_top_events(self.t_rounds) + label_prefix_events(4)


def run_audit(trials: int, seed: int, broken: bool = False):
    """Audit the toy's transcript channel; returns (report, budget_eps, budget_delta)."""
    toy = AuditToy()
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
    return (report, *toy.budget())
