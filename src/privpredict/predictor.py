"""The ensemble prediction loop: partition the sample into blocks, answer each
query by feeding the ensemble's vote fraction to BetweenThresholds, and shrink
the generator state on every hard (top) round.

Two hypothesis generators are provided: version-space ERM for oblivious streams
over thresholds/enumerated classes, and feasible-subspace cdepth maximization
for halfspaces under adaptive streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import geometry
from .concepts import (
    ConceptClass,
    EnumeratedHypothesis,
    HalfspaceHypothesis,
    Hypothesis,
    ThresholdClass,
    ThresholdHypothesis,
    VersionSpace,
    evaluate_many,
)
from .core import (
    ConfigurationError,
    EmptyVersionSpaceError,
    LabeledSample,
    NoiseSource,
    Point,
    UsageError,
    empirical_error,  # noqa: F401  (kept importable here: perfbench/tracing.py wraps it)
    partition,
)
from .dp import BTOutcome, BTParams, PrivacyLedger, bt_init, bt_query, compose_advanced


def vote_fraction(hypotheses, x: Point) -> float:
    """Exact fraction of +1 votes among the hypotheses at x."""
    if not hypotheses:
        raise ConfigurationError("vote fraction needs at least one hypothesis")
    positive = sum(1 for h in hypotheses if h.evaluate(x) > 0)
    return positive / len(hypotheses)


@dataclass(frozen=True)
class RunSpec:
    """Everything one prediction run needs besides the data and the adversary."""

    generator: str  # "oblivious" or "halfspace"
    k: int
    m: int
    t_rounds: int
    bt_eps: float
    bt_delta: float
    v_max: int
    t_lower: float = 0.375
    t_upper: float = 0.625
    delta_prime: float = 1e-6
    sphere_samples: int = 64
    memoize: bool = True

    def bt_params(self) -> BTParams:
        return BTParams(
            eps=self.bt_eps,
            delta=self.bt_delta,
            n=self.k,
            t_lower=self.t_lower,
            t_upper=self.t_upper,
            max_queries=self.t_rounds,
        )


def default_v_max(generator: str, vc_dim: int, t_rounds: int, beta: float) -> int:
    """Top budget: 4*(VC*log2 T + log2(1/beta)) for oblivious runs, d+2 for halfspaces."""
    if generator == "halfspace":
        return vc_dim + 1  # vc_dim = d+1 for halfspaces, so this is d+2
    t_term = np.log2(max(t_rounds, 2))
    return int(np.ceil(4.0 * (vc_dim * t_term + np.log2(1.0 / beta))))


class _ObliviousGenerator:
    """Shared version space + per-block ERM; hypotheses change only on top rounds."""

    def __init__(self, concept: ConceptClass, blocks: list[LabeledSample]):
        self.concept = concept
        self.blocks = blocks
        self.space = VersionSpace(concept)
        self._hypotheses: list[Hypothesis] | None = None
        self._sorted_thresholds: np.ndarray | None = None

    def refresh(self) -> list[int]:
        """(Re)compute all block hypotheses; returns indices of dropped constraints."""
        dropped: list[int] = []
        while True:
            try:
                self._hypotheses = [self.space.erm(block) for block in self.blocks]
                break
            except EmptyVersionSpaceError:
                if not self.space.constraints:
                    raise
                dropped.append(len(self.space.constraints) - 1)
                self.space = self.space.drop_newest()
        if isinstance(self.concept, ThresholdClass):
            self._sorted_thresholds = np.sort([h.threshold for h in self._hypotheses])
        return dropped

    def invalidate(self) -> None:
        self._hypotheses = None
        self._sorted_thresholds = None

    @property
    def hypotheses(self) -> list[Hypothesis]:
        if self._hypotheses is None:
            raise UsageError("generator not refreshed")
        return self._hypotheses

    def vote(self, x: Point) -> float:
        if self._sorted_thresholds is not None:
            positive = int(np.searchsorted(self._sorted_thresholds, x[0], side="right"))
            return positive / len(self.blocks)
        return vote_fraction(self.hypotheses, x)

    def on_top(self, x: Point, label: int, full_queries) -> dict[str, Any]:
        before = self.space.pattern_count(full_queries) if full_queries else None
        self.space = self.space.restrict(x, label)
        after = self.space.pattern_count(full_queries) if full_queries else None
        self.invalidate()
        info: dict[str, Any] = {}
        if before is not None:
            info["patterns_before"] = int(before)
            info["patterns_after"] = int(after)
            info["halved"] = bool(after * 2 <= before)
        return info


class _HalfspaceGenerator:
    """Shared feasible subspace + per-block depth profiles; cdepth argmax per block."""

    def __init__(self, d: int, blocks: list[LabeledSample], sphere_samples: int):
        self.d = d
        self.blocks = blocks
        self.sphere_samples = sphere_samples
        self.space = geometry.FeasibleSubspace.full(d + 1)
        self.profiles = [
            geometry.DepthProfile(
                np.array([geometry.to_constraint(p, lab) for p, lab in blk.records()])
            )
            for blk in blocks
        ]
        self._weights: np.ndarray | None = None
        self._values: list[int] | None = None
        self.degenerate = False

    def refresh(self) -> list[int]:
        rows = []
        values = []
        for profile in self.profiles:
            result = geometry.argmax_cdepth(profile, self.space, self.sphere_samples)
            point = result.point
            norm = float(np.linalg.norm(point))
            rows.append(point / norm if norm > 0 else point)
            values.append(result.value)
            if result.degenerate:
                self.degenerate = True
        self._weights = np.vstack(rows)
        self._values = values
        return []

    def invalidate(self) -> None:
        self._weights = None
        self._values = None

    @property
    def hypotheses(self) -> list[HalfspaceHypothesis]:
        if self._weights is None:
            raise UsageError("generator not refreshed")
        return [HalfspaceHypothesis.from_vector(w) for w in self._weights]

    @property
    def cdepth_values(self) -> list[int]:
        if self._values is None:
            raise UsageError("generator not refreshed")
        return list(self._values)

    def vote(self, x: Point) -> float:
        lifted = np.asarray(tuple(x) + (-1.0,))
        positive = int(np.count_nonzero(self._weights @ lifted >= 0.0))
        return positive / len(self.blocks)

    def on_top(self, x: Point, label: int, full_queries) -> dict[str, Any]:
        normal = np.asarray(tuple(x) + (-1.0,))
        before = self.space.dimension
        self.space, redundant = self.space.intersect(normal)
        self.invalidate()
        return {
            "dim_before": int(before),
            "dim_after": int(self.space.dimension),
            "redundant": bool(redundant),
        }


def _serialize_hypothesis(h: Hypothesis) -> dict[str, Any]:
    if isinstance(h, ThresholdHypothesis):
        return {"kind": "threshold", "t": int(h.threshold)}
    if isinstance(h, EnumeratedHypothesis):
        return {"kind": "enumerated", "index": int(h.index)}
    return {"kind": "halfspace", "weights": [float(c) for c in h.weights]}


@dataclass
class RunReport:
    """Full record of one prediction run; serializes canonically to JSON."""

    seed: int
    config_digest: str
    rounds: list[dict[str, Any]] = field(default_factory=list)
    top_rounds: list[dict[str, Any]] = field(default_factory=list)
    fallback_flags: list[dict[str, Any]] = field(default_factory=list)
    cdepth_progress: list[dict[str, Any]] = field(default_factory=list)
    top_count: int = 0
    aborted: bool = False
    degenerate: bool = False
    eps_total: float = 0.0
    delta_total: float = 0.0
    bt_eps: float = 0.0
    bt_delta: float = 0.0
    final_hypotheses: list[dict[str, Any]] = field(default_factory=list)
    max_block_error: float = 0.0
    wrong_predictions: int = 0

    def labels(self) -> list[int]:
        return [r["label"] for r in self.rounds]

    def first_top_round(self) -> int:
        return self.top_rounds[0]["round"] if self.top_rounds else 0

    def observable(self) -> tuple:
        """The public output channel: emitted labels plus the visible stop."""
        return tuple(self.labels()), self.first_top_round(), self.aborted

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "config_digest": self.config_digest,
            "rounds": self.rounds,
            "top_rounds": self.top_rounds,
            "fallback_flags": self.fallback_flags,
            "cdepth_progress": self.cdepth_progress,
            "top_count": self.top_count,
            "aborted": self.aborted,
            "degenerate": self.degenerate,
            "eps_total": self.eps_total,
            "delta_total": self.delta_total,
            "bt_eps": self.bt_eps,
            "bt_delta": self.bt_delta,
            "final_hypotheses": self.final_hypotheses,
            "max_block_error": self.max_block_error,
            "wrong_predictions": self.wrong_predictions,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run(
    spec: RunSpec,
    sample: LabeledSample,
    adversary,
    noise: NoiseSource,
    concept: ConceptClass | None = None,
    target=None,
    seed: int = 0,
    config_digest: str = "",
) -> RunReport:
    """Answer spec.t_rounds adversarial queries with the block ensemble.

    The privacy ledger collects one (bt_eps, bt_delta) entry per halted
    mechanism instance; totals come from advanced composition.  Exceeding the
    top budget aborts the run (recorded, not raised).
    """
    if len(sample) != spec.k * spec.m:
        raise ConfigurationError(f"|S|={len(sample)} != k*m = {spec.k * spec.m}")
    params = spec.bt_params()
    mech_noise = noise.child(0)
    adv_noise = noise.child(1)
    blocks = partition(sample, spec.k, mech_noise)

    if spec.generator == "oblivious":
        if concept is None:
            raise ConfigurationError("oblivious runs need a concept class")
        generator = _ObliviousGenerator(concept, blocks)
    elif spec.generator == "halfspace":
        generator = _HalfspaceGenerator(sample.dimension, blocks, spec.sphere_samples)
    else:
        raise ConfigurationError(f"unknown generator {spec.generator!r}")

    full_queries = adversary.disclose() if hasattr(adversary, "disclose") else None
    report = RunReport(seed=seed, config_digest=config_digest,
                       bt_eps=spec.bt_eps, bt_delta=spec.bt_delta)
    ledger = PrivacyLedger()
    bt_state = bt_init(params, mech_noise)
    history: list[tuple[Point, int]] = []
    stale = True

    def note_progress() -> None:
        if spec.generator != "halfspace":
            return
        entry = {
            "hard_count": report.top_count,
            "min_cdepth_fraction": min(generator.cdepth_values) / spec.m,
        }
        if not report.cdepth_progress or report.cdepth_progress[-1] != entry:
            report.cdepth_progress.append(entry)

    for j in range(1, spec.t_rounds + 1):
        if stale or not spec.memoize:
            dropped = generator.refresh()
            for idx in dropped:
                report.fallback_flags.append({"round": j, "dropped_constraint": idx})
            note_progress()
            stale = False
        x = adversary.next_query(history, adv_noise)
        q = generator.vote(x)
        outcome = bt_query(bt_state, q, mech_noise)
        if outcome is BTOutcome.L:
            label = -1
        elif outcome is BTOutcome.R:
            label = 1
        else:
            label = mech_noise.coin()
        entry = {"round": j, "x": list(x), "outcome": outcome.value, "label": label, "q": q}
        report.rounds.append(entry)
        history.append((x, label))
        if target is not None and target.label(x) != label:
            report.wrong_predictions += 1
        if outcome is BTOutcome.TOP:
            ledger.append(spec.bt_eps, spec.bt_delta)
            report.top_count += 1
            info = generator.on_top(x, label, full_queries)
            top_entry = {"round": j, "x": list(x), "label": label}
            top_entry.update(info)
            report.top_rounds.append(top_entry)
            stale = True
            if report.top_count > spec.v_max:
                report.aborted = True
                break
            bt_state = bt_init(params, mech_noise)

    if stale or not spec.memoize:
        dropped = generator.refresh()
        for idx in dropped:
            report.fallback_flags.append({"round": spec.t_rounds + 1, "dropped_constraint": idx})
        note_progress()
    report.degenerate = bool(getattr(generator, "degenerate", False))
    report.eps_total, report.delta_total = compose_advanced(ledger, spec.delta_prime)
    hypotheses = generator.hypotheses
    report.final_hypotheses = [_serialize_hypothesis(h) for h in hypotheses]
    wrong = (evaluate_many(hypotheses, sample.points) != np.asarray(sample.labels)).sum(axis=1)
    report.max_block_error = int(wrong.max()) / len(sample)
    return report
