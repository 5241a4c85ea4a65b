"""The ensemble prediction loop: partition the sample into blocks, answer each
query by feeding the ensemble's vote fraction to BetweenThresholds, and shrink
the generator state on every hard (top) round.

Two hypothesis generators are provided: version-space ERM for oblivious streams
over thresholds/enumerated classes, and feasible-subspace cdepth maximization
for halfspaces under adaptive streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import geometry
from .concepts import ConceptClass, Ensemble, HalfspaceEnsemble, VersionSpace
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
from .dp import (
    _L,
    _R,
    _TOP,
    BTOutcome,
    BTParams,
    BTState,
    PrivacyLedger,
    bt_init,
    bt_query,
    compose_advanced,
)

DELTA_PRIME = 1e-6  # delta' of the advanced composition over a run's halted instances


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

    def bt_params(self) -> BTParams:
        return BTParams(eps=self.bt_eps, delta=self.bt_delta, n=self.k, max_queries=self.t_rounds)


def answer_query(state: BTState, q: float, noise: NoiseSource) -> tuple[BTOutcome, int]:
    """One BetweenThresholds answer: L is -1, R is +1, and TOP draws a fair coin."""
    outcome = bt_query(state, q, noise)
    if outcome is _L:
        return outcome, -1
    if outcome is _R:
        return outcome, 1
    return outcome, noise.coin()


def default_v_max(generator: str, vc_dim: int, t_rounds: int, beta: float) -> int:
    """Top budget: 4*(VC*log2 T + log2(1/beta)) for oblivious runs, d+2 for halfspaces."""
    if generator == "halfspace":
        return vc_dim + 1  # vc_dim = d+1 for halfspaces, so this is d+2
    t_term = np.log2(max(t_rounds, 2))
    return int(np.ceil(4.0 * (vc_dim * t_term + np.log2(1.0 / beta))))


class _ObliviousGenerator:
    """Shared version space + per-block ERM; the ensemble changes only on top rounds.

    The class lays out the (k, m) labels and m points per block once, and
    refits every block in one batched ERM pass."""

    def __init__(self, concept: ConceptClass, points: np.ndarray, labels: np.ndarray):
        self.concept = concept
        self.k = len(labels)
        self.space = VersionSpace(concept)
        self._layout = concept.blocks(points, labels)
        self._ensemble: Ensemble | None = None
        self.degenerate = False

    def _erm(self) -> Ensemble:
        return self.concept.ensemble(self.concept.erm_blocks(self.space.constraints, self._layout))

    def refresh(self) -> list[int]:
        """Refit every block; returns the indices of dropped constraints."""
        dropped: list[int] = []
        while True:
            try:
                self._ensemble = self._erm()
                return dropped
            except EmptyVersionSpaceError:
                if not self.space.constraints:
                    raise
                dropped.append(len(self.space.constraints) - 1)
                self.space = self.space.drop_newest()

    def invalidate(self) -> None:
        self._ensemble = None

    @property
    def ensemble(self) -> Ensemble:
        if self._ensemble is None:
            raise UsageError("generator not refreshed")
        return self._ensemble

    def vote(self, x: Point) -> float:
        return self._ensemble.vote(x) / self.k

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
    """Shared feasible subspace + per-block constraint stacks; all blocks refit to
    their depth argmax in one batched kernel pass.  ``points`` is (k, m, d),
    ``labels`` (k, m)."""

    def __init__(self, d: int, points: np.ndarray, labels: np.ndarray):
        self.d = d
        self.k = len(labels)
        self.space = geometry.FeasibleSubspace.full(d + 1)
        # lab * (x, -1), as geometry.to_constraint forms it; a product with
        # +-1 is exact
        lifted = np.concatenate([points, np.full((*points.shape[:2], 1), -1.0)], axis=2)
        self.normals = labels[:, :, None] * lifted
        self._ensemble: HalfspaceEnsemble | None = None
        self._values: list[int] | None = None
        self.degenerate = False

    def refresh(self) -> list[int]:
        points, depths = geometry.argmax_cdepth_blocks(self.normals, self.space)
        norms = geometry.row_norms(points)[:, None]
        self._ensemble = HalfspaceEnsemble(np.divide(points, norms, out=points, where=norms > 0))
        self._values = depths.tolist()
        if self.space.dimension == 0:
            self.degenerate = True
        return []

    def invalidate(self) -> None:
        self._ensemble = None
        self._values = None

    @property
    def ensemble(self) -> HalfspaceEnsemble:
        if self._ensemble is None:
            raise UsageError("generator not refreshed")
        return self._ensemble

    @property
    def cdepth_values(self) -> list[int]:
        if self._values is None:
            raise UsageError("generator not refreshed")
        return list(self._values)

    def vote(self, x: Point) -> float:
        return self._ensemble.vote(x) / self.k

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


@dataclass
class RunReport:
    """Full record of one prediction run; serializes canonically to JSON.

    ``rounds[*]["x"]`` and ``top_rounds[*]["x"]`` are the adversary's own point
    tuples, shared rather than copied; JSON writes them as arrays.
    """

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
    # the final ensemble, which final_hypotheses describes; not in the payload
    ensemble: Ensemble | None = field(default=None, repr=False, compare=False)

    def labels(self) -> list[int]:
        return [r["label"] for r in self.rounds]

    def first_top_round(self) -> int:
        return self.top_rounds[0]["round"] if self.top_rounds else 0

    def observable(self) -> tuple:
        """The public output channel: emitted labels plus the visible stop."""
        return tuple(self.labels()), self.first_top_round(), self.aborted

    def to_payload(self) -> dict[str, Any]:
        """The report as a JSON-ready dict; it shares its lists with the report.

        Each round's ``x`` is a tuple, not a list: it encodes as a JSON array,
        but code that reads the dict in process must not expect a list."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ensemble"}

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))


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
    order = partition(sample, spec.k, mech_noise)
    points, labels = sample.points[order], sample.labels[order]

    if spec.generator == "oblivious":
        if concept is None:
            raise ConfigurationError("oblivious runs need a concept class")
        generator = _ObliviousGenerator(concept, points, labels)
    elif spec.generator == "halfspace":
        generator = _HalfspaceGenerator(sample.dimension, points, labels)
    else:
        raise ConfigurationError(f"unknown generator {spec.generator!r}")

    full_queries = adversary.disclose()
    report = RunReport(seed=seed, config_digest=config_digest,
                       bt_eps=spec.bt_eps, bt_delta=spec.bt_delta)
    ledger = PrivacyLedger()
    bt_state = bt_init(params, mech_noise)
    history: list[tuple[Point, int]] = []
    stale = True

    def refresh(round_index: int) -> None:
        for idx in generator.refresh():
            report.fallback_flags.append({"round": round_index, "dropped_constraint": idx})
        if spec.generator != "halfspace":
            return
        entry = {
            "hard_count": report.top_count,
            "min_cdepth_fraction": min(generator.cdepth_values) / spec.m,
        }
        if not report.cdepth_progress or report.cdepth_progress[-1] != entry:
            report.cdepth_progress.append(entry)

    for j in range(1, spec.t_rounds + 1):
        if stale:
            refresh(j)
            stale = False
        x = adversary.next_query(history, adv_noise)
        q = generator.vote(x)
        outcome, label = answer_query(bt_state, q, mech_noise)
        # _value_ is the plain attribute behind the slower enum property .value
        entry = {"round": j, "x": x, "outcome": outcome._value_, "label": label, "q": q}
        report.rounds.append(entry)
        history.append((x, label))
        if outcome is _TOP:
            ledger.append(spec.bt_eps, spec.bt_delta)
            report.top_count += 1
            info = generator.on_top(x, label, full_queries)
            top_entry = {"round": j, "x": x, "label": label}
            top_entry.update(info)
            report.top_rounds.append(top_entry)
            stale = True
            if report.top_count > spec.v_max:
                report.aborted = True
                break
            bt_state = bt_init(params, mech_noise)

    if stale:
        refresh(spec.t_rounds + 1)
    if target is not None and history:
        report.wrong_predictions = int(np.count_nonzero(
            target.labels([x for x, _ in history]) != report.labels()))
    report.degenerate = generator.degenerate
    report.eps_total, report.delta_total = compose_advanced(ledger, DELTA_PRIME)
    report.ensemble = generator.ensemble
    report.final_hypotheses = report.ensemble.payload()
    wrong = (report.ensemble.labels(sample.points) != sample.labels).sum(axis=1)
    report.max_block_error = int(wrong.max()) / len(sample)
    return report
