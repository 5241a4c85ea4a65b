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
from itertools import chain
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


def default_v_max(vc_dim: int, t_rounds: int, beta: float) -> int:
    """Top budget of a version-space run: 4*(VC*log2 T + log2(1/beta))."""
    t_term = np.log2(max(t_rounds, 2))
    return int(np.ceil(4.0 * (vc_dim * t_term + np.log2(1.0 / beta))))


class _ObliviousGenerator:
    """Shared version space + per-block ERM; ``run`` refits only after top rounds.

    The class lays out the (k, m) labels and m points per block once, and
    refits every block in one batched ERM pass."""

    degenerate = False

    def __init__(self, concept: ConceptClass, points: np.ndarray, labels: np.ndarray):
        self.concept = concept
        self.space = VersionSpace(concept)
        self._layout = concept.blocks(points, labels)

    def refresh(self) -> tuple[Ensemble, list[int]]:
        """Refit every block; returns the ensemble and the indices of dropped constraints."""
        dropped: list[int] = []
        while True:
            try:
                return self.concept.ensemble(
                    self.concept.erm_blocks(self.space.constraints, self._layout)), dropped
            except EmptyVersionSpaceError:
                if not self.space.constraints:
                    raise
                dropped.append(len(self.space.constraints) - 1)
                self.space = self.space.drop_newest()

    def on_top(self, x: Point, label: int, full_queries) -> dict[str, Any]:
        before = self.space.pattern_count(full_queries) if full_queries else None
        self.space = self.space.restrict(x, label)
        after = self.space.pattern_count(full_queries) if full_queries else None
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

    def __init__(self, points: np.ndarray, labels: np.ndarray):
        self.space = geometry.FeasibleSubspace.full(points.shape[2] + 1)
        # each block's homogeneous constraint normals lab * (x, -1); a
        # product with +-1 is exact
        lifted = np.concatenate([points, np.full((*points.shape[:2], 1), -1.0)], axis=2)
        self.normals = labels[:, :, None] * lifted

    @property
    def degenerate(self) -> bool:
        return self.space.dimension == 0

    def refresh(self) -> tuple[HalfspaceEnsemble, int]:
        """Refit every block; returns the ensemble and the least block depth."""
        points, depths = geometry.argmax_cdepth_blocks(self.normals, self.space)
        norms = geometry.row_norms(points)[:, None]
        ensemble = HalfspaceEnsemble(np.divide(points, norms, out=points, where=norms > 0))
        return ensemble, int(depths.min())

    def on_top(self, x: Point, label: int, full_queries) -> dict[str, Any]:
        normal = np.asarray(tuple(x) + (-1.0,))
        before = self.space.dimension
        self.space, redundant = self.space.intersect(normal)
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
    """Answer spec.t_rounds adversarial queries with the block ensemble, refit by
    version-space ERM over ``concept`` if given, else in the feasible subspace.

    Round j asks ``adversary.next_query(j, label, noise)`` once, with the label
    released on round j - 1 (None on round 1); the report's rounds are the one
    transcript the run keeps.

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

    generator = (_HalfspaceGenerator(points, labels) if concept is None
                 else _ObliviousGenerator(concept, points, labels))

    full_queries = adversary.disclose()
    report = RunReport(seed=seed, config_digest=config_digest,
                       bt_eps=spec.bt_eps, bt_delta=spec.bt_delta)
    ledger = PrivacyLedger()
    bt_state = bt_init(params, mech_noise)

    def refresh(round_index: int) -> None:
        """Refit the ensemble before round_index, the first round it answers."""
        nonlocal ensemble, vote
        ensemble, found = generator.refresh()
        vote = ensemble.vote
        if concept is not None:  # found: the indices of dropped constraints
            report.fallback_flags.extend(
                {"round": round_index, "dropped_constraint": idx} for idx in found)
            return
        entry = {"hard_count": report.top_count, "min_cdepth_fraction": found / spec.m}
        if not report.cdepth_progress or report.cdepth_progress[-1] != entry:
            report.cdepth_progress.append(entry)

    ensemble = vote = None
    refresh(1)
    # bound once: the loop's calls skip the attribute lookups
    k, next_query, add_round = spec.k, adversary.next_query, report.rounds.append
    label = None
    for j in range(1, spec.t_rounds + 1):
        x = next_query(j, label, adv_noise)
        q = vote(x) / k
        outcome, label = answer_query(bt_state, q, mech_noise)
        # _value_ is the plain attribute behind the slower enum property .value
        add_round({"round": j, "x": x, "outcome": outcome._value_, "label": label, "q": q})
        if outcome is _TOP:
            ledger.append(spec.bt_eps, spec.bt_delta)
            report.top_count += 1
            info = generator.on_top(x, label, full_queries)
            top_entry = {"round": j, "x": x, "label": label}
            top_entry.update(info)
            report.top_rounds.append(top_entry)
            if report.top_count > spec.v_max:
                report.aborted = True
                refresh(spec.t_rounds + 1)
                break
            refresh(j + 1)
            bt_state = bt_init(params, mech_noise)

    rounds = report.rounds
    if target is not None and rounds:
        n, d = len(rounds), len(rounds[0]["x"])
        points = np.fromiter(chain.from_iterable(r["x"] for r in rounds), float, count=n * d)
        released = np.fromiter((r["label"] for r in rounds), np.int64, count=n)
        report.wrong_predictions = int(np.count_nonzero(
            target.labels(points.reshape(n, d)) != released))
    report.degenerate = generator.degenerate
    report.eps_total, report.delta_total = compose_advanced(ledger, DELTA_PRIME)
    report.ensemble = ensemble
    report.final_hypotheses = report.ensemble.payload()
    wrong = (report.ensemble.labels(sample.points) != sample.labels).sum(axis=1)
    report.max_block_error = int(wrong.max()) / len(sample)
    return report
