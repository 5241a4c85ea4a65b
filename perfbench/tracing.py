"""Timers wrapped around calls into the program's modules from outside.

Nothing under ``src/`` knows about them: each wrapper replaces the attribute
its caller actually resolves (``harness.run``, not ``predictor.run``), and
``Patches.restore`` puts every original back.

``AnswerClock`` is on in both modes.  It measures answer latency as the client
sees it.  ``Tracer`` is on only in the traced run and records nested spans,
which give the per-layer numbers.
"""

from __future__ import annotations

import inspect
import math
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from privpredict import adversaries, concepts, core, dp, geometry, harness, predictor
from privpredict.dp import BTOutcome
from privpredict.harness import AuditToy

KEEP_SPANS = 20_000  # spans kept verbatim for the span file; all spans are aggregated
ANSWER_BLOCK = 1000  # answers per latency window: one halfspace trial, a quarter oblivious one


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def adversary_classes() -> list[type]:
    """Every adversary class that defines its own ``next_query``."""
    return [cls for _, cls in inspect.getmembers(adversaries, inspect.isclass)
            if cls.__module__ == adversaries.__name__ and "next_query" in cls.__dict__]


class AnswerClock:
    """Answer latency: from the adversary returning a query to the predictor
    asking for the next one, so the adversary's own work is excluded.  On the
    audit, where no adversary exists, one answer is one mechanism transcript.

    Samples, audit transcripts and the start of each transcript are kept for
    the current job only.
    """

    def __init__(self):
        self.new_job()

    def new_job(self) -> None:
        self.samples = array("d")
        self.starts = array("d")
        self.outputs: Counter = Counter()
        self._returned: float | None = None

    def install(self, patches: Patches) -> None:
        for cls in adversary_classes():
            patches.replace(cls, "next_query", self._next_query)
        patches.replace(AuditToy, "mechanism", self._mechanism)

    def _next_query(self, original):
        def next_query(adversary, *args, **kwargs):
            asked = perf_counter()
            if self._returned is not None:
                self.samples.append(asked - self._returned)
            x = original(adversary, *args, **kwargs)
            self._returned = perf_counter()
            return x
        return next_query

    def _mechanism(self, original):
        def mechanism(toy, *args, **kwargs):
            mech = original(toy, *args, **kwargs)

            def timed(sample, noise):
                start = perf_counter()
                self.starts.append(start)
                out = mech(sample, noise)
                self.samples.append(perf_counter() - start)
                self.outputs[out] += 1
                return out
            return timed
        return mechanism

    def window_quantiles_us(self) -> list[tuple[float, float]]:
        """The p50 and p90, in microseconds, of each window of about
        ANSWER_BLOCK consecutive answers of the current job."""
        samples = np.frombuffer(self.samples)
        if not len(samples):
            return []
        windows = np.array_split(samples, max(1, len(samples) // ANSWER_BLOCK))
        return [tuple(1e6 * float(v) for v in np.quantile(w, [0.5, 0.9])) for w in windows]


class Tracer:
    """Nested spans (name, id, parent id, start, end) with per-name totals.

    A span's self time is its duration minus the durations of its direct child
    spans; calls are synchronous, so children never overlap.
    """

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, float, float]] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def span(self, name: str, on_result=None):
        def make(fn):
            def traced(*args, **kwargs):
                ident = self._next_id
                self._next_id += 1
                parent = self._stack[-1][0] if self._stack else -1
                frame = [ident, 0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    duration = end - start
                    if self._stack:
                        self._stack[-1][1] += duration
                    self.inclusive[name] += duration
                    self.exclusive[name] += duration - frame[1]
                    self.calls[name] += 1
                    if len(self.spans) < KEEP_SPANS:
                        self.spans.append((name, ident, parent, start, end))
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return traced
        return make

    def counted(self, name: str):
        def make(fn):
            def counting(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)
            return counting
        return make

    def install(self, patches: Patches) -> None:
        span = self.span
        patches.replace(harness, "run_trial", span("harness.run_trial"))
        patches.replace(harness, "run_audit", span("harness.run_audit"))
        patches.replace(harness, "run", span("predictor.run"))
        patches.replace(harness, "draw_sample", span("core.draw_sample"))
        patches.replace(harness, "majority_vote_error", span("harness.majority_vote_error"))
        patches.replace(harness, "audit_dp", span("dp.audit_dp"))
        patches.replace(predictor.RunReport, "to_json", span("harness.to_json"))
        for owner in (predictor, harness):
            patches.replace(owner, "bt_query", span("dp.bt_query", self._count_top))
            patches.replace(owner, "bt_init", self.counted("dp.bt_init"))
        patches.replace(dp, "laplace", self.counted("dp.laplace"))
        patches.replace(predictor, "partition", span("core.partition"))
        patches.replace(predictor, "empirical_error", span("core.empirical_error"))
        patches.replace(core.NoiseSource, "__init__", span("core.noise_source"))
        patches.replace(concepts.VersionSpace, "erm", span("concepts.erm"))
        patches.replace(concepts.VersionSpace, "pattern_count", span("concepts.pattern_count"))
        patches.replace(geometry, "argmax_cdepth", span("geometry.argmax_cdepth"))
        patches.replace(geometry, "arrangement_candidates",
                        span("geometry.arrangement_candidates", self._count_candidates))
        patches.replace(geometry.DepthProfile, "depths", span("geometry.depths"))
        patches.replace(geometry.FeasibleSubspace, "intersect",
                        span("geometry.intersect", self._count_redundant))
        for cls in adversary_classes():
            patches.replace(cls, "next_query", span("adversaries.next_query"))
        patches.replace(AuditToy, "mechanism", self._mechanism)

    def _count_top(self, args, kwargs, outcome) -> None:
        if outcome is BTOutcome.TOP:
            self.counts["top"] += 1

    def _count_candidates(self, args, kwargs, candidates) -> None:
        profile, subspace = args[0], args[1]
        sphere = args[2] if len(args) > 2 else kwargs.get("sphere_samples", 64)
        r = subspace.dimension
        self.counts["candidates"] += len(candidates)
        self.counts["candidate_attempts"] += (
            2 * math.comb(len(profile), r - 1) + sphere if r > 1 else 2)

    def _count_redundant(self, args, kwargs, result) -> None:
        self.counts["redundant"] += bool(result[1])

    def _mechanism(self, original):
        traced = self.span("harness.mechanism")

        def mechanism(toy, *args, **kwargs):
            return traced(original(toy, *args, **kwargs))
        return mechanism

    def min_self_s(self) -> float:
        return min(self.exclusive.values(), default=0.0)

    def self_total_s(self) -> float:
        return sum(self.exclusive.values())


def layer_metrics(tracer: Tracer, trials: int, counts: Counter, k: int | None,
                  traced_s: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer numbers of the traced run, per trial (per audit_dp trial on the audit).

    ``*_s`` is inclusive time, ``*.self_s`` exclusive time, ``*_calls`` a call count.
    These times are wall times: spans are not scaled to the nominal host speed.
    ``overhead_frac`` compares the traced and untraced passes' scaled times.
    """
    inc, exc, calls, c = tracer.inclusive, tracer.exclusive, tracer.calls, tracer.counts

    def per(value: float) -> float:
        return value / trials

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    refreshes = ratio(calls["concepts.erm"] + calls["geometry.argmax_cdepth"], k or 0)
    entry = ("harness.run_trial", "harness.run_audit")
    return {
        "predictor.run_s": per(inc["predictor.run"]),
        "predictor.self_s": per(exc["predictor.run"]),
        "predictor.rounds": per(counts["rounds"]),
        "predictor.refreshes": per(refreshes),
        "predictor.dropped_constraints": per(counts["dropped_constraints"]),
        "geometry.argmax_cdepth_s": per(inc["geometry.argmax_cdepth"]),
        "geometry.argmax_cdepth_calls": per(calls["geometry.argmax_cdepth"]),
        "geometry.arrangement_candidates_s": per(inc["geometry.arrangement_candidates"]),
        "geometry.candidates": per(c["candidates"]),
        "geometry.candidate_yield": ratio(c["candidates"], c["candidate_attempts"]),
        "geometry.depths_s": per(inc["geometry.depths"]),
        "geometry.intersect_calls": per(calls["geometry.intersect"]),
        "geometry.intersect_redundant": per(c["redundant"]),
        "concepts.erm_s": per(inc["concepts.erm"]),
        "concepts.erm_calls": per(calls["concepts.erm"]),
        "concepts.pattern_count_s": per(inc["concepts.pattern_count"]),
        "concepts.pattern_count_calls": per(calls["concepts.pattern_count"]),
        "dp.bt_query_s": per(inc["dp.bt_query"]),
        "dp.bt_query_calls": per(calls["dp.bt_query"]),
        "dp.bt_init_calls": per(calls["dp.bt_init"]),
        "dp.top_frac": ratio(c["top"], calls["dp.bt_query"]),
        "dp.laplace_calls": per(calls["dp.laplace"]),
        "dp.audit_dp_s": per(inc["dp.audit_dp"]),
        "core.empirical_error_s": per(inc["core.empirical_error"]),
        "core.empirical_error_calls": per(calls["core.empirical_error"]),
        "core.noise_source_s": per(inc["core.noise_source"]),
        "core.noise_source_calls": per(calls["core.noise_source"]),
        "core.draw_sample_s": per(inc["core.draw_sample"]),
        "core.partition_s": per(inc["core.partition"]),
        "adversaries.next_query_s": per(inc["adversaries.next_query"]),
        "adversaries.next_query_calls": per(calls["adversaries.next_query"]),
        "harness.run_trial_s": per(sum(inc[name] for name in entry)),
        "harness.self_s": per(sum(exc[name] for name in entry)),
        "harness.to_json_s": per(inc["harness.to_json"]),
        "harness.majority_vote_error_s": per(inc["harness.majority_vote_error"]),
        "harness.mechanism_s": per(inc["harness.mechanism"]),
        "harness.mechanism_calls": per(calls["harness.mechanism"]),
        "trace.wall_s": per(traced_s),
        "trace.self_coverage": ratio(tracer.self_total_s(), traced_s),
        "trace.overhead_frac": overhead_frac,
    }
