"""Laplace noise, the BetweenThresholds mechanism, composition accounting, and a
Monte-Carlo privacy auditor for black-box mechanisms."""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from math import log  # bound once: laplace runs once per noise draw
from typing import Callable, Hashable, Sequence

from .core import (
    ConfigurationError,
    LabeledSample,
    NoiseSource,
    PreconditionError,
    UsageError,
)


def laplace(scale: float, noise: NoiseSource) -> float:
    """One draw from Laplace(0, scale) by inverse-CDF on a single uniform draw.

    A uniform draw of exactly 0.5 maps to the median 0.
    """
    if not scale > 0:  # also rejects nan
        raise ConfigurationError(f"Laplace scale must be positive, got {scale}")
    u = noise.uniform()
    if u < 0.5:
        return scale * log(2.0 * u)
    return -scale * log(2.0 * (1.0 - u))


class BTOutcome(enum.Enum):
    L = "L"
    R = "R"
    TOP = "top"


# The members as module names: on CPython 3.11 a ``BTOutcome.L`` lookup goes
# through the enum metaclass's ``__getattr__`` hook and costs about 0.15 us,
# which the per-query answer step would pay on every round.
_L, _R, _TOP = BTOutcome.L, BTOutcome.R, BTOutcome.TOP


def required_threshold_gap(eps: float, delta: float, n: int) -> float:
    """Minimum t_upper - t_lower for the mechanism's privacy guarantee to hold."""
    return (12.0 / (eps * n)) * (math.log(10.0 / eps) + math.log(1.0 / delta) + 1.0)


@dataclass(frozen=True)
class BTParams:
    """Parameters of one BetweenThresholds instance.

    ``n`` is the size of the voting ensemble the queries are computed over, so
    each query has sensitivity 1/n.  Construction enforces the threshold-gap
    precondition as a hard error rather than silently degrading delta, and
    computes the two Laplace scales every instance of these parameters uses.
    """

    eps: float
    delta: float
    n: int
    t_lower: float = 0.375
    t_upper: float = 0.625
    max_queries: int = 1
    query_scale: float = field(init=False, repr=False, compare=False)      # each query's noise
    threshold_scale: float = field(init=False, repr=False, compare=False)  # the shared mu

    def __post_init__(self):
        if not self.eps > 0:  # also rejects nan
            raise ConfigurationError("eps must be positive")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ConfigurationError("ensemble size n must be >= 1")
        if not 0 < self.t_lower < self.t_upper < 1:
            raise ConfigurationError("need 0 < t_lower < t_upper < 1")
        if self.max_queries < 0:
            raise ConfigurationError("max_queries must be >= 0")
        gap = self.t_upper - self.t_lower
        need = required_threshold_gap(self.eps, self.delta, self.n)
        if gap < need:
            raise PreconditionError(
                f"threshold gap {gap:.6g} is below the required "
                f"(12/(eps*n))*(log(10/eps)+log(1/delta)+1) = {need:.6g}"
            )
        object.__setattr__(self, "query_scale", 6.0 / (self.eps * self.n))
        object.__setattr__(self, "threshold_scale", 2.0 / (self.eps * self.n))


@dataclass
class BTState:
    """Live state of one BetweenThresholds instance (single-owner, mutated sequentially)."""

    params: BTParams
    noisy_lower: float
    noisy_upper: float
    query_scale: float  # params.query_scale, one attribute lookup less per query
    halted: bool = False
    queries_answered: int = 0


def bt_init(params: BTParams, noise: NoiseSource) -> BTState:
    """Fresh instance with one shared threshold perturbation t_l + mu, t_u - mu."""
    mu = laplace(params.threshold_scale, noise)
    return BTState(params, params.t_lower + mu, params.t_upper - mu, params.query_scale)


def bt_query(state: BTState, q_value: float, noise: NoiseSource) -> BTOutcome:
    """Answer one query value in [0, 1]; TOP halts the instance permanently."""
    if state.halted:
        raise UsageError("this BetweenThresholds instance has halted; reinitialize instead")
    if state.queries_answered >= state.params.max_queries:
        raise UsageError("query budget of this instance is exhausted")
    c = q_value + laplace(state.query_scale, noise)
    state.queries_answered += 1
    if c < state.noisy_lower:
        return _L
    if c > state.noisy_upper:
        return _R
    state.halted = True
    return _TOP


def bt_accuracy_sample_bound(alpha: float, beta: float, eps: float, t: int) -> int:
    """Smallest ensemble size for alpha-accurate answers over t queries w.p. 1-beta."""
    if not (0 < alpha and 0 < beta < 1 and eps > 0 and t >= 0):
        raise ConfigurationError("invalid accuracy-bound parameters")
    return math.ceil((8.0 / (alpha * eps)) * (math.log(t + 1.0) + math.log(1.0 / beta)))


@dataclass
class PrivacyLedger:
    """Append-only record of per-instance (eps, delta) costs, one per halted instance."""

    _entries: list[tuple[float, float]] = field(default_factory=list)

    def append(self, eps: float, delta: float) -> None:
        self._entries.append((float(eps), float(delta)))

    @property
    def entries(self) -> tuple[tuple[float, float], ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def compose_advanced(ledger: PrivacyLedger, delta_prime: float) -> tuple[float, float]:
    """Advanced composition over k identical (eps, delta) entries.

    Returns (sqrt(2k ln(1/delta')) * eps + k*eps*(e^eps - 1)/(e^eps + 1), k*delta + delta').
    An empty ledger composes to (0, delta_prime).
    """
    if not 0 < delta_prime < 1:
        raise ConfigurationError("delta_prime must lie in (0, 1)")
    k = len(ledger)
    if k == 0:
        return 0.0, delta_prime
    if len(set(ledger.entries)) != 1:
        raise UsageError("advanced composition here requires one shared (eps, delta)")
    eps, delta = ledger.entries[0]
    eps_total = math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * eps
    eps_total += k * eps * (math.exp(eps) - 1.0) / (math.exp(eps) + 1.0)
    return eps_total, k * delta + delta_prime


def compose_tight(ledger: PrivacyLedger, delta_prime: float) -> tuple[float, float]:
    """Tighter of basic and advanced composition; the reference bound for auditing."""
    k = len(ledger)
    eps_adv, delta_adv = compose_advanced(ledger, delta_prime)
    if k == 0:
        return eps_adv, delta_adv
    eps, delta = ledger.entries[0]
    if k * eps <= eps_adv:
        return k * eps, k * delta
    return eps_adv, delta_adv


# ---------------------------------------------------------------------------
# Empirical privacy auditing
# ---------------------------------------------------------------------------

# A mechanism draws from the source it is handed and never calls ``child()``
# on it: every trial of a side gets that source, so a child would replay it.
Mechanism = Callable[[LabeledSample, NoiseSource], Hashable]
Event = Callable[[Hashable], bool]

AUDIT_CONFIDENCE = 0.95  # of the max over events; each event gets a Bonferroni share


@dataclass(frozen=True)
class EventAudit:
    name: str
    eps_hat: float
    diverged: bool
    freq_a: float
    freq_b: float


@dataclass(frozen=True)
class AuditReport:
    """Empirical lower-estimate of the privacy parameter; never a proof."""

    eps_hat: float
    diverged: bool
    trials: int
    per_event: tuple[EventAudit, ...]

    def worst_events(self, limit: int = 5) -> list[EventAudit]:
        ranked = sorted(self.per_event, key=lambda e: (not e.diverged, -e.eps_hat))
        return ranked[:limit]


def _differ_in_one_record(a: LabeledSample, b: LabeledSample) -> bool:
    if a.points.shape != b.points.shape:
        return False
    differs = (a.points != b.points).any(axis=1) | (a.labels != b.labels)
    return int(differs.sum()) == 1


def _clopper_pearson(count: int, trials: int, confidence: float) -> tuple[float, float]:
    """Two-sided Clopper-Pearson interval of a binomial proportion.

    The bounds are beta quantiles from ``scipy.special.betaincinv`` (Boost's
    ``ibeta_inv``).  ``scipy.stats.beta.ppf`` gives the same bits, and
    ``tests/test_dp.py`` checks that, but importing ``scipy.stats`` would add
    some 420 modules, half a second and 45 MB to the 0.3 s and 26 MB of
    ``scipy.special``, for this one function.  The import waits for the first
    audit estimate, since nothing on the prediction path needs scipy.
    """
    from scipy.special import betaincinv

    tail = (1.0 - confidence) / 2.0
    lo = 0.0 if count == 0 else float(betaincinv(count, trials - count + 1, tail))
    hi = 1.0 if count == trials else float(betaincinv(count + 1, trials - count, 1.0 - tail))
    return lo, hi


def _one_direction(c_num: int, c_den: int, trials: int, delta: float,
                   confidence: float) -> tuple[float, bool]:
    """Lower confidence estimate of ln((p_num - delta) / p_den); inf flags divergence."""
    num_lo, _ = _clopper_pearson(c_num, trials, confidence)
    _, den_hi = _clopper_pearson(c_den, trials, confidence)
    num = num_lo - delta
    if num <= 0.0:
        return -math.inf, False
    if c_den == 0:
        # Zero observed mass on one side with real mass on the other: report a
        # divergence flag instead of certifying a finite number.
        return math.inf, True
    return math.log(num / den_hi), False


def audit_dp(
    mechanism: Mechanism,
    sample: LabeledSample,
    sample_neighbor: LabeledSample,
    events: Sequence[tuple[str, Event]],
    trials: int,
    noise: NoiseSource,
    delta: float = 0.0,
) -> AuditReport:
    """Estimate a privacy lower bound from event frequencies on neighboring inputs.

    Runs the mechanism ``trials`` times per side, then for every named event
    compares Clopper-Pearson adjusted frequencies in both directions with the
    additive delta correction.  The reported eps_hat, the max over events, holds
    at ``AUDIT_CONFIDENCE``: each event's intervals take a Bonferroni share.

    Each side's trials all draw from one source, ``noise.child(0)`` or
    ``noise.child(1)``, so the mechanism must not call ``child()`` on it: that
    would replay one stream for every trial.
    """
    if trials < 1000:
        raise ConfigurationError("auditing below 10^3 trials is too noisy to report")
    if not _differ_in_one_record(sample, sample_neighbor):
        raise UsageError("audit inputs must differ in exactly one record")
    if not events:
        raise ConfigurationError("at least one event predicate is required")

    counts_a: Counter = Counter()
    counts_b: Counter = Counter()
    src_a = noise.child(0)
    src_b = noise.child(1)
    for _ in range(trials):
        counts_a[mechanism(sample, src_a)] += 1
        counts_b[mechanism(sample_neighbor, src_b)] += 1

    confidence = 1.0 - (1.0 - AUDIT_CONFIDENCE) / len(events)
    per_event = []
    best = -math.inf
    diverged = False
    for name, predicate in events:
        ca = sum(c for out, c in counts_a.items() if predicate(out))
        cb = sum(c for out, c in counts_b.items() if predicate(out))
        e_ab, d_ab = _one_direction(ca, cb, trials, delta, confidence)
        e_ba, d_ba = _one_direction(cb, ca, trials, delta, confidence)
        eps_hat = max(e_ab, e_ba)
        ev_div = d_ab or d_ba
        per_event.append(EventAudit(name, eps_hat, ev_div, ca / trials, cb / trials))
        diverged = diverged or ev_div
        best = max(best, eps_hat)  # -inf entries are no-signal events
    return AuditReport(eps_hat=best, diverged=diverged, trials=trials, per_event=tuple(per_event))


def label_prefix_events(max_len: int) -> list[tuple[str, Event]]:
    """Default event family: the emitted label stream starts with a given word.

    Mechanism outputs are expected to be tuples whose first element is the
    label tuple, as produced by the harness's transcript projection.
    """
    events: list[tuple[str, Event]] = []
    words: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        words = [w + (s,) for w in words for s in (-1, 1)]
        for w in words:
            word = w

            def predicate(out, word=word):
                labels = out[0]
                return len(labels) >= len(word) and tuple(labels[: len(word)]) == word

            events.append(("prefix=" + "".join("+" if s > 0 else "-" for s in word), predicate))
    return events


def first_top_events(t_max: int) -> list[tuple[str, Event]]:
    """Default event family: the first hard (top) round happens at index j.

    Mechanism outputs are expected to be tuples (labels, first_top_round) with
    first_top_round = 0 when no top occurred.
    """
    events: list[tuple[str, Event]] = []
    for j in range(0, t_max + 1):
        def predicate(out, j=j):
            return out[1] == j

        name = "no_top" if j == 0 else f"first_top@{j}"
        events.append((name, predicate))
    return events
