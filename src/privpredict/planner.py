"""Sample-size planners: closed-form internal parameter settings for the two
generators, plus a desk-scale planner that splits a fixed labeled budget.

The closed forms are evaluated with natural logarithms and unit constants
wherever the source bounds hide one.  Every returned plan is validated against
the mechanism's threshold-gap precondition, and an unsatisfiable combination
raises a PlanningError naming the binding constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PlanningError, PreconditionError
from .dp import BTParams, bt_accuracy_sample_bound, required_threshold_gap
from .geometry import subsample_size_bound


@dataclass(frozen=True)
class PlanResult:
    """A plan's sizes and per-instance parameters.

    ``bt_beta_unclamped`` is the failure rate the ensemble size implies before
    any clamp; the closed-form planners never clamp, so there it equals
    ``bt_beta``.
    """

    k: int
    m: int
    n_total: int
    bt_eps: float
    bt_delta: float
    bt_alpha: float
    bt_beta: float
    bt_beta_unclamped: float

    @property
    def vacuous(self) -> bool:
        """The plan clamped bt_beta, so no meaningful accuracy guarantee stands behind it."""
        return self.bt_beta_unclamped > self.bt_beta

    def bt_params(self, t_rounds: int) -> BTParams:
        return BTParams(eps=self.bt_eps, delta=self.bt_delta, n=self.k, max_queries=t_rounds)


_GAP = BTParams.t_upper - BTParams.t_lower  # of the default vote thresholds
_ANSWER_ALPHA = _GAP / 2  # the accuracy each answer is sized for


def _check_ranges(eps_name: str, eps: float, **shares: float) -> None:
    """Reject an eps outside (0, inf) or a fraction outside (0, 1); nan fails both."""
    if not 0 < eps < math.inf:
        raise PlanningError(f"{eps_name} = {eps:.3g} is not positive and finite")
    for name, value in shares.items():
        if not 0 < value < 1:
            raise PlanningError(f"{name} = {value:.3g} falls outside (0, 1)")


def _gap_checked(plan: PlanResult, t: int) -> PlanResult:
    try:
        plan.bt_params(t)
    except PreconditionError as exc:
        raise PlanningError(f"threshold-gap precondition binds: {exc}") from exc
    return plan


def _sized(d: int, t: int, bt_eps: float, bt_delta: float, bt_alpha: float,
           bt_beta: float) -> PlanResult:
    """Validate the per-instance parameters, then size the ensemble for answers
    within ``_ANSWER_ALPHA`` and the blocks for depths within bt_alpha."""
    _check_ranges("bt_eps", bt_eps, bt_delta=bt_delta, bt_alpha=bt_alpha, bt_beta=bt_beta)
    try:
        k = bt_accuracy_sample_bound(_ANSWER_ALPHA, bt_beta, bt_eps, t)
        m = subsample_size_bound(d, bt_alpha, bt_beta)
    except ArithmeticError as exc:  # a bound overflows, or bt_alpha**2 underflows to 0
        raise PlanningError(f"block or ensemble size is not finite: {exc}") from exc
    plan = PlanResult(k=k, m=m, n_total=k * m, bt_eps=bt_eps, bt_delta=bt_delta,
                      bt_alpha=bt_alpha, bt_beta=bt_beta, bt_beta_unclamped=bt_beta)
    return _gap_checked(plan, t)


def plan_oblivious(d: int, t: int, alpha: float, beta: float, eps: float, delta: float) -> PlanResult:
    """Internal parameters and (k, m, N) for version-space runs over a VC-d class.

    The shared inner quantity is J = ln(d*ln(T) / (alpha*beta*eps*delta)) and the
    budget split divides by L = d*ln(T) + J; this parenthesization is pinned by
    the golden-value regression in the suite.
    """
    if t < 2:
        raise PlanningError("planning needs T >= 2 so that ln(T) is positive")
    _check_ranges("eps", eps, alpha=alpha, beta=beta, delta=delta)
    log_t = math.log(t)
    inner = d * log_t / (alpha * beta * eps * delta)
    if inner <= 1.0:
        raise PlanningError(f"inner log argument {inner:.3g} <= 1; targets too loose for T={t}")
    j = math.log(inner)
    big_l = d * log_t + j
    bt_eps = eps / math.sqrt(big_l * j)
    bt_beta = beta * eps / (big_l * math.sqrt(big_l * j) * j)
    bt_delta = delta / big_l
    bt_alpha = alpha / big_l
    return _sized(d, t, bt_eps, bt_delta, bt_alpha, bt_beta)


def plan_halfspace(d: int, t: int, alpha: float, beta: float, eps: float, delta: float) -> PlanResult:
    """Internal parameters and (k, m, N) for subspace runs over d-dimensional halfspaces."""
    if t < 3:
        raise PlanningError("planning needs T >= 3 so that ln(ln(T)) is positive")
    if d < 1:
        raise PlanningError("dimension must be >= 1")
    _check_ranges("eps", eps, alpha=alpha, beta=beta, delta=delta)
    log_t = math.log(t)
    bt_eps = eps / math.sqrt(d * math.log(d / delta))
    bt_delta = delta / d
    bt_alpha = alpha / d**2
    tail = math.log(d) + math.log(log_t) + math.log(math.log(1.0 / delta)) + math.log(1.0 / eps)
    if tail <= 0:
        raise PlanningError(
            f"bt_beta log-term sum {tail:.3g} <= 0 (eps too large relative to d, T, delta)"
        )
    bt_beta = beta * eps / (d * log_t * math.sqrt(d * math.log(d * log_t / delta)) * tail)
    return _sized(d, t, bt_eps, bt_delta, bt_alpha, bt_beta)


def plan_budgeted(t: int, n_budget: int, bt_eps: float, bt_delta: float) -> PlanResult:
    """Desk-scale plan: split a fixed labeled budget into k equal blocks.

    Chooses the smallest ensemble size that satisfies the threshold-gap
    precondition at (bt_eps, bt_delta) and divides the budget, leaving the rest
    as block size.  The implied per-instance failure rate is reported as
    bt_beta via the ensemble-size relation, clamped to 0.5; when the clamp
    binds, the plan is flagged ``vacuous``.  Accuracy granularity stays at
    ``_ANSWER_ALPHA``, half the vote thresholds' gap.
    """
    if n_budget < 2:
        raise PlanningError("budget must cover at least two records")
    _check_ranges("bt_eps", bt_eps, bt_delta=bt_delta)
    # the required gap scales as 1/k: the least k the default vote thresholds admit
    k_min = max(math.ceil(required_threshold_gap(bt_eps, bt_delta, 1) / _GAP), 1)
    k = next((c for c in range(k_min, n_budget + 1) if n_budget % c == 0), None)
    if k is None:
        raise PlanningError(
            f"no ensemble size in [{k_min}, {n_budget}] divides the budget {n_budget}; "
            "the threshold-gap precondition binds"
        )
    # the failure rate at which bt_accuracy_sample_bound would give this k
    implied_beta = (t + 1.0) * math.exp(-_ANSWER_ALPHA * bt_eps * k / 8.0)
    plan = PlanResult(k=k, m=n_budget // k, n_total=n_budget, bt_eps=bt_eps, bt_delta=bt_delta,
                      bt_alpha=_ANSWER_ALPHA, bt_beta=min(0.5, implied_beta),
                      bt_beta_unclamped=implied_beta)
    return _gap_checked(plan, t)  # k_min arithmetic should prevent a failure
