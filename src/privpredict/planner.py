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
from .dp import BTParams


@dataclass(frozen=True)
class PlanResult:
    k: int
    m: int
    n_total: int
    bt_eps: float
    bt_delta: float
    bt_alpha: float
    bt_beta: float

    def bt_params(self, t_rounds: int) -> BTParams:
        return BTParams(eps=self.bt_eps, delta=self.bt_delta, n=self.k, max_queries=t_rounds)


def _ensemble_size(bt_eps: float, bt_beta: float, t: int) -> int:
    return math.ceil((64.0 / bt_eps) * (math.log(t + 1.0) + math.log(1.0 / bt_beta)))


def _block_size(d: int, bt_alpha: float, bt_beta: float) -> int:
    return math.ceil((d * math.log(d / bt_alpha) + math.log(1.0 / bt_beta)) / bt_alpha**2)


def _validated(plan: PlanResult, t: int) -> PlanResult:
    for name, value in (("bt_eps", plan.bt_eps),):
        if value <= 0:
            raise PlanningError(f"{name} = {value:.3g} is not positive")
    for name, value in (("bt_delta", plan.bt_delta), ("bt_alpha", plan.bt_alpha), ("bt_beta", plan.bt_beta)):
        if not 0 < value < 1:
            raise PlanningError(f"{name} = {value:.3g} falls outside (0, 1)")
    try:
        plan.bt_params(t)
    except PreconditionError as exc:
        raise PlanningError(f"threshold-gap precondition binds: {exc}") from exc
    return plan


def plan_oblivious(d: int, t: int, alpha: float, beta: float, eps: float, delta: float) -> PlanResult:
    """Internal parameters and (k, m, N) for version-space runs over a VC-d class.

    The shared inner quantity is J = ln(d*ln(T) / (alpha*beta*eps*delta)) and the
    budget split divides by L = d*ln(T) + J; this parenthesization is pinned by
    the golden-value regression in the suite.
    """
    if t < 2:
        raise PlanningError("planning needs T >= 2 so that ln(T) is positive")
    if min(alpha, beta, eps, delta) <= 0 or max(alpha, beta, delta) >= 1:
        raise PlanningError("targets must satisfy alpha, beta, delta in (0,1) and eps > 0")
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
    k = _ensemble_size(bt_eps, bt_beta, t)
    m = _block_size(d, bt_alpha, bt_beta)
    return _validated(
        PlanResult(k=k, m=m, n_total=k * m, bt_eps=bt_eps, bt_delta=bt_delta,
                   bt_alpha=bt_alpha, bt_beta=bt_beta),
        t,
    )


def plan_halfspace(d: int, t: int, alpha: float, beta: float, eps: float, delta: float) -> PlanResult:
    """Internal parameters and (k, m, N) for subspace runs over d-dimensional halfspaces."""
    if t < 3:
        raise PlanningError("planning needs T >= 3 so that ln(ln(T)) is positive")
    if d < 1:
        raise PlanningError("dimension must be >= 1")
    if min(alpha, beta, eps, delta) <= 0 or max(alpha, beta, delta) >= 1:
        raise PlanningError("targets must satisfy alpha, beta, delta in (0,1) and eps > 0")
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
    k = _ensemble_size(bt_eps, bt_beta, t)
    m = _block_size(d, bt_alpha, bt_beta)
    return _validated(
        PlanResult(k=k, m=m, n_total=k * m, bt_eps=bt_eps, bt_delta=bt_delta,
                   bt_alpha=bt_alpha, bt_beta=bt_beta),
        t,
    )


def plan_budgeted(t: int, n_budget: int, bt_eps: float, bt_delta: float) -> PlanResult:
    """Desk-scale plan: split a fixed labeled budget into k equal blocks.

    Chooses the smallest ensemble size that satisfies the threshold-gap
    precondition at (bt_eps, bt_delta) and divides the budget, leaving the rest
    as block size.  The implied per-instance failure rate is reported as
    bt_beta via the ensemble-size relation; accuracy granularity stays at the
    vote thresholds' 1/8.
    """
    if n_budget < 2:
        raise PlanningError("budget must cover at least two records")
    k_min = math.ceil((48.0 / bt_eps) * (math.log(10.0 / bt_eps) + math.log(1.0 / bt_delta) + 1.0))
    k_min = max(k_min, 1)
    k = next((c for c in range(k_min, n_budget + 1) if n_budget % c == 0), None)
    if k is None:
        raise PlanningError(
            f"no ensemble size in [{k_min}, {n_budget}] divides the budget {n_budget}; "
            "the threshold-gap precondition binds"
        )
    implied_beta = min(0.5, (t + 1.0) * math.exp(-bt_eps * k / 64.0))
    plan = PlanResult(
        k=k,
        m=n_budget // k,
        n_total=n_budget,
        bt_eps=bt_eps,
        bt_delta=bt_delta,
        bt_alpha=0.125,
        bt_beta=implied_beta,
    )
    try:
        plan.bt_params(t)
    except PreconditionError as exc:  # k_min arithmetic should prevent this
        raise PlanningError(f"threshold-gap precondition binds: {exc}") from exc
    return plan
