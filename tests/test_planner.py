import math

import pytest

from privpredict.core import PlanningError
from privpredict.dp import required_threshold_gap
from privpredict.planner import plan_budgeted, plan_halfspace, plan_oblivious

# Golden regression values for the reference configuration, frozen at first
# computation; any change to the closed forms or their parenthesization must
# show up here.
GOLDEN_CONFIG = dict(d=1, t=1024, alpha=0.1, beta=0.1, eps=1.0, delta=1e-6)
GOLDEN = dict(
    k=28230,
    m=1295048,
    n_total=36559205040,
    bt_eps=0.04242854178605295,
    bt_delta=3.664584303995061e-08,
    bt_alpha=0.003664584303995061,
    bt_beta=7.637906148852249e-06,
)


def test_oblivious_golden_values():
    plan = plan_oblivious(**GOLDEN_CONFIG)
    assert plan.k == GOLDEN["k"]
    assert plan.m == GOLDEN["m"]
    assert plan.n_total == GOLDEN["n_total"]
    for name in ("bt_eps", "bt_delta", "bt_alpha", "bt_beta"):
        assert getattr(plan, name) == pytest.approx(GOLDEN[name], rel=1e-12)


def test_oblivious_monotone_in_t():
    previous = None
    for exponent in range(4, 17):
        plan = plan_oblivious(1, 2**exponent, 0.1, 0.1, 1.0, 1e-3)
        if previous is not None:
            assert plan.k > previous.k
            assert plan.m > previous.m
        previous = plan


def test_oblivious_block_size_quadratic_in_alpha():
    base = plan_oblivious(1, 2**10, 0.1, 0.1, 1.0, 1e-3)
    halved = plan_oblivious(1, 2**10, 0.05, 0.1, 1.0, 1e-3)
    assert halved.m >= 4 * base.m


def test_plans_satisfy_gap_by_construction():
    for t in (2**6, 2**10, 2**14):
        for plan in (
            plan_oblivious(1, t, 0.1, 0.1, 1.0, 1e-3),
            plan_halfspace(2, t, 0.1, 0.1, 1.0, 1e-3),
        ):
            params = plan.bt_params(t)
            gap = params.t_upper - params.t_lower
            assert gap >= required_threshold_gap(plan.bt_eps, plan.bt_delta, plan.k)


def test_oblivious_gap_violation_named():
    # tiny T with a tight delta leaves the ensemble too small for the gap
    with pytest.raises(PlanningError, match="gap"):
        plan_oblivious(1, 2**4, 0.1, 0.1, 1.0, 1e-6)


def test_halfspace_internal_parameters():
    d, t, alpha, beta, eps, delta = 2, 2**10, 0.1, 0.1, 1.0, 1e-6
    plan = plan_halfspace(d, t, alpha, beta, eps, delta)
    assert plan.bt_alpha == alpha / d**2
    assert plan.bt_delta == delta / d
    assert plan.bt_eps == eps / math.sqrt(d * math.log(d / delta))
    # composition bookkeeping: (d+1) instances of bt_delta overshoot delta by delta/d
    assert plan.bt_delta * (d + 1) <= delta + delta / d + 1e-15


def test_halfspace_k_scales_like_sqrt_d_log_t():
    k_values = {}
    for d in (2, 3):
        for t in (2**10, 2**14):
            k_values[(d, t)] = plan_halfspace(d, t, 0.1, 0.1, 1.0, 1e-3).k
    # extending log T grows the T-term proportionally; sqrt(d) governs the d-direction
    ratio_t = k_values[(2, 2**14)] / k_values[(2, 2**10)]
    assert 1.0 < ratio_t < 1.4 * (14 / 10)
    ratio_d = k_values[(3, 2**10)] / k_values[(2, 2**10)]
    expected = math.sqrt(3 / 2)
    assert 0.6 * expected < ratio_d < 2.0 * expected


def test_halfspace_rejects_degenerate_log_terms():
    with pytest.raises(PlanningError, match="bt_beta"):
        plan_halfspace(2, 2**10, 0.1, 0.1, 5000.0, 1e-6)


def test_plan_budgeted_splits_budget():
    plan = plan_budgeted(1024, 600, 8.0, 1e-2)
    assert (plan.k, plan.m, plan.n_total) == (40, 15, 600)
    assert plan.k * plan.m == 600
    params = plan.bt_params(1024)
    assert params.t_upper - params.t_lower >= required_threshold_gap(8.0, 1e-2, plan.k)
    k_min = math.ceil((48.0 / 8.0) * (math.log(10.0 / 8.0) + math.log(1e2) + 1.0))
    assert plan.k >= k_min
    assert all(600 % c != 0 for c in range(k_min, plan.k))


def test_plan_budgeted_reports_its_clamp():
    """Both acceptance configurations sit at the 0.5 clamp; the plan says so."""
    plan = plan_budgeted(1024, 600, 8.0, 1e-2)
    assert plan.k == 40 and plan.bt_beta == 0.5
    assert plan.bt_beta_unclamped == pytest.approx(1025.0 * math.exp(-5.0), rel=1e-12)
    assert plan.bt_beta_unclamped == pytest.approx(6.906, abs=5e-4)
    assert plan.vacuous
    loose = plan_budgeted(16, 5000, 8.0, 1e-2)  # k=40 again, now below the clamp
    assert loose.k == 40 and not loose.vacuous
    assert loose.bt_beta == loose.bt_beta_unclamped == 17.0 * math.exp(-5.0)


def test_closed_form_plans_are_never_vacuous():
    for plan in (plan_oblivious(1, 2**10, 0.1, 0.1, 1.0, 1e-6),
                 plan_halfspace(2, 2**10, 0.1, 0.1, 1.0, 1e-6)):
        assert plan.bt_beta_unclamped == plan.bt_beta and not plan.vacuous


def test_plan_budgeted_infeasible():
    with pytest.raises(PlanningError):
        plan_budgeted(1024, 34, 8.0, 1e-2)  # no admissible divisor above the gap floor


@pytest.mark.parametrize("plan_fn", [plan_oblivious, plan_halfspace])
@pytest.mark.parametrize("override", [dict(eps=1e-320), dict(eps=1e-305), dict(eps=math.inf),
                                      dict(alpha=math.nan), dict(eps=math.nan),
                                      dict(delta=math.nan), dict(alpha=1e-200)])
def test_degenerate_targets_are_planning_errors(plan_fn, override):
    # each used to end in a ZeroDivisionError, ValueError or OverflowError
    targets = {**dict(d=1, t=100, alpha=0.1, beta=0.1, eps=0.5, delta=0.1), **override}
    with pytest.raises(PlanningError):
        plan_fn(**targets)


@pytest.mark.parametrize("bt_eps, bt_delta", [(math.nan, 1e-2), (0.0, 1e-2), (8.0, math.nan),
                                              (8.0, 0.0)])
def test_plan_budgeted_rejects_bad_instance_parameters(bt_eps, bt_delta):
    with pytest.raises(PlanningError):
        plan_budgeted(1024, 600, bt_eps, bt_delta)
