import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist

from privpredict.core import (
    ConfigurationError,
    LabeledSample,
    NoiseSource,
    PreconditionError,
    UsageError,
)
from privpredict.dp import (
    BTOutcome,
    BTParams,
    PrivacyLedger,
    _clopper_pearson,
    audit_dp,
    bt_accuracy_sample_bound,
    bt_init,
    bt_query,
    compose_advanced,
    compose_tight,
    laplace,
    required_threshold_gap,
)
from privpredict.harness import ExperimentConfig, run_trial
from zero_noise import ZeroNoise


def test_laplace_median_and_validation():
    assert laplace(1.0, ZeroNoise(0)) == 0.0
    with pytest.raises(ConfigurationError):
        laplace(0.0, NoiseSource(0))
    with pytest.raises(ConfigurationError):
        laplace(-1.0, NoiseSource(0))


def test_nan_eps_and_scale_are_configuration_errors():
    # nan <= 0 is false: a nan bt_eps used to answer every round TOP and
    # report a nan final_eps
    with pytest.raises(ConfigurationError):
        laplace(math.nan, NoiseSource(0))
    with pytest.raises(ConfigurationError):
        BTParams(eps=math.nan, delta=1e-3, n=52)
    cfg = ExperimentConfig(mode="oblivious", t_rounds=64, k=52, m=40, bt_eps=math.nan)
    with pytest.raises(ConfigurationError):
        run_trial(cfg, 0)


def test_laplace_variance_monte_carlo():
    scale = 0.7
    ns = NoiseSource(99)
    draws = np.array([laplace(scale, ns) for _ in range(100_000)])
    assert abs(draws.var() / (2 * scale**2) - 1.0) < 0.05


def test_laplace_kolmogorov_smirnov():
    scale = 1.3
    ns = NoiseSource(123)
    draws = np.sort([laplace(scale, ns) for _ in range(100_000)])
    cdf = np.where(draws < 0, 0.5 * np.exp(draws / scale), 1 - 0.5 * np.exp(-draws / scale))
    n = len(draws)
    ks = max(
        float(np.max(np.arange(1, n + 1) / n - cdf)),
        float(np.max(cdf - np.arange(0, n) / n)),
    )
    assert ks < 0.01


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_laplace_deterministic_per_seed(seed):
    assert laplace(2.0, NoiseSource(seed)) == laplace(2.0, NoiseSource(seed))


def test_bt_params_gap_precondition():
    # eps*n small enough that the required gap exceeds the 1/4 default
    with pytest.raises(PreconditionError):
        BTParams(eps=8.0, delta=1e-3, n=48, max_queries=4)
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=4)
    assert params.t_upper - params.t_lower >= required_threshold_gap(8.0, 1e-3, 52)


def test_bt_init_zero_noise_thresholds():
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=4)
    state = bt_init(params, ZeroNoise(0))
    assert (state.noisy_lower, state.noisy_upper) == (0.375, 0.625)
    assert not state.halted


def test_bt_init_deterministic():
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=4)
    a = bt_init(params, NoiseSource(5))
    b = bt_init(params, NoiseSource(5))
    assert (a.noisy_lower, a.noisy_upper) == (b.noisy_lower, b.noisy_upper)


def test_bt_query_zero_noise_outcomes():
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=8)
    zn = ZeroNoise(0)
    state = bt_init(params, zn)
    assert bt_query(state, 0.2, zn) is BTOutcome.L
    assert bt_query(state, 0.8, zn) is BTOutcome.R
    assert bt_query(state, 0.5, zn) is BTOutcome.TOP
    assert state.halted


def test_bt_halted_instance_rejects_queries():
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=8)
    zn = ZeroNoise(0)
    state = bt_init(params, zn)
    assert bt_query(state, 0.5, zn) is BTOutcome.TOP
    with pytest.raises(UsageError):
        bt_query(state, 0.1, zn)


def test_bt_query_budget_enforced():
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=1)
    zn = ZeroNoise(0)
    state = bt_init(params, zn)
    bt_query(state, 0.1, zn)
    with pytest.raises(UsageError):
        bt_query(state, 0.1, zn)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_bt_at_most_one_top_per_instance(seed):
    params = BTParams(eps=8.0, delta=1e-3, n=52, max_queries=64)
    ns = NoiseSource(seed)
    state = bt_init(params, ns)
    tops = 0
    for _ in range(64):
        if state.halted:
            break
        if bt_query(state, 0.5, ns) is BTOutcome.TOP:
            tops += 1
    assert tops <= 1
    if tops == 1:
        assert state.halted


def test_bt_accuracy_property():
    # ensemble size at the accuracy bound; over seeded trials the fraction with
    # any implication violated stays within beta plus sampling slack
    alpha, beta, eps, t = 0.1, 0.05, 1.0, 200
    n = bt_accuracy_sample_bound(alpha, beta, eps, t)
    params = BTParams(eps=eps, delta=1e-4, n=n, max_queries=t)
    trials = 400
    lo, hi = params.t_lower, params.t_upper
    stream = [0.265, 0.735] * (t // 2 - 1) + [0.48, 0.48]
    bad_trials = 0
    for trial in range(trials):
        ns = NoiseSource(50_000 + trial)
        state = bt_init(params, ns)
        violated = False
        for q in stream:
            if state.halted:
                break
            out = bt_query(state, q, ns)
            if out is BTOutcome.L and not q <= lo + alpha:
                violated = True
            elif out is BTOutcome.R and not q >= hi - alpha:
                violated = True
            elif out is BTOutcome.TOP and not (lo - alpha <= q <= hi + alpha):
                violated = True
        bad_trials += violated
    assert bad_trials / trials <= beta + 3 * math.sqrt(beta / trials)


def test_compose_advanced_empty_and_closed_form():
    assert compose_advanced(PrivacyLedger(), 1e-6) == (0.0, 1e-6)
    ledger = PrivacyLedger()
    ledger.append(0.1, 0.0)
    eps_total, delta_total = compose_advanced(ledger, 1e-6)
    # independent form: (e^x - 1)/(e^x + 1) = tanh(x/2)
    expected = math.sqrt(2 * math.log(1e6)) * 0.1 + 0.1 * math.tanh(0.05)
    assert abs(eps_total - expected) <= 1e-15
    assert delta_total == 1e-6


def test_compose_advanced_monotone_in_k():
    values = []
    for k in range(1, 101):
        ledger = PrivacyLedger()
        for _ in range(k):
            ledger.append(0.05, 1e-8)
        values.append(compose_advanced(ledger, 1e-6)[0])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_compose_advanced_small_eps_regime():
    # for eps < 1/sqrt(k) the total stays within 3*sqrt(k ln(1/delta'))*eps
    for k in (1, 4, 16, 64, 100):
        eps = 0.9 / math.sqrt(k)
        ledger = PrivacyLedger()
        for _ in range(k):
            ledger.append(eps, 0.0)
        eps_total, _ = compose_advanced(ledger, 1e-6)
        assert eps_total <= 3 * math.sqrt(k * math.log(1e6)) * eps


def test_compose_tight_prefers_basic_composition():
    ledger = PrivacyLedger()
    ledger.append(6.0, 1e-3)
    eps_tight, delta_tight = compose_tight(ledger, 1e-3)
    assert eps_tight == 6.0
    assert delta_tight == 1e-3
    assert compose_advanced(ledger, 1e-3)[0] > 6.0


def test_compose_requires_shared_entry():
    ledger = PrivacyLedger()
    ledger.append(0.1, 0.0)
    ledger.append(0.2, 0.0)
    with pytest.raises(UsageError):
        compose_advanced(ledger, 1e-6)


def _singleton(x, lab):
    return LabeledSample(((float(x),),), (lab,))


def _randomized_response(s, ns):
    bit = 1 if s.labels[0] > 0 else 0
    return bit ^ (ns.uniform() < 0.25)


def test_audit_constant_mechanism():
    sample = _singleton(1, 1)
    neighbor = _singleton(2, 1)
    report = audit_dp(
        lambda s, ns: "same",
        sample,
        neighbor,
        [("always", lambda out: True)],
        trials=2000,
        noise=NoiseSource(0),
    )
    assert report.eps_hat <= 0.1
    assert not report.diverged


def test_audit_identity_mechanism_diverges():
    sample = _singleton(1, 1)
    neighbor = _singleton(2, 1)
    report = audit_dp(
        lambda s, ns: s.points[0][0],
        sample,
        neighbor,
        [("is_one", lambda out: out == 1.0)],
        trials=2000,
        noise=NoiseSource(0),
    )
    assert report.diverged
    assert math.isinf(report.eps_hat)


def test_audit_randomized_response_matches_ln3():
    sample = _singleton(1, 1)
    neighbor = _singleton(1, -1)
    report = audit_dp(
        _randomized_response,
        sample,
        neighbor,
        [("one", lambda out: out == 1)],
        trials=150_000,
        noise=NoiseSource(3),
    )
    assert abs(report.eps_hat - math.log(3)) <= 0.12


def _eps_lower(c_num, c_den, trials, confidence):
    """ln(p_num / p_den) from the two-sided Clopper-Pearson bounds, in closed form."""
    tail = (1.0 - confidence) / 2.0
    lo = beta_dist.ppf(tail, c_num, trials - c_num + 1)
    hi = beta_dist.ppf(1.0 - tail, c_den + 1, trials - c_den)
    return math.log(lo / hi)


@pytest.mark.parametrize("confidence", [0.95, 1 - 0.05 / 63])
@pytest.mark.parametrize("trials", [1000, 20_000, 200_000])
def test_clopper_pearson_equals_the_beta_quantiles_of_scipy_stats(trials, confidence):
    """The audit takes its bounds from ``scipy.special.betaincinv``; the beta
    quantiles of ``scipy.stats``, the textbook form, must agree to the last bit.
    Every count is checked at 10^3 trials, a sample of them above that."""
    if trials == 1000:
        counts = np.arange(trials + 1)
    else:
        drawn = np.random.default_rng(trials).integers(0, trials + 1, size=2000)
        counts = np.unique(np.concatenate([[0, 1, 2, trials - 2, trials - 1, trials], drawn]))
    got = np.array([_clopper_pearson(int(c), trials, confidence) for c in counts])
    tail = (1.0 - confidence) / 2.0
    some, not_all = counts > 0, counts < trials
    lo = beta_dist.ppf(tail, counts[some], trials - counts[some] + 1)
    hi = beta_dist.ppf(1.0 - tail, counts[not_all] + 1, trials - counts[not_all])
    assert np.array_equal(got[some, 0], lo)
    assert np.array_equal(got[not_all, 1], hi)
    assert got[0, 0] == 0.0 and got[-1, 1] == 1.0


def test_audit_splits_its_confidence_over_the_events():
    """One event is audited at the 95 % level itself; with more events each
    one's intervals widen so that the maximum over them holds at 95 %."""
    sample, neighbor = _singleton(1, 1), _singleton(1, -1)
    one = ("one", lambda out: out == 1)
    zero = ("zero", lambda out: out == 0)
    trials = 4000
    alone = audit_dp(_randomized_response, sample, neighbor, [one], trials, NoiseSource(3))
    ca, cb = (round(f * trials) for f in (alone.per_event[0].freq_a, alone.per_event[0].freq_b))
    assert alone.eps_hat == _eps_lower(ca, cb, trials, 0.95)

    many = audit_dp(_randomized_response, sample, neighbor, [one, zero] + [one] * 8,
                    trials, NoiseSource(3))
    first = many.per_event[0]
    assert (first.freq_a, first.freq_b) == (alone.per_event[0].freq_a, alone.per_event[0].freq_b)
    assert first.eps_hat == _eps_lower(ca, cb, trials, 1 - 0.05 / 10)
    assert first.eps_hat < alone.eps_hat
    assert many.eps_hat < alone.eps_hat


def test_audit_structural_draw_on_a_later_trial_raises():
    """Every trial of a side shares one source, so a mechanism that draws
    structure after the first trial's noise fails loudly."""
    def mechanism(s, ns):
        ns.permutation(2)
        return ns.uniform() < 0.5

    with pytest.raises(UsageError, match="structural draw after a noise draw"):
        audit_dp(mechanism, _singleton(1, 1), _singleton(2, 1),
                 [("low", lambda out: out)], trials=1000, noise=NoiseSource(0))


def test_audit_input_validation():
    sample = _singleton(1, 1)
    with pytest.raises(UsageError):
        audit_dp(lambda s, ns: 0, sample, sample, [("e", lambda o: True)], 2000, NoiseSource(0))
    far = LabeledSample(((1.0,), (2.0,)), (1, 1))
    with pytest.raises(UsageError):
        audit_dp(lambda s, ns: 0, sample, far, [("e", lambda o: True)], 2000, NoiseSource(0))
    neighbor = _singleton(2, 1)
    with pytest.raises(ConfigurationError):
        audit_dp(lambda s, ns: 0, sample, neighbor, [("e", lambda o: True)], 10, NoiseSource(0))
