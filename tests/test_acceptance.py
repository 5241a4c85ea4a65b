"""Acceptance gates: every stopping, accuracy, privacy and coherence criterion at
its stated tolerance.  Each test prints one PASS/FAIL line; run with -s to see
them as they complete."""

import json
import math

import numpy as np
import pytest

from depth_analysis import cdepth_subsample_check, default_probes, hull_membership
from privpredict.core import NoiseSource
from privpredict.dp import (
    BTOutcome,
    BTParams,
    PrivacyLedger,
    bt_accuracy_sample_bound,
    bt_init,
    bt_query,
    compose_advanced,
)
from privpredict.geometry import (
    DepthProfile,
    FeasibleSubspace,
    arrangement_candidates,
    subsample_size_bound,
)
from privpredict.harness import ExperimentConfig, run_audit, run_trial

ALPHA_TARGET = 0.1
BETA_TARGET = 0.1
SEEDS_PER_CONFIG = 200


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _oblivious_config(t_rounds: int) -> ExperimentConfig:
    return ExperimentConfig(
        mode="oblivious",
        t_rounds=t_rounds,
        trials=1,
        seed=0,
        domain_size=2**14,
        k=52,
        m=40,
        bt_eps=8.0,
        bt_delta=1e-3,
        alpha=ALPHA_TARGET,
        beta=BETA_TARGET,
        heldout=10_000,
    )


def _halfspace_config() -> ExperimentConfig:
    return ExperimentConfig(
        mode="halfspace",
        t_rounds=2**10,
        trials=1,
        seed=0,
        d=2,
        n_budget=600,
        bt_eps=8.0,
        bt_delta=1e-2,
        alpha=ALPHA_TARGET,
        beta=BETA_TARGET,
        adversary_tau=0.11,
    )


def _coherent(payload: dict) -> bool:
    for entry in payload["rounds"]:
        if entry["outcome"] == "L" and entry["label"] != -1:
            return False
        if entry["outcome"] == "R" and entry["label"] != 1:
            return False
    return True


@pytest.fixture(scope="module")
def oblivious_runs():
    """Criterion 2's runs, distilled: shared by the stopping, halving, accuracy
    transfer and coherence gates."""
    results = {}
    for t_rounds in (2**8, 2**10, 2**12):
        cfg = _oblivious_config(t_rounds)
        distilled = []
        for trial in range(SEEDS_PER_CONFIG):
            row, payload = run_trial(cfg, trial)
            distilled.append(
                {
                    "top_count": row["top_count"],
                    "fallbacks": row["fallback_count"],
                    "heldout": payload["heldout_error"],
                    "coherent": _coherent(payload),
                    "tops": [
                        (t["patterns_before"], t["patterns_after"]) for t in payload["top_rounds"]
                    ],
                    "aborted": payload["aborted"],
                }
            )
        results[t_rounds] = distilled
    return results


@pytest.fixture(scope="module")
def halfspace_runs():
    cfg = _halfspace_config()
    distilled = []
    for trial in range(SEEDS_PER_CONFIG):
        row, payload = run_trial(cfg, trial)
        distilled.append(
            {
                "top_count": row["top_count"],
                "coherent": _coherent(payload),
                "dims": [
                    (t["dim_before"], t["dim_after"], t["redundant"])
                    for t in payload["top_rounds"]
                ],
                "aborted": payload["aborted"],
            }
        )
    return distilled


def test_acceptance_01_halfspace_stopping(halfspace_runs):
    """Adaptive halfspace streams stop after at most d+1 = 3 hard rounds."""
    good = np.mean([r["top_count"] <= 3 for r in halfspace_runs])
    detail = f"{good:.3f} of {len(halfspace_runs)} runs with top_count <= 3, need >= 0.99"
    passed = good >= 0.99
    _report(1, "halfspace stopping", passed, detail)
    assert passed


def test_acceptance_02_oblivious_stopping(oblivious_runs):
    """Hard rounds stay within 4*(log2 T + log2(1/beta)) and grow at most linearly."""
    medians = {}
    fractions = {}
    for t_rounds, runs in oblivious_runs.items():
        bound = 4 * (math.log2(t_rounds) + math.log2(1 / BETA_TARGET))
        tops = [r["top_count"] for r in runs]
        fractions[t_rounds] = np.mean([v <= bound for v in tops])
        medians[t_rounds] = float(np.median(tops))
    growth_early = medians[2**10] - medians[2**8]
    growth_late = medians[2**12] - medians[2**10]
    linear = growth_late <= growth_early + 3.0
    passed = all(f >= 0.95 for f in fractions.values()) and linear
    detail = (
        f"bound fractions {dict((k, round(v, 3)) for k, v in fractions.items())}, "
        f"medians {medians}"
    )
    _report(2, "oblivious stopping", passed, detail)
    assert passed


def test_acceptance_03_pattern_halving(oblivious_runs):
    """Each hard round halves the surviving label patterns at the coin's rate."""
    halved = 0
    total = 0
    for runs in oblivious_runs.values():
        for r in runs:
            for before, after in r["tops"]:
                total += 1
                halved += 2 * after <= before
    freq = halved / total
    floor = 0.5 - 2.0 / math.sqrt(total)
    passed = freq >= floor
    detail = f"halving frequency {freq:.4f} over {total} hard rounds, floor {floor:.4f}"
    _report(3, "pattern halving", passed, detail)
    assert passed


def test_acceptance_04_bt_accuracy():
    """At the accuracy sample bound, answer implications fail in at most ~beta
    of adversarial trials."""
    alpha, beta, eps, t_rounds = 0.1, 0.05, 1.0, 1000
    n = bt_accuracy_sample_bound(alpha, beta, eps, t_rounds)
    params = BTParams(eps=eps, delta=1e-5, n=n, max_queries=t_rounds)
    lo, hi = params.t_lower, params.t_upper
    boundary = [0.265, 0.735] * (t_rounds // 2 - 1) + [0.48, 0.48]
    trials = 2000
    bad = 0
    for trial in range(trials):
        ns = NoiseSource(900_000 + trial)
        state = bt_init(params, ns)
        if trial % 2 == 0:
            stream = boundary
        else:
            stream = [ns.uniform() for _ in range(t_rounds)]
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
        bad += violated
    rate = bad / trials
    passed = rate <= beta + 0.015
    detail = f"n={n}, violation rate {rate:.4f} over {trials} trials, cap {beta + 0.015}"
    _report(4, "mechanism accuracy", passed, detail)
    assert passed


def test_acceptance_05_depth_transfer_fact():
    """depth >= (d+1)*cdepth - d*n holds with exact integer counts everywhere."""
    rng = np.random.default_rng(20_250_101)
    violations = 0
    instances = 500
    checked = 0
    caps = {1: 24, 2: 14, 3: 9}
    for i in range(instances):
        d = 1 + i % 3
        n = int(rng.integers(4, caps[d] + 1))
        normals = rng.standard_normal((n, d + 1))
        profile = DepthProfile(normals)
        cands = arrangement_candidates(profile, FeasibleSubspace.full(d + 1), sphere_samples=16)
        depths = profile.depths(cands)
        for z, depth_z in zip(cands, depths):
            # smallest cdepth value that would violate the transfer inequality
            y_star = (int(depth_z) + d * n) // (d + 1) + 1
            witnesses = cands[depths >= y_star]
            checked += 1
            if len(witnesses) and hull_membership(witnesses, z):
                violations += 1
    passed = violations == 0
    detail = f"{violations} violations over {checked} probes in {instances} instances"
    _report(5, "depth transfer fact", passed, detail)
    assert passed


def test_acceptance_06_cdepth_subsampling():
    """Random subsets at the size bound preserve cdepth fractions to alpha."""
    alpha, beta = 0.15, 0.1
    d, n, trials = 2, 2000, 300
    m = subsample_size_bound(d, alpha, beta)
    rng = np.random.default_rng(77)
    normals = rng.standard_normal((n, d + 1))
    probes = default_probes(
        DepthProfile(normals), FeasibleSubspace.full(d + 1), sphere_samples=16,
        boundary_constraints=6,
    )
    report = cdepth_subsample_check(
        normals, d=d, m=m, trials=trials, alpha=alpha, beta=beta,
        noise=NoiseSource(501), probes=probes, slack=0.04,
    )
    detail = (
        f"m={m}, trial violation fraction {report.trial_violation_fraction:.4f} "
        f"(probe level {report.probe_violation_fraction:.4f}), cap {report.threshold}"
    )
    _report(6, "cdepth subsampling", report.passed, detail)
    assert report.passed


def test_acceptance_07_privacy_accountant(oblivious_runs):
    """Composition matches an independent closed form to 1e-12 and the run
    reports equal ledger composition exactly."""
    worst = 0.0
    eps, delta, delta_prime = 0.37, 1e-7, 1e-6
    for k in range(0, 1001):
        ledger = PrivacyLedger()
        for _ in range(k):
            ledger.append(eps, delta)
        got_eps, got_delta = compose_advanced(ledger, delta_prime)
        if k == 0:
            ref_eps, ref_delta = 0.0, delta_prime
        else:
            # independent form of the same bound via tanh(eps/2)
            ref_eps = math.sqrt(2.0 * k * math.log(1.0 / delta_prime)) * eps
            ref_eps += k * eps * math.tanh(eps / 2.0)
            ref_delta = k * delta + delta_prime
        scale = max(abs(ref_eps), 1.0)
        worst = max(worst, abs(got_eps - ref_eps) / scale, abs(got_delta - ref_delta))
    cfg = _oblivious_config(2**8)
    row, payload = run_trial(cfg, 3)
    ledger = PrivacyLedger()
    for _ in range(payload["top_count"]):
        ledger.append(payload["bt_eps"], payload["bt_delta"])
    eps_ref, delta_ref = compose_advanced(ledger, 1e-6)
    exact = (eps_ref, delta_ref) == (payload["eps_total"], payload["delta_total"])
    passed = worst <= 1e-12 and exact
    detail = f"max relative error {worst:.2e} over k in [0,1000]; report totals exact: {exact}"
    _report(7, "privacy accountant", passed, detail)
    assert passed


@pytest.fixture(scope="module")
def audit_reports():
    honest, budget_eps, _ = run_audit(trials=200_000, seed=7, broken=False)
    broken, _, _ = run_audit(trials=200_000, seed=7, broken=True)
    return honest, broken, budget_eps


def test_acceptance_08_empirical_audit(audit_reports):
    """The transcript channel stays within its tight budget; halving the noise
    scales is flagged as exceeding it."""
    honest, broken, budget_eps = audit_reports
    slack = 0.3
    honest_ok = (not honest.diverged) and honest.eps_hat <= budget_eps + slack
    broken_flagged = broken.eps_hat > budget_eps
    passed = honest_ok and broken_flagged
    broken_txt = "inf" if math.isinf(broken.eps_hat) else f"{broken.eps_hat:.3f}"
    detail = (
        f"honest eps_hat {honest.eps_hat:.3f} <= {budget_eps}+{slack}; "
        f"broken eps_hat {broken_txt} (diverged={broken.diverged}) > {budget_eps}"
    )
    _report(8, "empirical audit", passed, detail)
    assert passed


def test_acceptance_09_accuracy_transfer(oblivious_runs):
    """Heldout ensemble error stays within 4*v*alpha + 0.05 for realized v."""
    good = 0
    total = 0
    for runs in oblivious_runs.values():
        for r in runs:
            total += 1
            bound = 4.0 * r["top_count"] * ALPHA_TARGET + 0.05
            good += r["heldout"] <= bound
    frac = good / total
    passed = frac >= 0.90
    detail = f"{frac:.3f} of {total} runs within 4*v*alpha + 0.05, need >= 0.90"
    _report(9, "accuracy transfer", passed, detail)
    assert passed


def test_acceptance_10_determinism_coherence(oblivious_runs, halfspace_runs):
    """Byte-identical reruns, label/outcome coherence, and clean dimension chains."""
    coherent = all(r["coherent"] for runs in oblivious_runs.values() for r in runs)
    coherent &= all(r["coherent"] for r in halfspace_runs)
    chains = True
    for r in halfspace_runs:
        dim = 3
        for before, after, redundant in r["dims"]:
            chains &= before == dim
            chains &= (before - after == 1) != redundant
            dim = after
        chains &= dim >= 0
    identical = True
    for cfg in (_oblivious_config(2**8), _halfspace_config()):
        for trial in (0, 1):
            _, first = run_trial(cfg, trial)
            _, second = run_trial(cfg, trial)
            identical &= json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    passed = coherent and chains and identical
    detail = f"coherent={coherent}, dim chains={chains}, byte-identical reruns={identical}"
    _report(10, "determinism and coherence", passed, detail)
    assert passed
