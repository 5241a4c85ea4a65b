#!/usr/bin/env python3
"""Empirical privacy audit of the prediction transcript, honest vs broken.

Audits the vote/threshold channel on neighboring datasets differing in one
record.  The honest mechanism should stay inside its single-instance budget;
the variant with silently halved noise scales should be flagged above it.
"""

import argparse
import math

from privpredict.cli import AUDIT_SEED, AUDIT_SLACK
from privpredict.harness import run_audit


def describe(tag, report, budget_eps, slack):
    eps_txt = "inf" if math.isinf(report.eps_hat) else f"{report.eps_hat:.3f}"
    verdict = "within budget" if report.eps_hat <= budget_eps + slack else "EXCEEDS BUDGET"
    print(f"{tag:7s} eps_hat={eps_txt:>6s}  diverged={report.diverged}  {verdict}")
    for event in report.worst_events(3):
        print(f"         {event.name:14s} eps={event.eps_hat:.3f} "
              f"freqs=({event.freq_a:.5f}, {event.freq_b:.5f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=AUDIT_SEED)
    parser.add_argument("--slack", type=float, default=AUDIT_SLACK)
    args = parser.parse_args()

    honest, budget_eps, budget_delta = run_audit(args.trials, args.seed, broken=False)
    broken, _, _ = run_audit(args.trials, args.seed, broken=True)
    print(f"budget: eps={budget_eps} delta={budget_delta} (its one mechanism instance)")
    describe("honest", honest, budget_eps, args.slack)
    describe("broken", broken, budget_eps, args.slack)
    honest_ok = not honest.diverged and honest.eps_hat <= budget_eps + args.slack
    broken_caught = broken.eps_hat > budget_eps
    return 0 if honest_ok and broken_caught else 1


if __name__ == "__main__":
    raise SystemExit(main())
