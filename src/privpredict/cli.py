"""Command line front end: run experiments, evaluate planners, audit the toy channel."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .core import ConfigurationError, PlanningError
from .harness import ExperimentConfig, run_audit, run_experiment
from .planner import plan_halfspace, plan_oblivious

AUDIT_SEED = 7
AUDIT_SLACK = 0.3  # eps_hat may exceed the budget by this much before the audit fails


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
    result = run_experiment(cfg)
    tops = [r["top_count"] for r in result.rows]
    print(f"config digest : {result.digest}")
    print(f"outputs       : {result.out_dir}")
    print(f"trials        : {len(result.rows)}")
    print(f"top_count     : max={max(tops)} median={sorted(tops)[len(tops) // 2]}")
    for gate in result.gate_results:
        status = "pass" if gate["passed"] else "FAIL"
        print(f"gate {gate['column']} <= {gate['max']}: observed fraction "
              f"{gate['observed_fraction']:.4f} ({status})")
    return 0 if result.passed else 1


def _cmd_plan(args) -> int:
    plan_fn = plan_oblivious if args.mode == "oblivious" else plan_halfspace
    try:
        plan = plan_fn(args.d, args.T, args.alpha, args.beta, args.eps, args.delta)
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"mode": args.mode, **asdict(plan), "vacuous": plan.vacuous},
                     indent=2, sort_keys=True))
    return 0


def _cmd_audit(args) -> int:
    report, budget_eps, budget_delta = run_audit(args.trials, AUDIT_SEED, broken=args.broken)
    within = report.eps_hat <= budget_eps + AUDIT_SLACK
    print(f"variant     : {'broken (halved noise)' if args.broken else 'honest'}")
    print(f"trials/side : {args.trials}")
    print(f"budget      : eps={budget_eps:.4f} delta={budget_delta:.3g}")
    eps_txt = "inf" if math.isinf(report.eps_hat) else f"{report.eps_hat:.4f}"
    print(f"eps_hat     : {eps_txt} ({'WITHIN BUDGET' if within else 'EXCEEDS BUDGET'})")
    for ev in report.worst_events(3):
        print(f"  event {ev.name}: eps_hat={ev.eps_hat:.4f} freqs=({ev.freq_a:.5f}, {ev.freq_b:.5f})")
    return 0 if within else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predict",
        description="Private prediction experiments over adversarial query streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a seeded experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="evaluate the closed-form sample-size plans")
    p_plan.add_argument("--mode", choices=["oblivious", "halfspace"], required=True)
    p_plan.add_argument("--d", type=int, required=True)
    p_plan.add_argument("--T", type=int, required=True)
    p_plan.add_argument("--alpha", type=float, required=True)
    p_plan.add_argument("--beta", type=float, required=True)
    p_plan.add_argument("--eps", type=float, required=True)
    p_plan.add_argument("--delta", type=float, required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_audit = sub.add_parser("audit", help="empirical privacy audit of the toy channel")
    p_audit.add_argument("--trials", type=int, default=200_000)
    p_audit.add_argument("--broken", action="store_true")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
