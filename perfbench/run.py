"""Benchmark of privpredict: trial throughput and answer latency on three
seeded workloads, run through the public harness.

    python3 perfbench/run.py --workload halfspace-adaptive --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it runs the job list
once untraced and then traced, and prints every per-layer metric.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The lines before it record the machine, the output digest and the
failure rate.

Load model: closed loop, one process, one workload.  A job starts when the
previous one ends, and within a trial the adversary waits for every answer.
The job list is fixed by the seed; it is repeated until ``--seconds`` have
passed, and it always runs at least once.  Checks and digests run outside the
timed calls.  Reported timings are scaled to a nominal host speed by the
reference kernel in ``hostspeed.py``; the unscaled ones print as ``*_wall``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3   # fresh processes per run whose set-up time is measured
BLAS_THREADS = "1"  # the workloads' matrices are tiny; extra BLAS threads only add noise
SPAN_DIR = ROOT / ".perfbench-out"
REF_SHARE = 0.02    # host speed reference time after a job, as a share of the job's time
SETUP_REF_S = 0.05  # host speed reference time around each set-up probe


def load_program() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy or privpredict is imported, which is why the
    benchmark's own modules are imported inside ``main``.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "privpredict" / "__init__.py").is_file():
        raise SystemExit(f"error: no privpredict source under {SRC}")
    sys.path.insert(0, str(SRC))


@dataclass
class Measurement:
    busy_s: float = 0.0          # time inside the timed harness calls, all passes
    scaled_busy_s: float = 0.0   # the same, scaled to the nominal host speed
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    passes: int = 0
    answer_samples: int = 0
    problems: list = field(default_factory=list)
    first_pass: dict = field(default_factory=dict)   # job index -> payload sha256
    quality: list = field(default_factory=lambda: [0.0, 0, 0, 0])  # eps, runs, wrong, answers
    counts: Counter = field(default_factory=Counter)
    trials: dict = field(default_factory=dict)       # timing unit -> trials in the unit
    # Timings as measured (wall) and scaled to the nominal host speed (scaled).
    unit_s: dict = field(default_factory=lambda: {"wall": {}, "scaled": {}})  # unit -> passes
    window_us: dict = field(default_factory=lambda: {"wall": [], "scaled": []})  # (p50, p90)
    reference_s: list = field(default_factory=list)  # host speed reference around each job

    def scaled_per_trial_s(self) -> float:
        return self.scaled_busy_s / self.completed

    def trials_per_s(self, kind: str = "scaled") -> float:
        """Trials of the job list over the sum of each timing unit's median pass."""
        medians = map(statistics.median, self.unit_s[kind].values())
        return sum(self.trials.values()) / sum(medians)

    def answer_us(self, kind: str = "scaled") -> tuple[float, float]:
        """Median over all answer windows of the window's p50 and of its p90."""
        return tuple(statistics.median(q) for q in zip(*self.window_us[kind]))


def measure(run, seconds: float, clock, whole_passes: bool) -> Measurement:
    """Run the job list, and repeat it until ``seconds`` have passed.

    The first pass is always whole; later ones stop when time is up unless
    ``whole_passes``.  Timings are medians: of each timing unit's passes, and
    of the answer windows of all jobs and passes.  A timing unit is a job, or
    on the audit a window of a job (``AuditRun.timing_units``).  The host speed
    reference runs before the first job and after each one, outside the timed
    calls, and a job's timings are scaled by the mean of the two around it.
    """
    import hostspeed

    out = Measurement()
    start = time.perf_counter()
    before = hostspeed.reference_s()
    while out.passes == 0 or time.perf_counter() - start < seconds:
        for index, job in enumerate(run.jobs):
            if out.passes and not whole_passes and time.perf_counter() - start >= seconds:
                break
            trials = run.job_trials(job)
            out.attempted += trials
            clock.new_job()
            began = time.perf_counter()
            try:
                result = run.run_job(job)
            except Exception:  # a raising trial is a failed trial; keep measuring
                out.busy_s += time.perf_counter() - began
                out.failed += trials
                out.problems.append(traceback.format_exc(limit=3))
                before = hostspeed.reference_s()
                continue
            elapsed = time.perf_counter() - began
            after = hostspeed.reference_s(REF_SHARE * elapsed)
            reference = (before + after) / 2
            before = after
            scale = hostspeed.NOMINAL_S / reference
            out.reference_s.append(reference)
            out.busy_s += elapsed
            out.scaled_busy_s += elapsed * scale
            out.completed += trials
            for unit, unit_trials, unit_s in run.timing_units(index, trials, elapsed, clock):
                out.trials[unit] = unit_trials
                out.unit_s["wall"].setdefault(unit, []).append(unit_s)
                out.unit_s["scaled"].setdefault(unit, []).append(unit_s * scale)
            for p50, p90 in clock.window_quantiles_us():
                out.window_us["wall"].append((p50, p90))
                out.window_us["scaled"].append((p50 * scale, p90 * scale))
            problems = run.check(job, result)
            payload = hashlib.sha256(run.payload(result)).hexdigest()
            if out.passes == 0:
                out.first_pass[index] = payload
                out.answer_samples += len(clock.samples)
                for i, value in enumerate(run.quality(result, clock.outputs)):
                    out.quality[i] += value
            elif out.first_pass.get(index, payload) != payload:
                problems.append(f"job {index}: output differs from the first pass")
            out.counts.update(run.layer_counts(result))
            if problems:
                out.failed += trials
                out.problems.extend(problems)
        out.passes += 1
    return out


def payload_digest(out: Measurement) -> str:
    joined = "\n".join(out.first_pass[i] for i in sorted(out.first_pass))
    return hashlib.sha256(joined.encode()).hexdigest()


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: interpreter start, ``import privpredict``
    and workload construction, up to the moment a first trial could start.

    Returns (wall seconds, scale) per process, where the scale comes from the
    host speed reference run just before and just after the process.
    """
    import hostspeed

    times = []
    before = hostspeed.reference_s(SETUP_REF_S)
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall = float(proc.stdout.split()[-1]) - started
        after = hostspeed.reference_s(SETUP_REF_S)
        times.append((wall, hostspeed.NOMINAL_S / ((before + after) / 2)))
        before = after
    return times


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=30,
                                      check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(out: Measurement, values: dict[str, float], trace: bool) -> dict:
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    return {
        "correct": out.failed == 0 and out.completed > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report(workload: str, seed: int, out: Measurement, values: dict[str, float],
           trace: bool, extra: dict, unlisted: dict[str, tuple[float, str]]) -> dict:
    """Print the human-readable lines, then the JSON result as the last line.

    ``unlisted`` metrics are printed but left out of the JSON result, because
    BENCHMARK.json cannot hold them (see perfbench/README.md).
    """
    result = result_line(out, values, trace)
    print("machine", json.dumps(machine(), sort_keys=True))
    print(f"workload {workload} seed {seed} passes {out.passes} trials {out.completed}")
    print(f"payload_sha256 {payload_digest(out)}")
    for key, value in extra.items():
        print(key, value)
    for problem in out.problems[:5]:
        print("failure", problem.strip().replace("\n", " | "))
    unlisted = {"failed_frac": (out.failed / out.attempted, "ratio"), **unlisted}
    for name, (value, unit) in unlisted.items():
        print(f"metric {name} {value!r} {unit}")
    for name, entry in result["metrics"].items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return result


def run_untraced(workload, seed: int, seconds: float,
                 setup: list[tuple[float, float]]) -> dict:
    import tracing

    run = workload.build(seed)
    clock = tracing.AnswerClock()
    patches = tracing.Patches()
    clock.install(patches)
    try:
        out = measure(run, seconds, clock, whole_passes=False)
    finally:
        patches.restore()
    eps, runs, wrong, answers = out.quality
    values = {
        "trials_per_s": out.trials_per_s(),
        "answer_us_p50": out.answer_us()[0],
        "setup_s": statistics.median(wall * scale for wall, scale in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eps_spent_mean": eps / runs,
        "wrong_answer_frac": wrong / answers,
    }
    extra = {"answer_samples": out.answer_samples,
             "setup_s_wall_samples": " ".join(repr(wall) for wall, _ in setup),
             "setup_s_scale_samples": " ".join(repr(scale) for _, scale in setup),
             "host_reference_ms_median": 1e3 * statistics.median(out.reference_s)}
    unlisted = {
        "answer_us_p90": (out.answer_us()[1], "us"),
        "trials_per_s_wall": (out.trials_per_s("wall"), "1/s"),
        "answer_us_p50_wall": (out.answer_us("wall")[0], "us"),
        "answer_us_p90_wall": (out.answer_us("wall")[1], "us"),
        "setup_s_wall": (statistics.median(wall for wall, _ in setup), "s"),
    }
    return report(workload.name, seed, out, values, False, extra, unlisted)


def run_traced(workload, seed: int, seconds: float) -> dict:
    import tracing

    run = workload.build(seed)
    clock = tracing.AnswerClock()
    patches = tracing.Patches()
    clock.install(patches)
    started = time.perf_counter()
    try:
        baseline = measure(run, 0.0, clock, whole_passes=True)
        tracer = tracing.Tracer()
        tracer.install(patches)
        out = measure(run, seconds - (time.perf_counter() - started), clock, whole_passes=True)
    finally:
        patches.restore()
    out.attempted += baseline.attempted
    out.failed += baseline.failed
    out.problems[:0] = baseline.problems
    overhead = out.scaled_per_trial_s() / baseline.scaled_per_trial_s() - 1.0
    values = tracing.layer_metrics(tracer, out.completed, out.counts, run.k, out.busy_s,
                                   overhead)
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload.name}-seed{seed}.json"
    span_file.write_text(json.dumps({
        "fields": ["name", "id", "parent", "start", "end"],
        "spans": tracer.spans,
        "inclusive_s": tracer.inclusive,
        "self_s": tracer.exclusive,
        "calls": tracer.calls,
    }))
    if tracer.min_self_s() < 0.0:
        out.failed += 1
        out.problems.append(f"negative self time {tracer.min_self_s()!r}")
    extra = {"traced_trials": out.completed, "untraced_trials": baseline.completed,
             "span_file": span_file.relative_to(ROOT)}
    return report(workload.name, seed, out, values, True, extra, {})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed; trial i uses seed + i (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        workload.build(seed)
        print(repr(time.monotonic()))
        return 0
    if args.trace:
        run_traced(workload, seed, args.seconds)
    else:
        setup = setup_seconds(workload.name, seed)
        run_untraced(workload, seed, args.seconds, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
