"""The prediction path loads numpy and the standard library, never scipy,
and no process pool.

scipy serves one analysis-only caller in the package: the audit's
Clopper-Pearson bounds (``dp._clopper_pearson``, through ``scipy.special``),
which import it on first use.  No path of the package loads ``scipy.optimize``
or ``scipy.stats`` (the latter alone takes most of a second and some 45 MB to
load); every submodule is imported below to hold that.  The process pool
(``concurrent.futures``, and with it multiprocessing) is loaded only by
``run_experiment`` with more than one worker.

The check runs in a fresh interpreter: this test process has scipy loaded
already (``test_dp.py`` and ``test_golden.py`` import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib
import json
import pkgutil
import sys

import privpredict
from privpredict import NoiseSource
from privpredict.harness import AuditToy, ExperimentConfig, run_audit, run_trial


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def analysis_modules():
    return [name for name in ("scipy.special", "scipy.optimize", "scipy.stats")
            if name in sys.modules]


for module in pkgutil.iter_modules(privpredict.__path__):
    importlib.import_module(f"privpredict.{module.name}")

configs = [
    dict(mode="halfspace", t_rounds=64, d=2, n_budget=600, bt_delta=1e-2),
    dict(mode="oblivious", t_rounds=256, domain_size=2**14, k=52, m=40, bt_delta=1e-3,
         heldout=100),
    dict(mode="stochastic-baseline", t_rounds=64, domain_size=1024, k=52, m=4, bt_delta=1e-3),
    dict(mode="oblivious", t_rounds=16, concept_file=sys.argv[1], k=52, m=4, bt_delta=1e-3),
]
rounds = [len(run_trial(ExperimentConfig(**config), 0)[1]["rounds"]) for config in configs]
pool_modules = sorted(name for name in sys.modules if name.split(".")[0] == "concurrent")
toy = AuditToy()
mechanism = toy.mechanism()
sample, _ = toy.samples()
noise = NoiseSource(7)
transcripts = [mechanism(sample, noise) for _ in range(20)]
runtime = scipy_modules()

report, _, _ = run_audit(1000, 7)
audit = analysis_modules()
print(json.dumps({
    "rounds": rounds,
    "transcripts": len(transcripts),
    "runtime_scipy": runtime,
    "pool_modules": pool_modules,
    "audit": [report.trials, len(report.per_event), len(toy.events())],
    "audit_scipy": audit,
}))
"""


def test_prediction_runs_load_no_scipy_and_the_analysis_loads_it_on_use(tmp_path):
    class_file = tmp_path / "class.json"
    class_file.write_text(json.dumps({
        "points": [1, 2, 3, 4],
        "patterns": [[-1, -1, -1, -1], [-1, -1, 1, 1], [-1, 1, 1, 1], [1, 1, 1, 1]],
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(class_file)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rounds"] == [64, 256, 64, 16]
    assert out["transcripts"] == 20
    assert out["runtime_scipy"] == []
    assert out["pool_modules"] == []
    trials, events, toy_events = out["audit"]
    assert trials == 1000 and events == toy_events > 0
    assert out["audit_scipy"] == ["scipy.special"]
