"""A halfspace trial reuses the depth kernel's memory instead of faulting it in.

The kernel's per-chunk temporaries live in a workspace that outlives a refit
(``geometry._Scratch``).  When they were allocated per chunk, glibc handed
them back to the OS after a refit, and most acceptance-size trials took
about 240 minor page faults to touch them again.  The trials here run at
that size (T = 1024, three refits at falling subspace dimension): first one
after another, as in a fresh benchmark process, then each after an
oblivious trial, which leaves the heap in another state.

The count is ``ru_minflt`` of a fresh interpreter, so nothing this test
process did before shapes the heap.  Only glibc's heap behaves this way; the
bound means nothing elsewhere.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import resource

from privpredict.harness import ExperimentConfig, run_trial

halfspace = ExperimentConfig(mode="halfspace", t_rounds=2**10, d=2, n_budget=600, bt_eps=8.0,
                             bt_delta=1e-2, alpha=0.1, beta=0.1, adversary_tau=0.11)
oblivious = ExperimentConfig(mode="oblivious", t_rounds=256, domain_size=2**14, k=52, m=40,
                             bt_delta=1e-3, heldout=100)


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def growth(index):
    before = faults()
    run_trial(halfspace, index)
    return faults() - before


run_trial(halfspace, 0)  # warm-up: the workspace is allocated and touched once
alone = [growth(i) for i in range(1, 11)]
interleaved = []
for i in range(11, 16):
    run_trial(oblivious, i)
    interleaved.append(growth(i))
print(json.dumps({"alone": alone, "interleaved": interleaved}))
"""

FAULTS_PER_TRIAL = 20  # about 240 per trial without the workspace, about 3 with it


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's heap trimming through Linux's ru_minflt")
def test_halfspace_trials_take_few_page_faults_after_warm_up():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    for name in ("alone", "interleaved"):
        trials = out[name]
        assert sum(trials) <= FAULTS_PER_TRIAL * len(trials), (name, trials)
