"""Pinned run reports: every mode's payload and CSV row, and the audit's event
counts, against a table of digests.

Each case is a short seeded run (T = 256) of one mode, or the per-event counts
of ``run_audit(1000, 7)`` on one side.  Its canonical JSON (sorted keys, no
spaces) is hashed with sha256.  ``golden.json`` holds one row per toolchain,
because the halfspace kernel's SVD and libm's ``log`` may round differently in
the last bit elsewhere; on a toolchain with no row the cases skip.

Next to each digest the row keeps one fingerprint byte per leaf of the case
(its path and value), so a mismatch names the first path that differs.

A change that moves a digest rewrites its own toolchain's row in the same
commit (``python tests/test_golden.py`` from the repository root, with
``src`` on ``PYTHONPATH``) and lists every changed case, with the reason, in
CHANGES.md.  A row of another toolchain is never edited.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from privpredict.harness import ExperimentConfig, run_audit, run_trial

TABLE = Path(__file__).with_name("golden.json")
CLASS_FILE = "golden-class.json"  # relative, so the config digest is the same everywhere
T_ROUNDS = 256
TRIALS = (0, 1)

_CONFIGS = {
    "halfspace": dict(mode="halfspace", d=2, n_budget=600, bt_eps=8.0, bt_delta=1e-2,
                      adversary_tau=0.11),
    "halfspace-d3": dict(mode="halfspace", d=3, n_budget=600, bt_eps=8.0, bt_delta=1e-2,
                         adversary_tau=0.11),
    "oblivious": dict(mode="oblivious", domain_size=2**14, k=52, m=40, bt_delta=1e-3),
    "enumerated": dict(mode="oblivious", concept_file=CLASS_FILE, k=52, m=4, bt_delta=1e-3),
    "stochastic-baseline": dict(mode="stochastic-baseline", domain_size=1024, k=52, m=4,
                                bt_delta=1e-3),
    "heldout": dict(mode="oblivious", domain_size=2**14, k=52, m=40, bt_delta=1e-3,
                    heldout=1000),
}
CASES = [f"{name}/{trial}" for name in _CONFIGS for trial in TRIALS]
CASES += ["audit/honest", "audit/broken"]


def toolchain() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, {platform.machine()}")


def _write_class_file(directory: Path) -> None:
    """The full-shatter class on five points."""
    patterns = [list(p) for p in itertools.product((-1, 1), repeat=5)]
    (directory / CLASS_FILE).write_text(json.dumps({"points": [1, 2, 3, 4, 5],
                                                    "patterns": patterns}))


def case_document(case: str) -> dict:
    """What a case pins.  Enumerated cases read the class file from the
    working directory."""
    name, which = case.split("/")
    if name == "audit":
        report, _, _ = run_audit(1000, 7, broken=which == "broken")
        return {"events": {e.name: [round(e.freq_a * report.trials),
                                    round(e.freq_b * report.trials)]
                           for e in report.per_event}}
    cfg = ExperimentConfig(t_rounds=T_ROUNDS, **_CONFIGS[name])
    row, payload = run_trial(cfg, int(which))
    return {"row": row, "payload": payload}


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def leaves(node, path: str = ""):
    """(path, value) of every scalar, in canonical key order.  A tuple is an
    array like a list, as JSON encodes it."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, node


def fingerprint(document: dict) -> bytes:
    return bytes(hashlib.sha256(f"{path}={json.dumps(value)}".encode()).digest()[0]
                 for path, value in leaves(document))


def row_entry(document: dict) -> dict:
    return {"sha256": hashlib.sha256(canonical(document).encode()).hexdigest(),
            "leaves": base64.b64encode(fingerprint(document)).decode()}


def first_difference(document: dict, stored_leaves: str) -> str:
    """The first leaf path whose fingerprint byte differs from the table's."""
    paths = [path for path, _ in leaves(document)]
    want = base64.b64decode(stored_leaves)
    for path, have, expected in zip(paths, fingerprint(document), want):
        if have != expected:
            return path
    if len(paths) != len(want):
        return f"the leaf count ({len(paths)} leaves, the table has {len(want)})"
    return "no leaf (every fingerprint byte collides)"


def _table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def golden_row() -> dict:
    row = _table().get(toolchain())
    if row is None:
        pytest.skip(f"no golden row for toolchain {toolchain()!r}")
    return row


@pytest.mark.parametrize("case", CASES)
def test_payload_matches_golden_digest(case, golden_row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_class_file(tmp_path)
    document = case_document(case)
    stored = golden_row[case]
    digest = hashlib.sha256(canonical(document).encode()).hexdigest()
    assert digest == stored["sha256"], (
        f"{case}: the report differs first at {first_difference(document, stored['leaves'])}")


def test_golden_table_covers_every_case_of_every_row():
    for key, row in _table().items():
        assert sorted(row) == sorted(CASES), key


def test_first_difference_names_the_changed_leaf():
    document = {"payload": {"rounds": [{"q": 0.5}, {"q": 0.25}]}, "row": {"seed": 3}}
    stored = row_entry(document)["leaves"]
    document["payload"]["rounds"][1]["q"] = 0.2500000000000001
    assert first_difference(document, stored) == "payload.rounds[1].q"
    document["row"]["seed"] = 4
    assert first_difference(document, stored) == "payload.rounds[1].q"
    shorter = {"payload": {"rounds": [{"q": 0.5}, {"q": 0.25}]}}
    assert first_difference(shorter, stored) == "the leaf count (2 leaves, the table has 3)"
    # a tuple's items are leaves, as a list's are: both encode as a JSON array
    points = {"payload": {"rounds": [{"x": (0.5, 1.0)}, {"x": (0.25,)}]}}
    stored = row_entry(points)["leaves"]
    assert stored == row_entry({"payload": {"rounds": [{"x": [0.5, 1.0]}, {"x": [0.25]}]}})["leaves"]
    points["payload"]["rounds"][0]["x"] = (0.5, 2.0)
    assert first_difference(points, stored) == "payload.rounds[0].x[1]"


def _rewrite_own_row() -> None:
    """Recompute this toolchain's row and write it back into the table."""
    table = _table() if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            _write_class_file(Path(scratch))
            table[toolchain()] = {case: row_entry(case_document(case)) for case in CASES}
        finally:
            os.chdir(here)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases for {toolchain()!r} to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite_own_row()
