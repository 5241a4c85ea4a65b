"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions and
methods of the package by name.  Installing its hooks raises as soon as the
package drops or renames one of those names, which would otherwise surface
only in the benchmark's own smoke test."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_hooks_install_and_restore(tracing):
    patches = tracing.Patches()
    try:
        tracing.AnswerClock().install(patches)
        tracing.Tracer().install(patches)
        originals = {}  # a name wrapped by both hook sets: its first original is the package's own
        for owner, attr, original in patches._undo:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        patches.restore()
    for (owner, attr), original in originals.items():
        assert _current(owner, attr) is original, (owner, attr)
