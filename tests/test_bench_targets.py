"""The benchmark's span tracer still finds every function it traces.

``benchmarks/spans.py`` patches boardstats functions by name; a renamed or
deleted target would only print a warning in ``benchmarks/run.py`` and read
0 in its per-layer metrics, so the names are checked here.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def test_tracer_finds_and_restores_every_target(spans):
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert tracer.missing == []
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
