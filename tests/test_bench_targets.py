"""The benchmark's span tracer still finds every function it traces.

``benchmarks/spans.py`` patches boardstats functions by name; a renamed or
deleted target would only print a warning in ``benchmarks/run.py`` and read
0 in its per-layer metrics, so the names are checked here, and so are the
counts that ``metrics.indices`` and ``bootstrap.blocks`` are read from.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from boardstats import bootstrap
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec

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


@pytest.mark.parametrize("rows", [None, 7], ids=["default-blocks", "7-row-blocks"])
@pytest.mark.parametrize("metric", ["macro_f1", "mae"])
def test_traced_counts_cover_every_system_and_block(spans, monkeypatch, metric, rows):
    # the benchmark's metrics.indices must read B·m·n, with one index block
    # per bootstrap block, however the scorers share their work
    n, m, B = 40, 3, 50
    g = np.random.default_rng(8)
    if metric == "mae":
        gold = g.normal(size=n)
        table = PredictionTable.build(
            gold, {f"s{i}": gold + g.normal(size=n) for i in range(m)}, "regression"
        )
        spec = ScoreSpec.mae()
    else:
        gold = g.choice(["a", "b", "c"], size=n)
        table = PredictionTable.build(
            gold, {f"s{i}": g.choice(["a", "b", "c"], size=n) for i in range(m)}
        )
        spec = ScoreSpec.macro_f1(["a", "c"])
    if rows is not None:
        monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
    per_block = rows or B
    blocks = -(-B // per_block)

    tracer = spans.Tracer()
    tracer.install()
    try:
        bootstrap.distributions(table, spec, BootstrapPlan(replicates=B, seed=2))
    finally:
        tracer.restore()
    assert tracer.uncounted == set()
    assert sum(spans._count(tracer.spans, "metrics.scores", "indices")) == B * m * n
    assert spans._calls(tracer.spans, "metrics.scores") == blocks * m
    assert spans._calls(tracer.spans, "rng.index_block") == blocks
