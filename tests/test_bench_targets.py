"""The benchmark's span tracer still finds every function it traces.

``benchmarks/spans.py`` patches boardstats functions by name; a renamed or
deleted target would only print a warning in ``benchmarks/run.py`` and read
0 in its per-layer metrics, so the names are checked here, and so are the
counts that ``metrics.indices`` and ``bootstrap.blocks`` are read from.
Counting has one name for the tracer to take as a layer of its own:
``metrics.shared_counts``, which every counted block passes through once.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from boardstats import bootstrap, metrics
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


def random_table(metric: str, n: int, m: int):
    """(table, spec) of m random systems over n rows."""
    g = np.random.default_rng(8)
    if metric == "mae":
        gold = g.normal(size=n)
        table = PredictionTable.build(
            gold, {f"s{i}": gold + g.normal(size=n) for i in range(m)}, "regression"
        )
        return table, ScoreSpec(metric="mae")
    gold = g.choice(["a", "b", "c"], size=n)
    table = PredictionTable.build(gold, {f"s{i}": g.choice(["a", "b", "c"], size=n) for i in range(m)})
    labels = ("a", "c") if metric == "macro_f1" else ()
    return table, ScoreSpec(metric=metric, labels=labels)


@pytest.mark.parametrize("rows", [None, 7], ids=["default-blocks", "7-row-blocks"])
@pytest.mark.parametrize("metric", ["macro_f1", "mae"])
def test_traced_counts_cover_every_system_and_block(spans, monkeypatch, metric, rows):
    # the benchmark's metrics.indices must read B·m·n, with one index block
    # per bootstrap block, however the scorers share their work
    n, m, B = 40, 3, 50
    table, spec = random_table(metric, n, m)
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


# (metric, m): 3 accuracy and 3 MAE systems make 3 gathers and gather; 4
# accuracy systems (16 tally patterns in 400 rows) count per pattern, and 4
# MAE and 3 2-class macro-F1 systems (81 patterns) per row
@pytest.mark.parametrize(
    "metric,m",
    [("accuracy", 3), ("mae", 3), ("accuracy", 4), ("mae", 4), ("macro_f1", 3)],
)
def test_every_counted_block_passes_through_one_shared_counts_call(spans, monkeypatch, metric, m):
    n, B, rows = 400, 50, 7
    table, spec = random_table(metric, n, m)
    monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("metrics.shared_counts", "boardstats.metrics", "shared_counts", None),
        ("metrics._count_rows", "boardstats.metrics", "_count_rows", None),
    ))
    counts = metrics.share_patterns(
        [metrics.ResampleScorer(table.gold, pred, spec) for pred in table.systems.values()], n
    ) is not None
    assert counts == (m == 4 or metric == "macro_f1")

    tracer = spans.Tracer()
    tracer.install()
    try:
        bootstrap.distributions(table, spec, BootstrapPlan(replicates=B, seed=2))
    finally:
        tracer.restore()
    assert tracer.missing == []
    blocks = -(-B // rows)
    assert spans._calls(tracer.spans, "metrics.shared_counts") == (blocks if counts else 0)
    # each block is counted by one _count_rows call, inside shared_counts
    count_rows = [s for s in tracer.spans if s.name == "metrics._count_rows"]
    assert len(count_rows) == (blocks if counts else 0)
    assert all(tracer.spans[s.parent].name == "metrics.shared_counts" for s in count_rows)
