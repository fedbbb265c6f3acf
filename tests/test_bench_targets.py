"""The benchmark's span tracer still finds every function it traces.

``benchmarks/spans.py`` patches boardstats functions by name; a renamed or
deleted target would only print a warning in ``benchmarks/run.py`` and read
0 in its per-layer metrics, so the names are checked here, and so are the
counts that ``metrics.indices`` and ``bootstrap.blocks`` are read from.
Counting and weighing have one name each for the tracer to take as a layer
of its own: ``metrics.shared_counts`` and ``metrics.shared_sums``, which
every block of a built-in metric passes through once each, and a custom
metric's never.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from boardstats import bootstrap, metrics
from boardstats.table import BootstrapPlan, ScoreSpec
from helpers import random_table

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


# (metric, m): 1, 3 and 4 accuracy systems (2, 8 and 16 tally patterns in
# 400 rows) count per pattern, and 3 and 4 MAE and 3 2-class macro-F1
# systems (81 patterns) per row
TRACED_BOOTSTRAPS = [
    ("accuracy", 1), ("accuracy", 3), ("mae", 3), ("accuracy", 4), ("mae", 4), ("macro_f1", 3),
]


@pytest.mark.parametrize("metric,m", TRACED_BOOTSTRAPS)
def test_every_counted_block_passes_through_one_shared_counts_call(spans, monkeypatch, metric, m):
    n, B, rows = 400, 50, 7
    table, spec = random_table(metric, n, m)
    monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("metrics.shared_counts", "boardstats.metrics", "shared_counts", None),
        ("metrics._count_rows", "boardstats.metrics", "_count_rows", None),
    ))
    counting = metrics.share_patterns(
        [metrics.ResampleScorer(table.gold, pred, spec) for pred in table.systems.values()], n, rows
    )
    assert (counting.ids is None) == (metric != "accuracy")

    tracer = spans.Tracer()
    tracer.install()
    try:
        bootstrap.distributions(table, spec, BootstrapPlan(replicates=B, seed=2))
    finally:
        tracer.restore()
    assert tracer.missing == []
    blocks = -(-B // rows)
    assert spans._calls(tracer.spans, "metrics.shared_counts") == blocks
    # each block is counted by one _count_rows call, inside shared_counts
    count_rows = [s for s in tracer.spans if s.name == "metrics._count_rows"]
    assert len(count_rows) == blocks
    assert all(tracer.spans[s.parent].name == "metrics.shared_counts" for s in count_rows)


@pytest.mark.parametrize("metric,m", TRACED_BOOTSTRAPS)
def test_every_counted_block_passes_through_one_shared_sums_call(spans, monkeypatch, metric, m):
    # every product that weighs counts runs inside the block's one
    # shared_sums call
    n, B, rows = 400, 50, 7
    table, spec = random_table(metric, n, m)
    monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("metrics.shared_sums", "boardstats.metrics", "shared_sums", None),
    ))
    products = []  # perf_counter time of every product
    matmul = np.matmul

    def timed_matmul(*args, **kwargs):
        products.append(time.perf_counter())
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", timed_matmul)

    tracer = spans.Tracer()
    tracer.install()
    try:
        bootstrap.distributions(table, spec, BootstrapPlan(replicates=B, seed=2))
    finally:
        tracer.restore()
    assert tracer.missing == []
    blocks = -(-B // rows)
    weighs = [s for s in tracer.spans if s.name == "metrics.shared_sums"]
    assert len(weighs) == blocks
    assert len(products) >= len(weighs)
    assert all(any(s.start <= t <= s.end for s in weighs) for t in products)
    # scoring finishes the sums: no system weighs counts of its own
    assert spans._calls(tracer.spans, "metrics.scores") == blocks * m


def test_a_custom_bootstrap_neither_counts_nor_weighs(spans, monkeypatch):
    # a custom metric scores the resampled vectors: no block is counted or
    # weighed, and each system is still scored once per block
    n, m, B, rows = 400, 3, 50, 7
    table, _ = random_table("accuracy", n, m)
    spec = ScoreSpec(metric="custom", name="agree", fn=lambda g, p: float(np.mean(g == p)))
    monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("metrics.shared_counts", "boardstats.metrics", "shared_counts", None),
        ("metrics.shared_sums", "boardstats.metrics", "shared_sums", None),
    ))

    tracer = spans.Tracer()
    tracer.install()
    try:
        bootstrap.distributions(table, spec, BootstrapPlan(replicates=B, seed=2))
    finally:
        tracer.restore()
    assert tracer.missing == []
    blocks = -(-B // rows)
    assert spans._calls(tracer.spans, "metrics.shared_counts") == 0
    assert spans._calls(tracer.spans, "metrics.shared_sums") == 0
    assert spans._calls(tracer.spans, "metrics.scores") == blocks * m
    assert sum(spans._count(tracer.spans, "metrics.scores", "indices")) == B * m * n
