"""Test-only helpers: scoring one resample, per-row resample counts and
counting as a bootstrap counts, garbage-filled output buffers, tables with
a set number of tally patterns and reading back markdown tables."""

import re
from pathlib import Path

import numpy as np

from boardstats import metrics
from boardstats.metrics import ResampleScorer
from boardstats.table import PredictionTable, ScoreSpec

# one spec per built-in metric, for tables built by ``patterned_table``
PATTERN_SPECS = {
    "accuracy": ScoreSpec(metric="accuracy"),
    "f1": ScoreSpec(metric="f1", labels=("a",)),
    "macro_f1": ScoreSpec(metric="macro_f1", labels=("a", "c")),
    "mae": ScoreSpec(metric="mae"),
}


def score_on_indices(gold, pred, spec: ScoreSpec, indices) -> float:
    """Score of the resample ``gold[indices]`` vs ``pred[indices]``.

    Equivalent to ``score(gold[indices], pred[indices], spec)`` but avoids
    materializing the resampled outcome vectors.
    """
    scorer = ResampleScorer(np.asarray(gold), np.asarray(pred), spec)
    return float(scorer.scores(np.asarray(indices, dtype=np.int64))[0])


def resample_counts(idx, n: int) -> np.ndarray:
    """Multiplicity of each of the n data rows in every row of an index
    matrix: the (k, n) float64 matrix whose row r is
    ``np.bincount(idx[r], minlength=n)``."""
    idx = np.asarray(idx)
    idx = idx[None] if idx.ndim == 1 else idx
    return np.array([np.bincount(row, minlength=n) for row in idx], np.float64).reshape(-1, n)


def counted(scorers, idx, n: int):
    """(decision, counts): how ``share_patterns`` counts a bootstrap of the
    scorers, and the counts ``shared_counts`` gives for ``idx`` in a buffer
    made from that decision, as a bootstrap's blocks are counted."""
    counting = metrics.share_patterns(scorers, n)
    buf = garbage((len(np.atleast_2d(idx)), counting.width), counting.dtype)
    return counting, metrics.shared_counts(counting, idx, n, buf)


def tally_rows(table: PredictionTable, spec: ScoreSpec) -> np.ndarray:
    """Every system's tally columns side by side: one row per data row."""
    return np.column_stack([
        ResampleScorer(table.gold, pred, spec)._columns for pred in table.systems.values()
    ])


def patterned_table(metric: str, patterns: int, n: int, seed: int = 0):
    """(table, spec) of n rows holding exactly ``patterns`` distinct rows of
    ``tally_rows``, each at least once, under ``PATTERN_SPECS[metric]``.

    The rows are drawn from a pool of 4096 random rows (8 systems of three
    labels, or 4 regression systems), one per pattern, and then shuffled.
    """
    g = np.random.default_rng(seed)
    size = 4096
    if metric == "mae":
        gold = g.normal(size=size)
        systems = {f"s{i}": gold + g.normal(size=size) for i in range(4)}
        task = "regression"
    else:
        gold = g.choice(["a", "b", "c"], size=size)
        systems = {
            f"s{i}": np.where(g.random(size) < 0.5, g.choice(["a", "b", "c"], size=size), gold)
            for i in range(8)
        }
        task = "classification"
    spec = PATTERN_SPECS[metric]
    pool = PredictionTable.build(gold, systems, task)
    _, first = np.unique(tally_rows(pool, spec), axis=0, return_index=True)
    kept = g.permutation(first)[:patterns]
    pick = kept[np.concatenate([np.arange(patterns), g.integers(0, patterns, n - patterns)])]
    g.shuffle(pick)
    table = PredictionTable.build(
        pool.gold[pick], {name: pred[pick] for name, pred in pool.systems.items()}, task
    )
    assert len(np.unique(tally_rows(table, spec), axis=0)) == patterns
    return table, spec


def garbage(shape, dtype) -> np.ndarray:
    """A C-contiguous array whose every byte is 0xFF (-1 as int64, NaN as
    float64), so a slot an ``out=`` writer skips cannot pass for a value."""
    buf = np.empty(shape, dtype=dtype)
    buf.view(np.uint8)[...] = 0xFF
    return buf


def read_md_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Parse back a markdown table written by ``write_md`` (for round trips).

    Cells are split on unescaped pipes only, and an escaped ``\\|`` reads
    back as ``|``.
    """
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("|")]
    cells = [
        [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in lines
    ]
    return cells[0], cells[2:]
