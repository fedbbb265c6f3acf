"""Test-only helpers: scoring resamples as a bootstrap counts them, per-row
resample counts, counting and weighing as a bootstrap does, the gathered
sums that counted ones are checked against, garbage-filled output buffers,
random tables and tables with a set number of tally patterns, and reading
back markdown tables."""

import re
from pathlib import Path

import numpy as np

from boardstats import metrics, rng
from boardstats.bootstrap import SamplingDistribution
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
    return float(counted_scores(scorer, np.asarray(indices, dtype=np.int64))[0])


def counted_scores(scorer: ResampleScorer, idx) -> np.ndarray:
    """``scorer``'s score of every row of ``idx``, counted and weighed as a
    bootstrap of ``scorer`` alone counts a block; an index outside [0, n) is
    a ``MetricError``."""
    if scorer._columns is None:
        return scorer.scores(idx)
    counting, counts = counted([scorer], idx, scorer.n)
    return scorer.scores(idx, weighed(counting, counts))


def gathered_sums(scorer: ResampleScorer, idx) -> np.ndarray:
    """The reference for every counted sum: the (k, W) sums of ``scorer``'s
    tally columns over the rows of ``idx``, each column gathered through the
    indices and reduced on its own.  Every partial sum is an exact integer,
    so any order of the additions gives the same float64 sums."""
    idx = np.atleast_2d(idx)
    sums = [np.add.reduce(np.take(column, idx), axis=1) for column in scorer._columns.T]
    return np.column_stack(sums).reshape(len(idx), -1)


def gathered_scores(scorer: ResampleScorer, idx) -> np.ndarray:
    """``scorer``'s score of every row of ``idx``, finished from its
    ``gathered_sums``."""
    return scorer.scores(idx, gathered_sums(scorer, idx))


def gathered_distributions(table: PredictionTable, spec: ScoreSpec, plan) -> dict:
    """``bootstrap.distributions`` of every system, each replicate scored
    from its ``gathered_sums``: the bootstrap that counted ones are checked
    against, bit for bit."""
    idx = rng.index_block(plan.seed, table.n, 0, plan.replicates)
    scorers = {name: ResampleScorer(table.gold, pred, spec) for name, pred in table.systems.items()}
    return {
        name: SamplingDistribution(gathered_scores(scorer, idx), scorer.observed())
        for name, scorer in scorers.items()
    }


def resample_counts(idx, n: int) -> np.ndarray:
    """Multiplicity of each of the n data rows in every row of an index
    matrix: the (k, n) float64 matrix whose row r is
    ``np.bincount(idx[r], minlength=n)``."""
    idx = np.asarray(idx)
    idx = idx[None] if idx.ndim == 1 else idx
    return np.array([np.bincount(row, minlength=n) for row in idx], np.float64).reshape(-1, n)


def counted(scorers, idx, n: int):
    """(decision, counts): how ``share_patterns`` counts a bootstrap of the
    scorers in blocks of ``idx``'s rows, and the counts ``shared_counts``
    gives for ``idx`` in a buffer made from that decision, as a bootstrap's
    blocks are counted."""
    counting = metrics.share_patterns(scorers, n, len(np.atleast_2d(idx)))
    buf = garbage((len(np.atleast_2d(idx)), counting.width), counting.dtype)
    return counting, metrics.shared_counts(counting, idx, n, buf)


def weighed(counting, counts, dtype=None) -> np.ndarray:
    """The sums ``shared_sums`` gives for ``counts`` in a buffer of ``dtype``
    (the counting's own by default), as a bootstrap's blocks are weighed."""
    buf = garbage((len(counts), counting.columns.shape[1]), dtype or counting.dtype)
    return metrics.shared_sums(counting, counts, buf)


def row_sums(scorer: ResampleScorer, idx) -> np.ndarray:
    """The (k, W) sums ``shared_sums`` gives ``scorer`` alone, weighing the
    float64 per-row counts of ``idx`` in one product."""
    counts = resample_counts(idx, scorer.n)
    columns = scorer._columns
    counting = metrics._Counting(None, columns, (slice(None),), (max(len(counts), 1), columns.shape[1]))
    return weighed(counting, counts)


def tally_rows(table: PredictionTable, spec: ScoreSpec) -> np.ndarray:
    """Every system's tally columns side by side: one row per data row."""
    return np.column_stack([
        ResampleScorer(table.gold, pred, spec)._columns for pred in table.systems.values()
    ])


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
