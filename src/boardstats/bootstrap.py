"""Deterministic bootstrap resampling engine.

Generates resample index vectors with replacement, evaluates score statistics
over them, and summarizes the resulting sampling distributions with means and
percentile confidence intervals.

Two contracts matter everywhere downstream:

* Determinism: the indices of replicate r depend only on (seed, r), never on
  evaluation order or worker count, so identical plans produce bit-identical
  sampling distributions at any parallelism degree.
* Index sharing: every system is evaluated on the same index vector for a
  given replicate.  Per-replicate score differences between systems are only
  meaningful because of this pairing.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, MetricError
from .metrics import ResampleScorer, share_patterns, shared_counts
from .table import BootstrapPlan, PredictionTable, ScoreSpec

QUANTILE_RULE = "linear"

# Bytes of int64 resample indices evaluated per batch (shared counts add at
# most as many again).  Each worker thread writes every batch it takes into
# one index buffer and, where the scorers count, one count buffer of that
# many rows, allocated on its first batch and then reused: glibc hands
# freed 1 MiB blocks back to the OS, so fresh ones page-fault in again on
# every batch (457k minor faults in one accuracy bootstrap at n = 50k, m = 4,
# B = 2000, against 777 reused).  Each row is scored on its own from a stream
# fixed by (seed, replicate), so values never depend on the batch size or the
# worker count.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SamplingDistribution:
    """Bootstrap values of one statistic plus its value on the original data."""

    values: np.ndarray
    observed: float

    def __post_init__(self):
        self.values.flags.writeable = False


class CI(NamedTuple):
    lci: float
    mean: float
    uci: float

    @property
    def contains_zero(self) -> bool:
        return self.lci <= 0.0 <= self.uci


def _scored(spec: ScoreSpec, system: str, fn, *args):
    """``fn(*args)``; a custom metric's exception becomes a located MetricError."""
    try:
        return fn(*args)
    except Exception as exc:
        if spec.metric != "custom":
            raise
        raise MetricError(
            f"{spec.display_name} raised {type(exc).__name__} for system {system!r}: {exc}"
        ) from exc


def map_workers(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(item) for item in items]``, in order, on ``workers`` threads."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _evaluate(
    scorers: dict[str, ResampleScorer],
    n: int,
    plan: BootstrapPlan,
) -> np.ndarray:
    """The (m, B) matrix of every scorer's value on every replicate, one row
    per scorer in dict order, sharing index vectors and, where
    ``share_patterns`` finds it pays, each block's resample counts."""
    B = plan.replicates
    rows = max(1, _BLOCK_BYTES // (8 * n))
    counting = share_patterns(scorers.values(), n)
    values = np.empty((len(scorers), B))
    buffers = threading.local()

    def run_block(start: int) -> None:
        stop = min(start + rows, B)
        if not hasattr(buffers, "idx"):
            buffers.idx = np.empty((rows, n), dtype=np.int64)
            if counting is not None:
                buffers.counts = np.empty((rows, counting.width), counting.dtype)
        idx = rng.index_block(plan.seed, n, start, stop, out=buffers.idx)
        counts = None if counting is None else shared_counts(counting, idx, n, buffers.counts)
        for row, (name, scorer) in zip(values, scorers.items()):
            row[start:stop] = _scored(scorer.spec, name, scorer.scores, idx, counts)

    map_workers(run_block, range(0, B, rows), plan.workers)
    return values


def distributions(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
    systems: Optional[Sequence[str]] = None,
) -> dict[str, SamplingDistribution]:
    """Sampling distribution of the score of each system.

    value[r] of every system is computed on the same resample indices, which
    is what makes paired differences between systems valid; the values are
    the rows of one (m, B) matrix, in caller order.  An f1 or macro-F1 class
    found nowhere in the table is a ``ConfigError``.  A score that is not
    finite, on the original data or on any replicate, or a custom metric's
    ``score`` raising, is a ``MetricError`` naming the first such system in
    caller order.
    """
    names = list(dict.fromkeys(table.names if systems is None else systems))
    for name in names:
        if name not in table.systems:
            raise KeyError(f"unknown system {name!r}")
    if spec.labels:
        present = table.label_set
        missing = [c for c in spec.labels if c not in present]
        if missing:
            raise ConfigError(f"metric classes absent from the data: {missing}")
    scorers = {
        name: ResampleScorer(table.gold, table.systems[name], spec) for name in names
    }
    observed = {name: _scored(spec, name, scorers[name].observed) for name in names}
    for name in names:
        if not np.isfinite(observed[name]):
            _not_finite(spec, name, "the original data")
    values = _evaluate(scorers, table.n, plan)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        _not_finite(spec, names[bad[0, 0]], f"replicate {bad[0, 1]}")
    return {
        name: SamplingDistribution(values=row, observed=observed[name])
        for name, row in zip(names, values)
    }


def _not_finite(spec: ScoreSpec, system: str, where: str):
    raise MetricError(f"{spec.display_name} is not finite for system {system!r} on {where}")


def _lerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """numpy's linear-rule interpolation between order statistics a <= b:
    ``a + (b - a)·t``, or ``b - (b - a)·(1 - t)`` where ``t >= 0.5``."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _endpoints(values: np.ndarray, q: tuple[float, float], fallback: np.ndarray):
    """``np.quantile(values, q, axis=-1, method="linear")``, bit for bit, for
    q = (tail, 1 - tail) with tail <= 0.5.

    ``np.quantile`` selects 6 order statistics per row in one multi-kth
    introselect over a transposed copy.  This takes the 4 it interpolates
    between from one C-order copy of the rows, in place: a partition at the
    lower pair's upper rank leaves the lower rank's value as the max of the
    slice before it, and a partition of what lies after it at the upper
    pair's lower rank leaves the upper rank's value as the min of the slice
    past that.  Rows flagged in ``fallback``, and rows where a selected value
    is 0 while the row holds both -0.0 and +0.0, are taken from
    ``np.quantile`` itself: partitions order signed zeros arbitrarily, and
    numpy's SIMD ones may turn one into the other.
    """
    n = values.shape[-1]
    # numpy's linear rule: virtual index (n - 1)·q; at or past the last
    # order statistic both neighbours are that one and the index becomes -1
    v = (n - 1) * np.asarray(q)
    clipped = v >= n - 1
    prev = np.where(clipped, -1.0, np.floor(v))
    gamma = v - prev
    (lo, lo_next), (hi, hi_next) = (
        (n - 1, n - 1) if c else (int(p), int(p) + 1) for p, c in zip(prev, clipped)
    )
    rows = values.reshape(-1, n)
    work = rows.copy()
    work.partition(lo_next, axis=-1)
    if hi > lo_next:
        work[:, lo_next + 1:].partition(hi - lo_next - 1, axis=-1)
    # the ranks lo_next and hi (if hi >= lo_next) now hold their order
    # statistics; where hi == lo, the max before lo_next overrides
    x = {hi: work[:, hi], lo_next: work[:, lo_next], lo: work[:, :lo_next].max(axis=-1)}
    if hi_next not in x:
        x[hi_next] = work[:, hi_next:].min(axis=-1)
    fallback = np.array(fallback, dtype=bool).reshape(-1)
    zero = np.logical_or.reduce([stat == 0 for stat in x.values()])
    for r in np.flatnonzero(zero & ~fallback):
        signs = np.signbit(rows[r][rows[r] == 0])
        fallback[r] = signs.any() and not signs.all()
    with np.errstate(invalid="ignore"):  # infinite rows, all in fallback
        lci = _lerp(x[lo], x[lo_next], gamma[0])
        uci = _lerp(x[hi], x[hi_next], gamma[1])
    bad = np.flatnonzero(fallback)
    if bad.size:
        lci[bad], uci[bad] = np.quantile(rows[bad], q, axis=-1, method=QUANTILE_RULE)
    shape = values.shape[:-1]
    return lci.reshape(shape)[()], uci.reshape(shape)[()]


def percentile_rows(values: np.ndarray, confidence: float) -> tuple[np.ndarray, ...]:
    """(lci, mean, uci) of each row of ``values``, replicates on the last axis.

    The bounds are the (1 - confidence)/2 and 1 - (1 - confidence)/2
    empirical quantiles, taken with linear interpolation between order
    statistics (numpy's default rule, bit for bit as ``np.quantile``); the
    midpoint is the arithmetic mean.
    A row of finite values whose float sum overflows takes the sum of its
    values each divided by the replicate count instead, so its mean stays
    finite.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] < 2:
        raise ValueError("need at least 2 bootstrap values for quantiles")
    tail = (1.0 - confidence) / 2.0
    with np.errstate(over="ignore"):
        mean = values.mean(axis=-1)
    lci, uci = _endpoints(values, (tail, 1.0 - tail), ~np.isfinite(mean))
    if np.isinf(mean).any():
        overflowed = np.isinf(mean) & np.isfinite(values).all(axis=-1)
        scaled = np.add.reduce(values / values.shape[-1], axis=-1)
        mean = np.where(overflowed, scaled, mean)[()]
    return lci, mean, uci


def percentile_ci(dist: SamplingDistribution, confidence: float) -> CI:
    """Percentile confidence interval and mean of a sampling distribution."""
    return CI(*map(float, percentile_rows(dist.values, confidence)))

