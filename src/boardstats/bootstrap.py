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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, MetricError
from .metrics import ResampleScorer, shared_counts
from .table import BootstrapPlan, PredictionTable, ScoreSpec

QUANTILE_RULE = "linear"

# Bytes of int64 resample indices evaluated per batch (a shared count matrix
# adds as many again).  Each row is scored on its own from a stream fixed by
# (seed, replicate), so values never depend on the batch size or the worker
# count.
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


def resample_indices(plan: BootstrapPlan, n: int, replicate_id: int) -> np.ndarray:
    """The n resample indices of one replicate of the plan.

    Fully determined by (seed, replicate_id); n independent uniform draws
    from [0, n).
    """
    if not 0 <= replicate_id < plan.replicates:
        raise ValueError(
            f"replicate_id {replicate_id} outside [0, {plan.replicates})"
        )
    return rng.index_block(plan.seed, n, replicate_id, replicate_id + 1)[0]


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
    ``shared_counts`` finds it pays, each block's resample counts."""
    B = plan.replicates
    rows = max(1, _BLOCK_BYTES // (8 * n))
    out = np.empty((len(scorers), B))

    def run_block(start: int) -> None:
        stop = min(start + rows, B)
        idx = rng.index_block(plan.seed, n, start, stop)
        counts = shared_counts(scorers.values(), idx, n)
        for row, (name, scorer) in zip(out, scorers.items()):
            row[start:stop] = _scored(scorer.spec, name, scorer.scores, idx, counts)

    map_workers(run_block, range(0, B, rows), plan.workers)
    return out


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
    if spec.metric in ("f1", "macro_f1"):
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


def distribution(
    table: PredictionTable,
    system: str,
    spec: ScoreSpec,
    plan: BootstrapPlan,
) -> SamplingDistribution:
    """Sampling distribution of one system's score under the plan."""
    return distributions(table, spec, plan, systems=[system])[system]


def percentile_rows(values: np.ndarray, confidence: float) -> tuple[np.ndarray, ...]:
    """(lci, mean, uci) of each row of ``values``, replicates on the last axis.

    The bounds are the (1 - confidence)/2 and 1 - (1 - confidence)/2
    empirical quantiles, taken with linear interpolation between order
    statistics (numpy's default rule); the midpoint is the arithmetic mean.
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
    lci, uci = np.quantile(values, [tail, 1.0 - tail], axis=-1, method=QUANTILE_RULE)
    with np.errstate(over="ignore"):
        mean = values.mean(axis=-1)
    if np.isinf(mean).any():
        overflowed = np.isinf(mean) & np.isfinite(values).all(axis=-1)
        scaled = np.add.reduce(values / values.shape[-1], axis=-1)
        mean = np.where(overflowed, scaled, mean)[()]
    return lci, mean, uci


def percentile_ci(dist: SamplingDistribution, confidence: float) -> CI:
    """Percentile confidence interval and mean of a sampling distribution."""
    return CI(*map(float, percentile_rows(dist.values, confidence)))


def summarize(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
    systems: Optional[Sequence[str]] = None,
) -> dict[str, tuple[float, CI]]:
    """Observed score and bootstrap CI (with its mean) for each system."""
    dists = distributions(table, spec, plan, systems=systems)
    return {
        name: (dist.observed, percentile_ci(dist, plan.confidence))
        for name, dist in dists.items()
    }
