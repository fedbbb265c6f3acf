"""Performance scores of one prediction vector against the gold standard.

Supported metrics: accuracy, per-class F1, macro-averaged F1 over a declared
class subset, and mean absolute error.  Arbitrary metrics plug in through
``ScoreSpec.custom``.

The macro-F1 here averages F1 only over the declared subset.  Classes outside
the subset still contribute false positives and false negatives to the subset
classes but get no F1 term of their own.  A subset class with tp = fp = fn = 0
in a resample scores 0 and stays in the average.

Each built-in metric is a few per-row tally columns plus one finish step that
turns the columns' sums over a resample into the score; only ``custom``
metrics see the resampled vectors themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError
from .table import ScoreSpec


class ResampleScorer:
    """Evaluates one (gold, pred, spec) triple over batches of index rows.

    Precomputes the metric's per-row tally columns once, so every resample
    evaluation is one gather and one reduction per column, without
    materializing resampled label vectors.  ``scores`` accepts a (k, n) index
    matrix and returns k scores; row r equals the plain score of
    ``gold[idx[r]]`` vs ``pred[idx[r]]``.
    """

    def __init__(self, gold: np.ndarray, pred: np.ndarray, spec: ScoreSpec):
        gold = np.asarray(gold)
        pred = np.asarray(pred)
        if len(gold) == 0:
            raise MetricError("cannot score empty vectors")
        if len(gold) != len(pred):
            raise MetricError(
                f"gold has {len(gold)} rows but prediction has {len(pred)}"
            )
        self.n = len(gold)
        self.spec = spec
        self._gold = gold
        self._pred = pred
        self._setup()

    def _setup(self):
        spec = self.spec
        gold, pred = self._gold, self._pred
        if spec.metric == "accuracy":
            self._columns = [(gold == pred).astype(np.int64)]
            self._finish = self._mean
        elif spec.metric in ("f1", "macro_f1"):
            if _looks_numeric(gold):
                raise MetricError(f"{spec.metric} requires categorical outcomes")
            # For class c: F1 = 2*tp / (pred_count + gold_count), so two
            # integer tallies per class fully determine the resampled score.
            self._columns = []
            for c in spec.labels:
                g = (gold == c)
                p = (pred == c)
                self._columns += [(g & p).astype(np.int64), p.astype(np.int64) + g]
            self._finish = _mean_f1
        elif spec.metric == "mae":
            try:
                gf = gold.astype(float)
                pf = pred.astype(float)
            except (TypeError, ValueError) as exc:
                raise MetricError("mae requires numeric outcomes") from exc
            self._columns = [np.abs(gf - pf)]
            self._finish = self._mean
        elif spec.metric != "custom":  # pragma: no cover - ScoreSpec rejects it
            raise MetricError(f"unknown metric {spec.metric!r}")

    def _mean(self, sums: list[np.ndarray]) -> np.ndarray:
        return sums[0] / self.n

    def scores(self, idx) -> np.ndarray:
        """Score each row of a (k, n) index matrix."""
        idx = np.asarray(idx)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise MetricError(f"resample index outside [0, {self.n})")
        return self._score_rows(idx)

    def _score_rows(self, idx: np.ndarray) -> np.ndarray:
        if self.spec.metric != "custom":
            return self._finish([np.add.reduce(w[idx], axis=1) for w in self._columns])
        # custom: hand the resampled vectors to the user function row by row
        return np.array(
            [float(self.spec.fn(self._gold[row], self._pred[row])) for row in idx]
        )

    def observed(self) -> float:
        """Score of the original, unresampled data: the identity row.

        Bypasses ``scores``, which takes resamples and checks their range;
        the identity row is neither.
        """
        return float(self._score_rows(np.arange(self.n)[None])[0])


def _mean_f1(sums: list[np.ndarray]) -> np.ndarray:
    """Mean over classes of 2 tp / (pred + gold) from (tp, pred + gold) sums.

    A class with pred + gold = 0 has tp = 0 and scores 0.
    """
    tp = np.stack(sums[0::2])
    denom = np.stack(sums[1::2])
    return (2.0 * tp / np.maximum(denom, 1)).mean(axis=0)


def _looks_numeric(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.number)


def score(gold, pred, spec: ScoreSpec) -> float:
    """Performance of ``pred`` against ``gold`` under ``spec``.

    accuracy = correct / n; F1 of class c = 2 tp / (2 tp + fp + fn);
    macro-F1 = mean of per-class F1 over the declared subset;
    mae = mean absolute error.
    """
    return ResampleScorer(np.asarray(gold), np.asarray(pred), spec).observed()


def score_on_indices(gold, pred, spec: ScoreSpec, indices) -> float:
    """Score of the resample ``gold[indices]`` vs ``pred[indices]``.

    Equivalent to ``score(gold[indices], pred[indices], spec)`` but avoids
    materializing the resampled outcome vectors.
    """
    scorer = ResampleScorer(np.asarray(gold), np.asarray(pred), spec)
    return float(scorer.scores(np.asarray(indices, dtype=np.int64))[0])
