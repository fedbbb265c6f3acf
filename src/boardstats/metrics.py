"""Performance scores of one prediction vector against the gold standard.

Supported metrics: accuracy, per-class F1, macro-averaged F1 over a declared
class subset, and mean absolute error.  Arbitrary metrics plug in through
``ScoreSpec.custom``.

The macro-F1 here averages F1 only over the declared subset.  Classes outside
the subset still contribute false positives and false negatives to the subset
classes but get no F1 term of their own.  A subset class with tp = fp = fn = 0
in a resample scores 0 by default and stays in the average (``empty_class_f1``
on the spec switches to dropping it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .table import ScoreSpec


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-label true positive / false positive / false negative tallies."""

    labels: tuple[str, ...]
    tp: dict[str, int]
    fp: dict[str, int]
    fn: dict[str, int]


def confusion_counts(gold: np.ndarray, pred: np.ndarray, labels=None) -> ConfusionCounts:
    """Tally tp/fp/fn per label over the given label set (default: union)."""
    gold = np.asarray(gold, dtype=object)
    pred = np.asarray(pred, dtype=object)
    if labels is None:
        labels = tuple(dict.fromkeys(list(gold) + list(pred)))
    tp, fp, fn = {}, {}, {}
    for c in labels:
        g = gold == c
        p = pred == c
        tp[c] = int(np.sum(g & p))
        fp[c] = int(np.sum(~g & p))
        fn[c] = int(np.sum(g & ~p))
    return ConfusionCounts(labels=tuple(labels), tp=tp, fp=fp, fn=fn)


class ResampleScorer:
    """Evaluates one (gold, pred, spec) triple over batches of index rows.

    Precomputes per-element contributions once so every resample evaluation
    is a gather plus a reduction, without materializing resampled label
    vectors.  ``scores`` accepts a (k, n) index matrix and returns k scores;
    row r equals the plain score of ``gold[idx[r]]`` vs ``pred[idx[r]]``.
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
            self._correct = (gold == pred).astype(np.int64)
        elif spec.metric in ("f1", "macro_f1"):
            if _looks_numeric(gold):
                raise MetricError(f"{spec.metric} requires categorical outcomes")
            # For class c: F1 = 2*tp / (pred_count + gold_count), so three
            # integer tallies per class fully determine the resampled score.
            self._cls = []
            for c in spec.labels:
                g = (gold == c)
                p = (pred == c)
                self._cls.append(
                    ((g & p).astype(np.int64), p.astype(np.int64), g.astype(np.int64))
                )
        elif spec.metric == "mae":
            try:
                gf = gold.astype(float)
                pf = pred.astype(float)
            except (TypeError, ValueError) as exc:
                raise MetricError("mae requires numeric outcomes") from exc
            self._abserr = np.abs(gf - pf)
        elif spec.metric == "custom":
            pass
        else:  # pragma: no cover - ScoreSpec already rejects unknown metrics
            raise MetricError(f"unknown metric {spec.metric!r}")

    def _gather_sum(self, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return np.add.reduce(weights[idx], axis=1)

    def scores(self, idx) -> np.ndarray:
        """Score each row of a (k, n) index matrix."""
        idx = np.asarray(idx)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise MetricError(f"resample index outside [0, {self.n})")
        return self._score_rows(idx)

    def _score_rows(self, idx: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.metric == "accuracy":
            return self._gather_sum(self._correct, idx) / self.n
        if spec.metric in ("f1", "macro_f1"):
            per_class = []
            present = []
            for tp_w, p_w, g_w in self._cls:
                tp = self._gather_sum(tp_w, idx)
                denom = self._gather_sum(p_w, idx) + self._gather_sum(g_w, idx)
                f1 = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1), 0.0)
                per_class.append(f1)
                present.append(denom > 0)
            stacked = np.stack(per_class)
            if spec.empty_class_f1 == "exclude":
                mask = np.stack(present)
                cnt = mask.sum(axis=0)
                return np.where(cnt > 0, (stacked * mask).sum(axis=0) / np.maximum(cnt, 1), 0.0)
            return stacked.mean(axis=0)
        if spec.metric == "mae":
            return self._gather_sum(self._abserr, idx) / self.n
        # custom: hand the resampled vectors to the user function row by row
        return np.array(
            [float(spec.fn(self._gold[row], self._pred[row])) for row in idx]
        )

    def observed(self) -> float:
        """Score of the original, unresampled data: the identity row.

        Bypasses ``scores``, which takes resamples and checks their range;
        the identity row is neither.
        """
        return float(self._score_rows(np.arange(self.n)[None])[0])


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
