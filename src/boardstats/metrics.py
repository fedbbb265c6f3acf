"""Performance scores of one prediction vector against the gold standard.

Supported metrics: accuracy, per-class F1, macro-averaged F1 over a declared
class subset, and mean absolute error.  Arbitrary metrics plug in through
``ScoreSpec.custom``.

The macro-F1 here averages F1 only over the declared subset.  Classes outside
the subset still contribute false positives and false negatives to the subset
classes but get no F1 term of their own.  A subset class with tp = fp = fn = 0
in a resample scores 0 and stays in the average.

Each built-in metric is a few per-row tally columns plus one finish step that
turns the columns' sums over a resample into the score; integer columns share
int64 words, one lane each, so a resample block is gathered once per word.
Only ``custom`` metrics see the resampled vectors themselves.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError
from .table import ScoreSpec


class ResampleScorer:
    """Evaluates one (gold, pred, spec) triple over batches of index rows.

    Precomputes the metric's per-row tally columns once, packing integer
    columns into int64 lane words, so every resample evaluation is one
    gather and one reduction per word, without materializing resampled label
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
            self._pack([(gold == pred).astype(np.int64)], top=1)
            self._finish = self._mean
        elif spec.metric in ("f1", "macro_f1"):
            if _looks_numeric(gold):
                raise MetricError(f"{spec.metric} requires categorical outcomes")
            # For class c: F1 = 2*tp / (pred_count + gold_count), so two
            # integer tallies per class fully determine the resampled score.
            columns = []
            for c in spec.labels:
                g = (gold == c)
                p = (pred == c)
                columns += [(g & p).astype(np.int64), p.astype(np.int64) + g]
            self._pack(columns, top=2)
            self._finish = _mean_f1
        elif spec.metric == "mae":
            try:
                gf = gold.astype(float)
                pf = pred.astype(float)
            except (TypeError, ValueError) as exc:
                raise MetricError("mae requires numeric outcomes") from exc
            with np.errstate(over="ignore"):  # an overflow is reported as a non-finite score
                self._words = [np.abs(gf - pf)]
            self._bits = None
            self._finish = self._mean
        elif spec.metric != "custom":  # pragma: no cover - ScoreSpec rejects it
            raise MetricError(f"unknown metric {spec.metric!r}")

    def _pack(self, columns: list[np.ndarray], top: int) -> None:
        """Pack integer tally columns with entries in [0, top] into int64 words.

        Every column gets a lane of ``bits`` bits, enough for its largest
        resampled sum top * n, and a word holds 63 // bits lanes, so the sign
        bit stays clear.  No lane's sum carries into the next and no word's
        sum overflows, so one gather and reduction per word yields every
        column sum exactly (SWAR: SIMD within a register).
        """
        self._bits = (top * self.n).bit_length()
        self._lanes = 63 // self._bits
        self._ncols = len(columns)
        self._words = [
            sum(col << (self._bits * j) for j, col in enumerate(columns[i:i + self._lanes]))
            for i in range(0, len(columns), self._lanes)
        ]

    def _mean(self, sums: list[np.ndarray]) -> np.ndarray:
        return sums[0] / self.n

    def scores(self, idx) -> np.ndarray:
        """Score each row of a (k, n) index matrix."""
        idx = np.asarray(idx)
        if idx.ndim == 1:
            idx = idx[None, :]
        if idx.size:
            if idx.dtype == np.int64:
                # one pass: a negative index wraps to at least 2**63
                outside = idx.view(np.uint64).max() >= self.n
            else:
                outside = idx.min() < 0 or idx.max() >= self.n
            if outside:
                raise MetricError(f"resample index outside [0, {self.n})")
        return self._score_rows(idx)

    def _score_rows(self, idx: np.ndarray) -> np.ndarray:
        if self.spec.metric != "custom":
            return self._finish(self._sums(idx))
        # custom: hand the resampled vectors to the user function row by row
        return np.array(
            [float(self.spec.fn(self._gold[row], self._pred[row])) for row in idx]
        )

    def _sums(self, idx: np.ndarray) -> list[np.ndarray]:
        """Each tally column's sum over every index row: one gather and one
        reduction per word, then integer columns unpacked from their lanes."""
        with np.errstate(over="ignore"):
            sums = [np.add.reduce(np.take(w, idx), axis=1) for w in self._words]
        if self._bits is None:
            return sums
        mask = (1 << self._bits) - 1
        lanes = [(s >> (self._bits * j)) & mask for s in sums for j in range(self._lanes)]
        return lanes[:self._ncols]

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
