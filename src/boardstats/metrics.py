"""Performance scores of one prediction vector against the gold standard.

Supported metrics: accuracy, per-class F1, macro-averaged F1 over a declared
class subset, and mean absolute error.  Arbitrary metrics plug in through
``ScoreSpec.custom``.

The macro-F1 here averages F1 only over the declared subset.  Classes outside
the subset still contribute false positives and false negatives to the subset
classes but get no F1 term of their own.  A subset class with tp = fp = fn = 0
in a resample scores 0 and stays in the average.

Each built-in metric is a few per-row tally columns plus one finish step that
turns the columns' sums over a resample into the score.  A resample is a
multinomial count vector over the n rows, so an integer column's resampled
sum is the count-weighted sum of the column.  Integer columns share int64
words, one lane each.  A word's resampled sums come either from one gather
through the index rows or, given the block's (k, n) count matrix from
``resample_counts``, from one ``np.einsum`` with the counts; the lanes are
then unpacked.  Counting costs about two gathers, so it pays only when
several words share one count matrix.

MAE sums fixed-point limbs instead of floats.  Each absolute error is
truncated to a multiple of 2**(top - 2b), where 2**top is the smallest power
of two above the column maximum and b = 53 - bit_length(n), and split into two
integer-valued float64 limbs of b bits each.  A limb's resampled sum is an
exact integer below n 2**b <= 2**53, whether it is gathered or taken as one
float64 ``counts @ limbs`` product, so summation order, BLAS blocking and
thread count never change a bit (after Neal 2015, exact summation).  Only
``custom`` metrics see the resampled vectors themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MetricError
from .table import ScoreSpec

# Cells per bincount in ``resample_counts``.  A group's counters and offset
# indices (128 KiB each) stay in cache: on a 2-vCPU Xeon with 2 MiB of L2 per
# core, groups of 2**16 cells counted a 1 MiB block about 3x slower, and one
# bincount over the whole block 3-4x slower.  Grouping rows keeps tiny n from
# looping once per replicate (131072 rows per block at n = 1).
_COUNT_CELLS = 1 << 14


# Packed integer words, summed over the systems, from which a block's shared
# count matrix is built.  Per 1 MiB block on a 2-vCPU Xeon (numpy 2.4), from
# n = 100 to 50k: counting 0.40-0.62 ms, a gather 0.23-0.29 ms and an einsum
# 0.08-0.10 ms per word, so counting pays from 2.6-3.4 words on.  Counting or
# gathering gives the same integer sums, so the same values.
_COUNT_MIN_WORDS = 4


def shared_counts(scorers, idx, n: int):
    """The (k, n) resample counts of ``idx`` for every scorer of a block to
    share, or None when the scorers hold fewer than ``_COUNT_MIN_WORDS``
    packed words between them and each gathers through ``idx`` instead.

    The counts are ``resample_counts(idx, n)``, or float64 when every scorer
    is MAE, whose limb product reads float64 counts.
    """
    scorers = list(scorers)
    if sum(scorer.count_words for scorer in scorers) < _COUNT_MIN_WORDS:
        return None
    if all(scorer.spec.metric == "mae" for scorer in scorers):
        return _counts(idx, n, np.float64)
    return resample_counts(idx, n)


def resample_counts(idx, n: int) -> np.ndarray:
    """Multiplicity of each of the n data rows in every row of an index matrix.

    Returns a (k, n) int64 matrix whose row r is ``np.bincount(idx[r],
    minlength=n)``.  Each group of about ``_COUNT_CELLS`` cells is counted
    by one bincount, with row j of the group offset to the cells
    [j n, (j + 1) n).  An index outside [0, n) is a ``MetricError``.
    """
    return _counts(idx, n, np.int64)


def _counts(idx, n: int, dtype) -> np.ndarray:
    """``resample_counts``, written into a (k, n) matrix of ``dtype``."""
    idx = _index_rows(idx)
    _check_range(idx, n)
    counts = np.empty((len(idx), n), dtype=dtype)
    rows = max(1, _COUNT_CELLS // max(n, 1))
    for start in range(0, len(idx), rows):
        part = idx[start:start + rows]
        if len(part) > 1:
            part = part + n * np.arange(len(part))[:, None]
        counts[start:start + rows] = np.bincount(
            part.ravel(), minlength=len(part) * n
        ).reshape(-1, n)
    return counts


def _index_rows(idx) -> np.ndarray:
    idx = np.asarray(idx)
    return idx[None, :] if idx.ndim == 1 else idx


def _check_range(idx: np.ndarray, n: int) -> None:
    if idx.size:
        if idx.dtype == np.int64:
            # one pass: a negative index wraps to at least 2**63
            outside = idx.view(np.uint64).max() >= n
        else:
            outside = idx.min() < 0 or idx.max() >= n
        if outside:
            raise MetricError(f"resample index outside [0, {n})")


class ResampleScorer:
    """Evaluates one (gold, pred, spec) triple over batches of index rows.

    Precomputes the metric's per-row tally columns once, packing integer
    columns into int64 lane words, or MAE's column into fixed-point limbs;
    ``count_words`` is the scorer's share of ``_COUNT_MIN_WORDS`` (0 for
    ``custom``).  No resampled label vector is materialized.  ``scores``
    accepts a (k, n) index matrix and returns k scores; row r equals the
    plain score of ``gold[idx[r]]`` vs ``pred[idx[r]]``.
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
        self.count_words = 0
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
                abs_err = np.abs(gf - pf)
            if np.isfinite(abs_err).all():
                self._split_limbs(abs_err)
                self._finish = self._fixed_point_mean
            else:
                # No fixed-point form: every row scores the column's float
                # mean, inf or nan, which ``distributions`` reports as not
                # finite on the original data before it resamples.
                mean = np.add.reduce(abs_err) / self.n
                self._score_rows = lambda idx, counts: np.full(len(idx), mean)
        elif spec.metric != "custom":  # pragma: no cover - ScoreSpec rejects it
            raise MetricError(f"unknown metric {spec.metric!r}")

    def _pack(self, columns: list[np.ndarray], top: int) -> None:
        """Pack integer tally columns with entries in [0, top] into int64 words.

        Every column gets a lane of ``bits`` bits, enough for its largest
        resampled sum top * n, and a word holds 63 // bits lanes, so the sign
        bit stays clear.  No lane's sum carries into the next and no word's
        sum overflows, so one count-weighted sum per word yields every column
        sum exactly (SWAR: SIMD within a register).
        """
        self._bits = (top * self.n).bit_length()
        self._lanes = 63 // self._bits
        self._ncols = len(columns)
        self._words = [
            sum(col << (self._bits * j) for j, col in enumerate(columns[i:i + self._lanes]))
            for i in range(0, len(columns), self._lanes)
        ]
        self.count_words = len(self._words)
        # (lanes, 1): unpacking broadcasts (words, 1, k) sums to (words, lanes, k)
        self._shifts = self._bits * np.arange(min(self._lanes, self._ncols))[:, None]
        self._mask = (1 << self._bits) - 1

    def _split_limbs(self, column: np.ndarray) -> None:
        """Store a finite float column as (n, 2) fixed-point limbs.

        With b = 53 - bit_length(n) and 2**top the smallest power of two
        above the column maximum, each value v becomes the integer
        V = floor(v 2**(2b - top)) < 2**(2b), split into hi = V >> b and
        lo = V mod 2**b.  Both are exact float64 integers below 2**b, so any
        sum of n of them, or of their count-weighted products, is exact.
        """
        b = 53 - self.n.bit_length()
        top = math.frexp(column.max())[1]
        value = np.floor(np.ldexp(column, 2 * b - top))
        hi = np.floor(np.ldexp(value, -b))
        self._limbs = np.column_stack([hi, value - np.ldexp(hi, b)])
        # complex view, one (hi, lo) pair per row: both limbs in one gather
        self._pairs = self._limbs.view(np.complex128)[:, 0]
        self._limb_scale = (2.0 ** b, top - 2 * b)
        # MAE counts like one packed word, so from four systems on.  Over
        # 100 fresh 1 MiB blocks at n = 1000 and 5000 on a 2-vCPU Xeon:
        # counting into float64 0.9-1.3 ms, gathering a limb pair 0.29-0.46
        # ms and one product 0.08-0.11 ms per system.  Whole MAE bootstraps
        # gathered faster at m = 3, broke even at m = 4 and counted faster
        # at m = 6.
        self.count_words = 1

    def _fixed_point_mean(self, sums) -> np.ndarray:
        """ldexp((hi 2**b + lo) / n, top - 2b) from exact (hi, lo) limb sums.

        The limb sums combine with one rounding and divide with one more;
        dividing by n before scaling keeps a finite column's mean finite.
        """
        hi, lo = sums
        limb, exponent = self._limb_scale
        return np.ldexp((hi * limb + lo) / self.n, exponent)

    def _mean(self, sums) -> np.ndarray:
        return sums[0] / self.n

    def scores(self, idx, counts=None) -> np.ndarray:
        """Score each row of a (k, n) index matrix.

        With ``counts = resample_counts(idx, n)``, integer metrics read only
        the counts, one einsum per packed word, and MAE one product with its
        limbs (float64 counts, as ``shared_counts`` builds them for MAE,
        spare it a cast); the range check made by ``resample_counts`` stands
        for this call, and one count matrix can serve every scorer of a
        block.  Without counts, each word or limb pair is gathered through
        ``idx``.  ``custom`` metrics always gather and ignore ``counts``.
        Both ways give the same integer sums, so the same bits.
        """
        idx = _index_rows(idx)
        if not self.count_words or counts is None:
            _check_range(idx, self.n)
            counts = None
        elif np.shape(counts) != (len(idx), self.n):
            raise ValueError(
                f"counts of shape {np.shape(counts)} do not match "
                f"{len(idx)} resamples of {self.n} rows"
            )
        return self._score_rows(idx, counts)

    def _score_rows(self, idx: np.ndarray, counts) -> np.ndarray:
        if self.spec.metric != "custom":
            return self._finish(self._sums(idx, counts))
        # custom: hand the resampled vectors to the user function row by row
        return np.array(
            [float(self.spec.fn(self._gold[row], self._pred[row])) for row in idx]
        )

    def _sums(self, idx: np.ndarray, counts) -> np.ndarray | tuple[np.ndarray, ...]:
        """Each tally column's sum over every resample.

        Each word is gathered through ``idx`` and reduced, or, given the
        (k, n) counts, weighted by one einsum (numpy's own single-threaded
        integer loop).  Integer words then have every lane unpacked in one
        broadcast, giving a (columns, k) array.  MAE gives its (hi, lo) limb
        sums, from one gather of the limb pairs or one (k, n) x (n, 2)
        product; with k n 2 <= 2**18 per 1 MiB block, OpenBLAS runs the
        product on one thread.
        """
        if self.spec.metric == "mae":
            if counts is None:
                sums = np.add.reduce(np.take(self._pairs, idx), axis=1)
                return sums.real, sums.imag
            sums = counts @ self._limbs
            return sums[:, 0], sums[:, 1]
        if counts is None:
            words = np.array([np.add.reduce(np.take(w, idx), axis=1) for w in self._words])
        else:
            words = np.array([np.einsum("kn,n->k", counts, w) for w in self._words])
        lanes = (words[:, None, :] >> self._shifts) & self._mask
        return lanes.reshape(len(words) * len(self._shifts), len(idx))[:self._ncols]

    def observed(self) -> float:
        """Score of the original, unresampled data: the identity row.

        Bypasses ``scores``, which takes resamples and checks their range;
        the identity row is neither.
        """
        return float(self._score_rows(np.arange(self.n)[None], None)[0])


def _mean_f1(sums: np.ndarray) -> np.ndarray:
    """Mean over classes of 2 tp / (pred + gold) from (tp, pred + gold) sums.

    A class with pred + gold = 0 has tp = 0 and scores 0.  The mean runs
    over axis 0 of a (classes, k) array, adding class rows in order; numpy
    sums a contiguous last axis pairwise, which would change the bits.
    """
    tp, denom = sums[0::2], sums[1::2]
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
