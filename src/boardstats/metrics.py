"""Performance scores of one prediction vector against the gold standard.

Supported metrics: accuracy, per-class F1, macro-averaged F1 over a declared
class subset, and mean absolute error.  Arbitrary metrics plug in as a
``custom`` ScoreSpec with a scoring function.

The macro-F1 here averages F1 only over the declared subset.  Classes outside
the subset still contribute false positives and false negatives to the subset
classes but get no F1 term of their own.  A subset class with tp = fp = fn = 0
in a resample scores 0 and stays in the average.

Each built-in metric is a few per-row tally columns plus one finish step that
turns the columns' sums over a resample into the score.  A resample is a
multinomial count vector over the n rows, so a column's resampled sum is the
count-weighted sum of the column.  Every scorer stores its columns as one
(n, W) float64 matrix of integers: accuracy's ``correct`` (W = 1), F1's
``tp`` and ``pred + gold`` per class (W = 2 per class), and MAE's two
fixed-point limbs (W = 2).  Every resampled column sum is an integer below
2**53, so it is exact in float64 whatever the summation order (after Neal
2015, exact summation).  The sums come either from one gather per column
pair through the index rows or, given the block's (k, n) count matrix from
``resample_counts``, from ``counts @ columns`` (one BLAS product per
``_PRODUCT_COLUMNS`` columns); both ways, and any BLAS blocking or thread
count, give the same bits.  Counting costs a few
gathers, so it pays only when several column pairs share one count matrix.

MAE's limbs are fixed point.  Each absolute error is truncated to a multiple
of 2**(top - 2b), where 2**top is the smallest power of two above the column
maximum and b = 53 - bit_length(n), and split into two integer limbs of b
bits each, so a limb's resampled sum stays below n 2**b <= 2**53.  Only
``custom`` metrics see the resampled vectors themselves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import MetricError
from .rng import check_rows
from .table import ScoreSpec

# Cells per bincount in ``resample_counts``.  A group's counters and offset
# indices (128 KiB each) stay in cache: on a 2-vCPU Xeon with 2 MiB of L2 per
# core, groups of 2**16 cells counted a 1 MiB block about 3x slower, and one
# bincount over the whole block 3-4x slower.  Grouping rows keeps tiny n from
# looping once per replicate (131072 rows per block at n = 1).
_COUNT_CELLS = 1 << 14


# Column-pair gathers, summed over the systems, from which a block's shared
# count matrix is built.  Per 1 MiB block on a 2-vCPU Xeon (numpy 2.4), from
# n = 1000 to 50k: counting 0.41-0.61 ms, a pair gather 0.29-0.41 ms and a
# product 0.02-0.07 ms per system.  Yet whole bootstraps at n = 5000 (6
# alternating pairs) ran 1.83x slower for one 2-class macro-F1 system and
# 1.15x for three MAE systems with a threshold of 2 than with 4.  Counting
# or gathering gives the same integer sums, so the same values.
_COUNT_MIN_GATHERS = 4

# Columns per count product.  A 1 MiB block of n <= 2**17 rows holds at most
# 2**17 counts, so a product with 6 columns stays within the 10**6
# multiply-adds that OpenBLAS (0.3.31, AVX-512 Xeon) runs on one thread.
# With 8 it started a second thread, which spun between blocks: four 4-class
# macro-F1 systems at n = 5000 used 1.9x their wall time in CPU.
_PRODUCT_COLUMNS = 6


def shared_counts(scorers, idx, n: int, out=None):
    """``resample_counts(idx, n, out)`` for every scorer of a block to share,
    or None when the scorers need fewer than ``_COUNT_MIN_GATHERS`` gathers
    between them and each gathers through ``idx`` instead."""
    if sum(scorer.gathers for scorer in scorers) < _COUNT_MIN_GATHERS:
        return None
    return resample_counts(idx, n, out)


def resample_counts(idx, n: int, out=None) -> np.ndarray:
    """Multiplicity of each of the n data rows in every row of an index matrix.

    Returns a (k, n) float64 matrix of integers whose row r is
    ``np.bincount(idx[r], minlength=n)``.  Each group of about
    ``_COUNT_CELLS`` cells is counted by one bincount, with row j of the
    group offset to the cells [j n, (j + 1) n).  Given ``out``, a
    C-contiguous float64 array of n columns and at least k rows, the counts
    fill ``out[:k]``, which is returned.  An index outside [0, n) is a
    ``MetricError``.
    """
    idx = _index_rows(idx)
    _check_range(idx, n)
    if out is None:
        counts = np.empty((len(idx), n))
    else:
        check_rows(out, len(idx), n, np.float64)
        counts = out[:len(idx)]
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

    Precomputes the metric's per-row tally columns once, as one (n, W)
    float64 matrix of integers; ``gathers`` = ceil(W / 2) is the scorer's
    share of ``_COUNT_MIN_GATHERS`` (0 for ``custom``).  No resampled label
    vector is materialized.  ``scores`` accepts a (k, n) index matrix and
    returns k scores; row r equals the plain score of ``gold[idx[r]]`` vs
    ``pred[idx[r]]``.
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
        self.gathers = 0
        self._setup()

    def _setup(self):
        spec = self.spec
        gold, pred = self._gold, self._pred
        if spec.metric == "accuracy":
            self._set_columns([gold == pred])
            self._finish = self._mean
        elif spec.labels:  # f1 or macro-F1
            if _looks_numeric(gold):
                raise MetricError(f"{spec.metric} requires categorical outcomes")
            # For class c: F1 = 2*tp / (pred_count + gold_count), so two
            # integer tallies per class fully determine the resampled score.
            columns = []
            for c in spec.labels:
                g = (gold == c)
                p = (pred == c)
                columns += [g & p, p.astype(np.int64) + g]
            self._set_columns(columns)
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
                self._set_columns(self._limb_columns(abs_err))
                self._finish = self._fixed_point_mean
            else:
                # No fixed-point form: every row scores the column's float
                # mean, inf or nan, which ``distributions`` reports as not
                # finite on the original data before it resamples.
                mean = np.add.reduce(abs_err) / self.n
                self._score_rows = lambda idx, counts: np.full(len(idx), mean)

    def _set_columns(self, columns: list[np.ndarray]) -> None:
        """Store integer tally columns as the (n, W) float64 ``_columns``."""
        self._columns = np.column_stack(columns).astype(np.float64)
        self.gathers = -(-self._columns.shape[1] // 2)

    @functools.cached_property
    def _gathered(self) -> list[np.ndarray]:
        """What each gather reads: a lone column alone, or columns 2j and
        2j + 1 as one contiguous complex128 column.  Built on the first
        gather, so scorers on the count path hold no second copy."""
        if self._columns.shape[1] == 1:
            return [self._columns[:, 0]]
        return list(np.ascontiguousarray(self._columns.view(np.complex128).T))

    def _limb_columns(self, column: np.ndarray) -> list[np.ndarray]:
        """The (hi, lo) fixed-point limbs of a finite float column.

        With b = 53 - bit_length(n) and 2**top the smallest power of two
        above the column maximum, each value v becomes the integer
        V = floor(v 2**(2b - top)) < 2**(2b), split into hi = V >> b and
        lo = V mod 2**b, both exact float64 integers below 2**b.
        """
        b = 53 - self.n.bit_length()
        top = math.frexp(column.max())[1]
        value = np.floor(np.ldexp(column, 2 * b - top))
        hi = np.floor(np.ldexp(value, -b))
        self._limb_scale = (2.0 ** b, top - 2 * b)
        return [hi, value - np.ldexp(hi, b)]

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

        With ``counts = resample_counts(idx, n)``, built-in metrics read only
        the counts, by one product with the columns; the range check made by
        ``resample_counts`` stands for this call, and one count matrix can
        serve every scorer of a block.  Without counts, each column pair is
        gathered through ``idx``.  ``custom`` metrics always gather and
        ignore ``counts``.  Both ways give the same integer sums, so the
        same bits.
        """
        idx = _index_rows(idx)
        if not self.gathers or counts is None:
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

    def _sums(self, idx: np.ndarray, counts) -> np.ndarray:
        """The (W, k) sums of every tally column over every resample.

        Given the (k, n) counts, one product per ``_PRODUCT_COLUMNS``
        columns, written into one (k, W) matrix; otherwise one gather and
        reduction per entry of ``_gathered``, whose complex sums unfold into
        their two columns' rows.  Either way every partial sum is an exact
        integer.
        """
        if counts is not None:
            sums = np.empty((len(counts), self._columns.shape[1]))
            for j in range(0, sums.shape[1], _PRODUCT_COLUMNS):
                part = slice(j, j + _PRODUCT_COLUMNS)
                np.matmul(counts, self._columns[:, part], out=sums[:, part])
            return sums.T
        sums = np.array([np.add.reduce(np.take(col, idx), axis=1) for col in self._gathered])
        if sums.dtype == np.float64:
            return sums
        return np.stack([sums.real, sums.imag], axis=1).reshape(-1, len(idx))

    def observed(self) -> float:
        """Score of the original, unresampled data: the identity row.

        Built-in metrics finish the plain column sums, as exact as any
        resample's; this spares them a gather copy of ``_gathered`` and
        OpenBLAS a threaded 1 x n product.  Bypasses ``scores``, which takes
        resamples and checks their range; the identity row is neither.
        """
        if self.gathers:
            return float(self._finish(self._columns.sum(axis=0)[:, None])[0])
        return float(self._score_rows(np.arange(self.n)[None], None)[0])


def _mean_f1(sums: np.ndarray) -> np.ndarray:
    """Mean over classes of 2 tp / (pred + gold) from (tp, pred + gold) sums.

    A class with pred + gold = 0 has tp = 0 and scores 0.  The per-class
    scores are laid out in C order, so that the mean over axis 0 adds class
    rows in order whatever the layout of ``sums``; numpy sums a contiguous
    axis pairwise, which would change the bits.
    """
    tp, denom = sums[0::2], sums[1::2]
    return np.divide(2.0 * tp, np.maximum(denom, 1), order="C").mean(axis=0)


def _looks_numeric(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.number)


def score(gold, pred, spec: ScoreSpec) -> float:
    """Performance of ``pred`` against ``gold`` under ``spec``.

    accuracy = correct / n; F1 of class c = 2 tp / (2 tp + fp + fn);
    macro-F1 = mean of per-class F1 over the declared subset;
    mae = mean absolute error.
    """
    return ResampleScorer(np.asarray(gold), np.asarray(pred), spec).observed()
