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
2015, exact summation).  Shared counts, and the columns they weigh, are held
as float32 instead where n times the largest column magnitude is below 2**24
(``_count_dtype``): a resample draws n rows, so every product and partial
sum is then an integer below 2**24, exact in float32 as well, at half the
bytes.  Accuracy and F1 columns pass up to n = 2**23; MAE's limbs never do.

The sums of one bootstrap come one of two ways, decided once by
``share_patterns``.  Below ``_COUNT_MIN_GATHERS`` column-pair gathers
between its scorers, each gathers its column pairs through the index rows.
From there on, ``shared_counts`` counts each block of resamples once for
every scorer to share, and each scorer takes ``counts @ columns``, one BLAS
product per ``_PRODUCT_COLUMNS`` columns.  A row's pattern is its values in
every scorer's columns side by side, and a resample's sums depend only on
how often it drew each of the G distinct patterns.  So while G is at most
n / ``_ROWS_PER_PATTERN``, a block is counted over pattern ids into G bins,
weighed against each scorer's (G, W) pattern columns, and otherwise over
its rows into n bins.  Gathered or counted, over patterns or rows, in any
BLAS blocking or thread count, the integer sums are the same, so the bits
are.

MAE's limbs are fixed point.  Each absolute error is truncated to a multiple
of 2**(top - 2b), where 2**top is the smallest power of two above the column
maximum and b = 53 - bit_length(n), and split into two integer limbs of b
bits each, so a limb's resampled sum stays below n 2**b <= 2**53.  Only
``custom`` metrics see the resampled vectors themselves.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import MetricError
from .table import ScoreSpec

# Cells per bincount in ``_count_rows``.  A group's counters and offset
# indices (128 KiB each) stay in cache: on a 2-vCPU Xeon with 2 MiB of L2 per
# core, groups of 2**16 cells counted a 1 MiB block about 3x slower, and one
# bincount over the whole block 3-4x slower.  Grouping rows keeps tiny n from
# looping once per replicate (131072 rows per block at n = 1).
_COUNT_CELLS = 1 << 14


# Column-pair gathers, summed over the systems, from which each block is
# counted.  Whole bootstraps counted over gathered, B = 2000 (2-vCPU Xeon,
# numpy 2.4.6, one OpenBLAS thread, medians of 5 alternating in-process
# runs, twice): 1 gather: accuracy, m = 1, n = 50k, 1.53-1.60; MAE, m = 1,
# n = 5000, 1.24.  2 gathers: accuracy, m = 2, n = 50k, 1.00-1.03; 2-class
# macro-F1, m = 1, n = 5000, 0.92-0.93.  3 gathers: accuracy, m = 3,
# n = 50k, 0.79-0.81; f1, m = 3, n = 50k, 0.60-0.64; MAE, m = 3, n = 1000,
# 0.76-0.79.  Counting or gathering gives the same integer sums, so the
# same values.
_COUNT_MIN_GATHERS = 4

# Rows per distinct tally pattern from which shared counts are kept in
# pattern space.  There a resample's n indices are mapped to pattern ids and
# counted into G bins, and the products shrink from n to G rows.  Whole
# bootstraps (2-vCPU Xeon, numpy 2.4), pattern over row time, on accuracy,
# 2-class macro-F1 and MAE tables from n = 1000 to 50k: 0.75-1.01 at
# G = n/8, 0.79-1.01 at n/4, 0.88-1.17 at n/2 and 1.04-1.65 at G = n.
_ROWS_PER_PATTERN = 8

# Integers of magnitude up to 2**24 are exact in float32 (``_count_dtype``).
_FLOAT32_EXACT = 1 << 24

# Columns per count product.  A 1 MiB block of n <= 2**17 rows holds at most
# 2**17 counts, so a product with 6 columns stays within the 10**6
# multiply-adds that OpenBLAS (0.3.31, AVX-512 Xeon) runs on one thread.
# With 8 it started a second thread, which spun between blocks: four 4-class
# macro-F1 systems at n = 5000 used 1.9x their wall time in CPU.  float32
# products split alike (2 vCPUs, 300 products between single-threaded
# sums): CPU over wall 1.00 with 6 columns and 1.96 with 8 for 26 x 5000
# counts, 1.00 and 1.84 for 131 x 1000, and 1.00 with either for 2 x 50000.
_PRODUCT_COLUMNS = 6


class _Counting(NamedTuple):
    """How every block of one bootstrap is counted: into ``width`` bins of
    ``dtype`` per resample, one per pattern ``ids`` names, or one per row
    where ``ids`` is None."""

    ids: Optional[np.ndarray]
    width: int
    dtype: np.dtype


def share_patterns(scorers, n: int) -> Optional[_Counting]:
    """Decide how the blocks of one bootstrap are counted, or return None
    where its scorers need fewer than ``_COUNT_MIN_GATHERS`` gathers between
    them and gather instead.

    Every counting scorer gets the columns it weighs, in the one dtype that
    ``_count_dtype`` picks for all of them.  A row's pattern is its values
    in every scorer's tally columns side by side, and a resample's column
    sums depend only on how often it drew each of the G distinct patterns.
    When G is at most n / ``_ROWS_PER_PATTERN``, the counts are per pattern,
    over the pattern id of each of the n rows, and every scorer weighs a
    (G, W) copy of its columns, one row per pattern; otherwise they are per
    row, and it weighs its (n, W) columns.
    """
    scorers = [scorer for scorer in scorers if scorer.gathers]
    if sum(scorer.gathers for scorer in scorers) < _COUNT_MIN_GATHERS:
        return None
    columns = [scorer._columns for scorer in scorers]
    dtype = _count_dtype(columns, n)
    cap = n // _ROWS_PER_PATTERN
    # the first 2 cap + 1 rows hold no more patterns than all n do, and a
    # table with too many mostly shows it there, with a quarter of the
    # temporaries
    for rows in (min(2 * cap + 1, n), n):
        found = _pattern_ids((c[:rows, j] for c in columns for j in range(c.shape[1])), rows, cap)
        if found is None:
            break
    ids, width = found or (None, n)
    for scorer, column in zip(scorers, columns):
        if ids is None:
            scorer._counted_columns = column.astype(dtype, copy=False)
        else:
            # a pattern's rows hold equal values, so any of them may land
            scorer._counted_columns = np.empty((width, column.shape[1]), dtype)
            scorer._counted_columns[ids] = column
    return _Counting(ids, width, dtype)


def shared_counts(counting: _Counting, idx, n: int, out: np.ndarray) -> np.ndarray:
    """The counts of a block of resamples for every scorer to share.

    ``out`` is a buffer of ``counting.width`` columns, of its dtype, and of
    at least k rows; the counts of the k index rows fill ``out[:k]``, which
    is returned.  An index outside [0, n) is a ``MetricError``.
    """
    idx = _index_rows(idx)
    _check_range(idx, n)
    counts = out[:len(idx)]
    _count_rows(idx, counts, counting.ids)
    return counts


def _count_dtype(columns, n: int) -> np.dtype:
    """float32 where n times the largest magnitude in ``columns`` is below
    ``_FLOAT32_EXACT``, else float64.

    Resample counts sum to n, so every count, every count times a column
    value and every partial sum of those is then an integer below 2**24:
    exact in float32 in any BLAS order, blocking, FMA use or thread count.
    """
    top = max(float(np.abs(column).max()) for column in columns)
    return np.dtype(np.float32 if n * top < _FLOAT32_EXACT else np.float64)


def _pattern_ids(columns, n: int, cap: int):
    """(ids, G): the pattern id in [0, G) of each of n rows over the given
    columns, or None as soon as more than ``cap`` distinct patterns show.

    Each column appends its value's rank among its distinct values as one
    mixed-radix digit to a row code.  The code is renumbered densely
    whenever its radix passes ``cap``, so it stays below cap before a digit
    and below cap**2 after one, far from int64's limit.
    """
    code, radix = np.zeros(n, np.intp), 1
    for column in columns:
        digit, size = _ranked(column, int(column.max()) + 1)
        if size > cap:
            return None
        code *= size
        code += digit
        radix *= size
        if radix > cap:
            code, radix = _ranked(code, radix)
            if radix > cap:
                return None
    return _ranked(code, radix)


def _ranked(code: np.ndarray, radix: int):
    """(rank of each code among the distinct codes, their number), for n
    integer codes in [0, radix), as integers or integer-valued floats.

    Up to radix = 4n the codes present are marked in a table of radix flags
    rather than sorted.  numpy's sort kernels are not otherwise run on a
    classification table, and their first call maps 0.2-0.3 MB of code
    each: sorting raised shared-task's peak RSS by 0.5 MB.
    """
    if radix > 4 * len(code):
        # with counts asked for, np.unique sorts rather than hashing, which
        # would import numpy.ma (about 1 MB) on its first call
        distinct = np.unique(code, return_counts=True)[0]
        return np.searchsorted(distinct, code), len(distinct)
    code = code.astype(np.intp, copy=False)
    seen = np.zeros(radix, bool)
    seen[code] = True
    rank = np.cumsum(seen) - 1
    return rank[code], int(rank[-1]) + 1


def _count_rows(idx: np.ndarray, counts: np.ndarray, ids) -> None:
    """Set ``counts[r]`` to the bincount of ``idx[r]``, or of ``ids[idx[r]]``,
    over the w = ``counts.shape[1]`` bins.

    Each group of rows holding about ``_COUNT_CELLS`` indices and counters
    is counted by one bincount, with row j of the group offset to the bins
    [j w, (j + 1) w).
    """
    width = counts.shape[1]
    rows = max(1, _COUNT_CELLS // max(idx.shape[1], width, 1))
    for start in range(0, len(idx), rows):
        part = idx[start:start + rows]
        if ids is not None:
            part = np.take(ids, part)
        if len(part) > 1:
            part = part + width * np.arange(len(part))[:, None]
        counts[start:start + rows] = np.bincount(
            part.ravel(), minlength=len(part) * width
        ).reshape(-1, width)


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
    share of ``_COUNT_MIN_GATHERS`` (0 for ``custom``).  The columns that
    counts weigh are these, or those ``share_patterns`` gives the scorer.
    No resampled label vector is materialized.  ``scores`` accepts a (k, n)
    index matrix and returns k scores; row r equals the plain score of
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
        """Store integer tally columns as the (n, W) float64 ``_columns``,
        which counts weigh until ``share_patterns`` gives the scorer the
        columns to weigh instead: these (n, W) ones or (G, W) pattern
        columns, as float32 where every resampled sum is exact in it."""
        self._columns = np.column_stack(columns).astype(np.float64)
        self._counted_columns = self._columns
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

        With counts from ``shared_counts``, built-in metrics read only the
        counts, by one product with the columns; the range check made while
        counting stands for this call, and one count matrix serves every
        scorer of a block.  They have one column per row of the columns
        they weigh, pattern or data row; any other shape is a
        ``ValueError``.  Without counts, each column pair is gathered
        through ``idx``.  ``custom`` metrics always gather and ignore
        ``counts``.  Every way, with float32 or float64 counts, gives the
        same integer sums, so the same bits.
        """
        idx = _index_rows(idx)
        if not self.gathers or counts is None:
            _check_range(idx, self.n)
            counts = None
        elif np.shape(counts) != (len(idx), len(self._counted_columns)):
            raise ValueError(
                f"counts of shape {np.shape(counts)} do not match "
                f"({len(idx)}, {len(self._counted_columns)})"
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

        Given counts, one product per ``_PRODUCT_COLUMNS`` of the columns
        they weigh, written into one (k, W) matrix, in float32 only where
        counts and columns both are, and then made float64; otherwise one
        gather and reduction per entry of ``_gathered``, whose complex sums
        unfold into their two columns' rows.  Either way every partial sum is
        an exact integer, and so is the float64 result.
        """
        if counts is not None:
            dtype = np.result_type(counts, self._counted_columns)
            sums = np.empty((len(counts), self._columns.shape[1]), dtype)
            for j in range(0, sums.shape[1], _PRODUCT_COLUMNS):
                part = slice(j, j + _PRODUCT_COLUMNS)
                np.matmul(counts, self._counted_columns[:, part], out=sums[:, part])
            return sums.T.astype(np.float64, copy=False)
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
