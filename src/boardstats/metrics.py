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

The sums of one bootstrap are counted, as ``share_patterns`` plans once:
every scorer's columns are stacked side by side in one (bins, ΣW) matrix;
``shared_counts`` counts each block of resamples once, and ``shared_sums``
weighs the counts once for every scorer, ``counts @ columns``, in chunks of
rows or of columns that keep each BLAS product within ``_PRODUCT_MULADDS``
multiply-adds.  Each scorer then only finishes its own span of the sums.  A
row's pattern is its values in every column of the stack, and a resample's
sums depend only on how often it drew each of the G distinct patterns.  So
while G is at most n / ``_ROWS_PER_PATTERN``, a block is counted over
pattern ids into G bins and weighed against one stack row per pattern, and
otherwise over its rows into n bins.  Over patterns or rows, in any
chunking, BLAS blocking or thread count, the integer sums are the same, so
the bits are.

MAE's limbs are fixed point.  Each absolute error is truncated to a multiple
of 2**(top - 2b), where 2**top is the smallest power of two above the column
maximum and b = 53 - bit_length(n), and split into two integer limbs of b
bits each, so a limb's resampled sum stays below n 2**b <= 2**53.  Only
``custom`` metrics see the resampled vectors themselves.
"""

from __future__ import annotations

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


# Rows per distinct tally pattern from which shared counts are kept in
# pattern space.  There a resample's n indices are mapped to pattern ids and
# counted into G bins, and the products shrink from n to G rows.  Whole
# bootstraps (2-vCPU Xeon, numpy 2.4), pattern over row time, on accuracy,
# 2-class macro-F1 and MAE tables from n = 1000 to 50k: 0.75-1.01 at
# G = n/8, 0.79-1.01 at n/4, 0.88-1.17 at n/2 and 1.04-1.65 at G = n.
_ROWS_PER_PATTERN = 8

# Integers of magnitude up to 2**24 are exact in float32 (``_count_dtype``).
_FLOAT32_EXACT = 1 << 24

# Multiply-adds per count product, (rows x width) x columns, that
# ``shared_sums`` keeps each product within where it can.  OpenBLAS 0.3.31
# (numpy 2.4.6, 2-vCPU AVX-512 Xeon) runs a product of up to 10**6 on one
# thread and starts a second above that, which spins between blocks: four
# 4-class macro-F1 systems at n = 5000 used 1.9x their wall time in CPU.
# CPU over wall of 300 products between single-threaded sums, each shape in
# a fresh process after OpenBLAS's start-up spin: 1.00 for 12 x 1000 by 80
# and 10 x 1000 by 100 (960k, 10**6; float32 and float64 alike), against
# 1.9-2.0 for float32 13 x 1000 by 80 and 26 x 5000 by 8 (1.04M).
_PRODUCT_MULADDS = 10**6


class _Counting(NamedTuple):
    """How every block of one bootstrap is counted and weighed: into one
    bin per pattern ``ids`` names, or one per row where ``ids`` is None;
    against ``columns``, one (bins, ΣW) matrix of every scorer's columns
    side by side, of which ``spans`` holds each scorer's slice (None for a
    scorer without tally columns); in products of ``chunk`` = (rows,
    columns) of a block's counts and of ``columns``."""

    ids: Optional[np.ndarray]
    columns: np.ndarray
    spans: tuple
    chunk: tuple[int, int]

    @property
    def width(self) -> int:
        return self.columns.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.columns.dtype


def share_patterns(scorers, n: int, rows: int) -> Optional[_Counting]:
    """Decide how the blocks of at most ``rows`` resamples of one bootstrap
    are counted and weighed, or return None where no scorer has tally
    columns (``custom``) and there is nothing to count.

    A row's pattern is its values in every scorer's columns, and a
    resample's column sums depend only on how often it drew each of the G
    distinct patterns.  When G is at most n / ``_ROWS_PER_PATTERN``, the
    counts are per pattern, over the pattern id of each of the n rows, and
    the columns are stacked one row per pattern; otherwise they are per
    row, and stacked over the n rows.  The stack is in the one dtype that
    ``_count_dtype`` picks for all of them, and in the memory order that
    makes the columns of each product of ``_chunks`` one contiguous block:
    C order for chunks of rows, Fortran order for chunks of columns.  Where
    it holds the n rows in float64, each scorer's columns become its span.
    """
    scorers = list(scorers)
    columns = [scorer._columns for scorer in scorers if scorer._columns is not None]
    if not columns:
        return None
    dtype = _count_dtype(columns, n)
    found = _pattern_ids(
        (c[:, j] for c in columns for j in range(c.shape[1])), n, n // _ROWS_PER_PATTERN
    )
    ids, width = found or (None, n)
    total = sum(c.shape[1] for c in columns)
    chunk = _chunks(rows, width, total)
    # per block, medians of 300 interleaved calls: 131 x 1000 float64 counts
    # by 80 limbs took 0.43 ms in 12-row chunks of a C-order stack, 0.63 ms
    # of a Fortran-order one; 26 x 5000 float32 counts by 40 columns took
    # 0.28-0.30 ms in 7-column chunks of a C-order stack, 0.19-0.22 ms of a
    # Fortran-order one (one product per system: 0.87-0.94 and 0.22-0.25)
    stacked = np.empty((width, total), dtype, order="C" if chunk[1] == total else "F")
    spans, stop = [], 0
    for scorer in scorers:
        span = None
        if scorer._columns is not None:
            span = slice(stop, stop + scorer._columns.shape[1])
            stop = span.stop
            # a pattern's rows hold equal values, so any of them may land
            stacked[slice(None) if ids is None else ids, span] = scorer._columns
            if ids is None and dtype == np.float64:
                scorer._columns = stacked[:, span]  # the same values: keep one copy
        spans.append(span)
    return _Counting(ids, stacked, tuple(spans), chunk)


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


def shared_sums(counting: _Counting, counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``counts @ counting.columns``: every counting scorer's column sums
    over a block of k counted resamples, each scorer's in its span.

    ``out`` is a C-contiguous buffer of ΣW columns and at least k rows; the
    sums fill ``out[:k]``, which is returned.  The block is weighed in
    products of ``counting.chunk`` rows and columns, at most that many.
    """
    sums = out[:len(counts)]
    rows, columns = counting.chunk
    for i in range(0, len(counts), rows):
        for j in range(0, sums.shape[1], columns):
            np.matmul(
                counts[i:i + rows], counting.columns[:, j:j + columns],
                out=sums[i:i + rows, j:j + columns],
            )
    return sums


def _chunks(k: int, width: int, total: int) -> tuple[int, int]:
    """(rows, columns) of each product of a (k, width) count block by
    (width, total) columns: the whole block where it fits in
    ``_PRODUCT_MULADDS``, else chunks of rows or of columns, whichever packs
    fewer operand elements.

    BLAS packs both operands of every product.  Row chunks of r rows each
    pack every column once per chunk and each count once; column chunks of
    c columns each pack every count once per chunk and each column once.
    Chunks of one row would make matrix-vector products, which run slowest
    of all, and columns always pack fewer than they do.  A chunk of one
    column may pass the budget where nothing smaller can.

    A block of one row (n > 2**16) makes matrix-vector products, which
    OpenBLAS threads from fewer multiply-adds: (1, n) by (n, c) ran on one
    thread up to 440k and on two from 480k, float32 and float64 alike, and
    a float64 dot product (c = 1) on two from n = 333k or fewer.  So those
    take at most 2/5 of the budget, in chunks of at least 2 columns: 4 MAE
    systems at n = 200k are weighed 2 columns at a time.
    """
    if k == 1:
        return 1, min(total, max(2, _PRODUCT_MULADDS * 2 // 5 // width))
    if k * width * total <= _PRODUCT_MULADDS:
        return k, total
    rows = _PRODUCT_MULADDS // (width * total)
    columns = max(1, _PRODUCT_MULADDS // (k * width))
    by_rows = -(-k // max(rows, 1)) * width * total + k * width
    by_columns = -(-total // columns) * k * width + width * total
    return (rows, total) if rows and by_rows < by_columns else (k, columns)


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
    float64 matrix of integers (None for ``custom``).  No resampled label
    vector is materialized for a built-in metric.  ``scores`` accepts a
    (k, n) index matrix and the (k, W) column sums ``shared_sums`` gives the
    scorer, and returns k scores; row r equals the plain score of
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
        self._columns = None
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
                self._score_rows = lambda idx, sums: np.full(len(idx), mean)

    def _set_columns(self, columns: list[np.ndarray]) -> None:
        """Store integer tally columns as the (n, W) float64 ``_columns``."""
        self._columns = np.column_stack(columns).astype(np.float64)

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

    def scores(self, idx, sums=None) -> np.ndarray:
        """Score each row of a (k, n) index matrix.

        Built-in metrics finish ``sums``, the (k, W) span of ``shared_sums``
        that holds this scorer's column sums over the k resamples; the range
        check made while counting stands for this call, and one product
        serves every scorer of a block.  Sums of any other shape, or none,
        are a ``ValueError``.  From float32 or float64 counts, the integer
        sums are the same, so the bits are.  ``custom`` metrics score the
        resampled vectors and ignore ``sums``.
        """
        idx = _index_rows(idx)
        if self._columns is None:
            _check_range(idx, self.n)
        elif np.shape(sums) != (len(idx), self._columns.shape[1]):
            raise ValueError(
                f"sums of shape {np.shape(sums)} do not match "
                f"({len(idx)}, {self._columns.shape[1]})"
            )
        return self._score_rows(idx, sums)

    def _score_rows(self, idx: np.ndarray, sums) -> np.ndarray:
        if self.spec.metric != "custom":
            return self._finish(sums.T.astype(np.float64, copy=False))
        # custom: hand the resampled vectors to the user function row by row
        return np.array(
            [float(self.spec.fn(self._gold[row], self._pred[row])) for row in idx]
        )

    def observed(self) -> float:
        """Score of the original, unresampled data: the identity row.

        Built-in metrics finish the plain column sums, as exact as any
        resample's; this spares OpenBLAS a threaded 1 x n product.  Bypasses
        ``scores``, which takes resamples and checks their range; the
        identity row is neither.
        """
        if self._columns is not None:
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
