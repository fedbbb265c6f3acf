"""Counter-based random index generation for bootstrap resampling.

Indices are carved out of the raw Philox 4x64-10 word stream (numpy's Philox
bit generator) at a counter position that is a pure function of the replicate
id: replicate r owns the counter blocks [r * bpr, (r + 1) * bpr) of lane 0,
where bpr = ceil(n / 8).  Every block yields four 64-bit words and every word
two 32-bit draws, its low half ``w & 0xFFFFFFFF`` first and then its high half
``w >> 32``; draws past the n-th of a replicate are padding and unused.  There
is no sequential generator state shared between replicates, so any replicate
can be produced at any time, in any order, on any worker, bit-identically.

Draw x maps to index ``(x * n) >> 32`` (Lemire's multiply-shift).  To keep
indices exactly uniform on [0, n), a draw is rejected when the low 32 bits of
``x * n`` fall below ``2**32 mod n``; that threshold is 0 when n is a power of
two, and the rejection rate is below n / 2**32 otherwise.  Replicate r's
rejected slots are refilled in slot order from lane ``attempt`` (1, 2, ...),
starting at counter r * bpr, with one draw per slot, until none is rejected.
Draws are 32 bits, so n must be below 2**32.

Raw bit generator streams are frozen by numpy's stream-compatibility policy,
which makes the whole construction stable across versions; reports record the
generator family.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

RNG_FAMILY = "philox4x64-10/counter-u32-lemire"

_DRAWS_PER_BLOCK = 8
# position of the low 32 bits inside a native uint64 viewed as two uint32
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _blocks_per_replicate(n: int) -> int:
    return (n + _DRAWS_PER_BLOCK - 1) // _DRAWS_PER_BLOCK


def _raw_words(seed: int, counter_lo: int, lane: int, count: int) -> np.ndarray:
    bg = np.random.Philox(key=seed, counter=[counter_lo, 0, 0, lane])
    return bg.random_raw(count)


def _draws(seed: int, counter_lo: int, lane: int, count: int) -> np.ndarray:
    """The first ``count`` 32-bit draws from a lane, as little-endian uint32:
    each word's low half and then its high half, whatever the host order."""
    words = _raw_words(seed, counter_lo, lane, (count + 1) // 2)
    return words.astype("<u8", copy=False).view("<u4")[:count]


def index_block(seed: int, n: int, start: int, stop: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Resample index rows for replicates ``start`` .. ``stop - 1``.

    Returns a C-contiguous (stop - start, n) int64 matrix; row i holds the n
    uniform draws from [0, n) of replicate ``start + i``.  Given ``out``, a
    C-contiguous int64 array of n columns and at least ``stop - start`` rows,
    the block is written into ``out[:stop - start]``, which is returned, and
    the rows past it are left as they were; a worker that hands every block
    the same ``out`` keeps its block memory paged in.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if n >= 2**32:
        raise ValueError("sample size must be below 2**32")
    k = max(stop - start, 0)
    if out is None:
        out = np.empty((k, n), dtype=np.int64)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.int64 and out.ndim == 2
              and out.shape[1] == n and len(out) >= k and out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous int64 array of {n} columns and at least {k} rows"
        )
    if not k:
        return out[:0]
    bpr = _blocks_per_replicate(n)
    stride = bpr * _DRAWS_PER_BLOCK
    # The copy drops each replicate's padding draws, so the block is one
    # contiguous (k, n) array: gathers through a strided index array are
    # markedly slower.  x < 2**32 and n < 2**32, so x * n fits in 64 bits.
    product = out[:k].view(np.uint64)
    product[...] = _draws(seed, start * bpr, 0, k * stride).reshape(k, stride)[:, :n]
    product *= np.uint64(n)

    # A strided min over the low halves is the cheap test that nothing was
    # rejected, which holds for most blocks and always when n is a power of 2.
    # Only the rows holding a rejected draw are searched for its slots.
    threshold = 2**32 % n
    low = product.view(np.uint32)[:, _LOW_HALF::2]
    if threshold and low.min() < threshold:
        for row in np.flatnonzero(low.min(axis=1) < threshold).tolist():
            slots = np.flatnonzero(low[row] < threshold)
            _redraw(product, row, slots, seed, (start + row) * bpr, threshold)

    # Every index is below n < 2**32, so the uint64 bits read as the same int64.
    product >>= np.uint64(32)
    return out[:k]


def _redraw(product: np.ndarray, row: int, slots: np.ndarray, seed: int,
            counter_lo: int, threshold: int) -> None:
    """Refill one row's rejected ``slots`` (ascending) with accepted products,
    one draw per slot from lane 1, then lane 2 for those still rejected, ..."""
    n = np.uint64(product.shape[1])
    attempt = 0
    while slots.size:
        attempt += 1
        redraw = _draws(seed, counter_lo, attempt, slots.size).astype(np.uint64)
        redraw *= n
        keep = (redraw & np.uint64(0xFFFFFFFF)) >= threshold
        product[row, slots[keep]] = redraw[keep]
        slots = slots[~keep]
