"""Counter-addressed random index generation for bootstrap resampling.

Indices are carved out of the raw 64-bit word streams of numpy's PCG64DXSM
bit generator (O'Neill 2014).  Lane L is the stream of
``PCG64DXSM(SeedSequence(seed, spawn_key=(L,)))``: the lanes are spawned
children of one SeedSequence, each seeded independently.  Replicate r owns
the words [r * wpr, (r + 1) * wpr) of lane 0, where wpr = ceil(n / 2).  Every
word gives two 32-bit draws, its low half ``w & 0xFFFFFFFF`` first and then
its high half ``w >> 32``; when n is odd the last high half of a replicate is
padding and unused.  A call builds a fresh generator and moves it to its
first word with ``advance``, a jump of O(log offset) steps, so there is no
generator state shared between replicates or between threads: any replicate
can be produced at any time, in any order, on any worker, bit-identically.

Draw x maps to index ``(x * n) >> 32`` (Lemire's multiply-shift).  To keep
indices exactly uniform on [0, n), a draw is rejected when the low 32 bits of
``x * n`` fall below ``2**32 mod n``; that threshold is 0 when n is a power of
two, and the rejection rate is below n / 2**32 otherwise.  Replicate r's
rejected slots are refilled in slot order from lane ``attempt`` (1, 2, ...),
starting at word r * wpr, with one draw per slot, until none is rejected.
Draws are 32 bits, so n must be below 2**32.

Raw bit generator streams, ``SeedSequence`` and ``advance`` are frozen by
numpy's stream-compatibility policy, which makes the whole construction
stable across versions; reports record the generator family.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

RNG_FAMILY = "pcg64dxsm/advance-u32-lemire"

# position of the low 32 bits inside a native uint64 viewed as two uint32
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _raw_words(seed: int, offset: int, lane: int, count: int) -> np.ndarray:
    """Words ``offset`` .. ``offset + count - 1`` of a lane's stream."""
    bg = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(lane,)))
    bg.advance(offset)
    return bg.random_raw(count)


def _draws(seed: int, offset: int, lane: int, count: int) -> np.ndarray:
    """``count`` 32-bit draws from a lane, starting at word ``offset``, as
    little-endian uint32: each word's low half and then its high half,
    whatever the host order."""
    words = _raw_words(seed, offset, lane, (count + 1) // 2)
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
    wpr = (n + 1) // 2  # words per replicate
    stride = 2 * wpr
    # The copy drops the padding draw that ends each replicate of odd n, so
    # the block is one contiguous (k, n) array: gathers through a strided
    # index array are markedly slower.  x < 2**32 and n < 2**32, so x * n
    # fits in 64 bits.
    product = out[:k].view(np.uint64)
    product[...] = _draws(seed, start * wpr, 0, k * stride).reshape(k, stride)[:, :n]
    product *= np.uint64(n)

    # A strided min over the low halves is the cheap test that nothing was
    # rejected, which holds for most blocks and always when n is a power of 2.
    # Only the rows holding a rejected draw are searched for its slots.
    threshold = 2**32 % n
    low = product.view(np.uint32)[:, _LOW_HALF::2]
    if threshold and low.min() < threshold:
        for row in np.flatnonzero(low.min(axis=1) < threshold).tolist():
            slots = np.flatnonzero(low[row] < threshold)
            _redraw(product, row, slots, seed, (start + row) * wpr, threshold)

    # Every index is below n < 2**32, so the uint64 bits read as the same int64.
    product >>= np.uint64(32)
    return out[:k]


def _redraw(product: np.ndarray, row: int, slots: np.ndarray, seed: int,
            offset: int, threshold: int) -> None:
    """Refill one row's rejected ``slots`` (ascending) with accepted products,
    one draw per slot from lane 1, then lane 2 for those still rejected, ..."""
    n = np.uint64(product.shape[1])
    attempt = 0
    while slots.size:
        attempt += 1
        redraw = _draws(seed, offset, attempt, slots.size).astype(np.uint64)
        redraw *= n
        keep = (redraw & np.uint64(0xFFFFFFFF)) >= threshold
        product[row, slots[keep]] = redraw[keep]
        slots = slots[~keep]
