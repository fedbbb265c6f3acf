"""Counter-based random index generation for bootstrap resampling.

Indices are carved out of the raw Philox 4x64-10 word stream (numpy's Philox
bit generator) at a counter position that is a pure function of the replicate
id: replicate r owns the counter blocks [r * bpr, (r + 1) * bpr) where
bpr = ceil(n / 4) and every block yields four 64-bit words.  There is no
sequential generator state shared between replicates, so any replicate can be
produced at any time, in any order, on any worker, bit-identically.

Each index consumes one 64-bit word, reduced modulo n after rejection
sampling (words at or above the largest multiple of n are redrawn from a
disjoint counter lane), so draws are exactly uniform on [0, n).  Raw bit
generator streams are frozen by numpy's stream-compatibility policy, which
makes the whole construction stable across versions; reports record the
generator family.
"""

from __future__ import annotations

import numpy as np

RNG_FAMILY = "philox4x64-10/counter"

_WORDS_PER_BLOCK = 4


def _blocks_per_replicate(n: int) -> int:
    return (n + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK


def _raw_words(seed: int, counter_lo: int, lane: int, count: int) -> np.ndarray:
    bg = np.random.Philox(key=seed, counter=[counter_lo, 0, 0, lane])
    return bg.random_raw(count)


def index_block(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Resample index rows for replicates ``start`` .. ``stop - 1``.

    Returns a (stop - start, n) int64 matrix; row i holds the n uniform
    draws from [0, n) of replicate ``start + i``.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if stop <= start:
        return np.empty((0, n), dtype=np.int64)
    k = stop - start
    bpr = _blocks_per_replicate(n)
    stride = bpr * _WORDS_PER_BLOCK
    words = _raw_words(seed, start * bpr, 0, k * stride)
    # Drop each replicate's padding words (fewer than four) by moving rows
    # down in place (numpy copies overlapping slices correctly), so the block
    # is one contiguous (k, n) array: gathers through a strided index array
    # are markedly slower.
    if stride != n:
        for row in range(1, k):
            words[row * n:(row + 1) * n] = words[row * stride:row * stride + n]
    words = words[:k * n].reshape(k, n)

    # Exact uniformity: redraw words that would bias the modulo.  The redraw
    # lane is disjoint from the main stream and keyed by (replicate, slot,
    # attempt); rejection probability is ~n / 2**64 per word.
    n_u = np.uint64(n)
    limit = np.uint64((2**64 // n) * n) if (2**64 % n) else None
    if limit is not None:
        bad = words >= limit
        attempt = 0
        while bad.any():
            attempt += 1
            for row, slot in zip(*np.nonzero(bad)):
                replicate = start + int(row)
                redraw = _raw_words(seed, replicate * 2**32 + int(slot), attempt, 1)[0]
                words[row, slot] = redraw
            bad = words >= limit

    # Every value is below n < 2**63, so the uint64 bits read as the same int64.
    np.remainder(words, n_u, out=words)
    return words.view(np.int64)
