"""Test-only helpers: scoring one resample, garbage-filled output buffers and
reading back markdown tables."""

import re
from pathlib import Path

import numpy as np

from boardstats.metrics import ResampleScorer
from boardstats.table import ScoreSpec


def score_on_indices(gold, pred, spec: ScoreSpec, indices) -> float:
    """Score of the resample ``gold[indices]`` vs ``pred[indices]``.

    Equivalent to ``score(gold[indices], pred[indices], spec)`` but avoids
    materializing the resampled outcome vectors.
    """
    scorer = ResampleScorer(np.asarray(gold), np.asarray(pred), spec)
    return float(scorer.scores(np.asarray(indices, dtype=np.int64))[0])


def garbage(shape, dtype) -> np.ndarray:
    """A C-contiguous array whose every byte is 0xFF (-1 as int64, NaN as
    float64), so a slot an ``out=`` writer skips cannot pass for a value."""
    buf = np.empty(shape, dtype=dtype)
    buf.view(np.uint8)[...] = 0xFF
    return buf


def read_md_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Parse back a markdown table written by ``write_md`` (for round trips).

    Cells are split on unescaped pipes only, and an escaped ``\\|`` reads
    back as ``|``.
    """
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("|")]
    cells = [
        [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in lines
    ]
    return cells[0], cells[2:]
