"""Test-only helpers: scoring one resample and reading back markdown tables."""

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


def read_md_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Parse back a markdown table written by ``write_md`` (for round trips)."""
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("|")]
    cells = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in lines
    ]
    return cells[0], cells[2:]
