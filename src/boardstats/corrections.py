"""Multiple-comparison adjustment of p-value families.

Three step rules over a family of k simultaneous tests, all monotone and all
clipped to [0, 1]:

* bonferroni: k * p
* holm (step-down): running maximum of (k - i + 1) * p over ascending p
* bh (Benjamini-Hochberg, step-up): running minimum of (k / i) * p over
  descending p; controls the false discovery rate

Families are built from a ranking: either one family of winner-vs-rest, one
family per reference rank (each better system against everything below it),
or a single global family of all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

METHODS = ("bonferroni", "holm", "bh")
POLICIES = ("vs_winner", "per_reference", "global")
DEFAULT_POLICY = "per_reference"


@dataclass(frozen=True)
class PValueFamily:
    """An ordered set of simultaneous hypotheses with their raw p-values."""

    entries: tuple[tuple[Hashable, float], ...]

    def __post_init__(self):
        ids = [pair_id for pair_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("pair ids within a family must be unique")
        for pair_id, p in self.entries:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"raw p for {pair_id!r} outside [0, 1]")


def adjust(family: PValueFamily, method: str) -> dict[Hashable, float]:
    """Adjusted p-value per pair id under one correction method."""
    if method not in METHODS:
        raise ValueError(f"unknown correction method {method!r}")
    if not family.entries:
        raise ValueError("cannot adjust an empty family")
    ids = [pair_id for pair_id, _ in family.entries]
    p = np.array([raw for _, raw in family.entries], dtype=float)
    k = len(p)
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    if method == "bonferroni":
        adjusted = np.minimum(1.0, k * p)
        return dict(zip(ids, adjusted.tolist()))
    if method == "holm":
        steps = (k - np.arange(k)) * ranked
        adj_sorted = np.minimum(1.0, np.maximum.accumulate(steps))
    else:  # bh
        steps = (k / np.arange(1, k + 1)) * ranked
        adj_sorted = np.minimum(1.0, np.minimum.accumulate(steps[::-1])[::-1])
    adjusted = np.empty(k)
    adjusted[order] = adj_sorted
    return dict(zip(ids, adjusted.tolist()))


def adjust_all(families: Sequence[PValueFamily]) -> dict[Hashable, dict[str, float]]:
    """Adjusted p-values under every method in ``METHODS`` for every pair."""
    out: dict[Hashable, dict[str, float]] = {}
    for family in families:
        per_method = {m: adjust(family, m) for m in METHODS}
        for pair_id, _ in family.entries:
            out[pair_id] = {m: per_method[m][pair_id] for m in METHODS}
    return out


def build_families(
    ranked_systems: Sequence[str],
    pairwise_p: dict[tuple[str, str], float],
    policy: str,
) -> list[PValueFamily]:
    """Group the pairwise raw p-values into correction families.

    ``ranked_systems`` is best first; ``pairwise_p`` maps (reference,
    competitor) pairs, reference ranked above competitor.  Policies:

    * vs_winner: one family, the winner against each of the m - 1 others
    * per_reference: one family per rank i, that system against everything
      ranked below it (sizes m - 1, m - 2, ..., 1)
    * global: a single family of all m (m - 1) / 2 pairs
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown family policy {policy!r}")
    m = len(ranked_systems)
    if m < 2:
        raise ValueError("need at least 2 ranked systems")

    def entry(i: int, j: int) -> tuple[tuple[str, str], float]:
        pair = (ranked_systems[i], ranked_systems[j])
        return pair, pairwise_p[pair]

    if policy == "vs_winner":
        return [PValueFamily(tuple(entry(0, j) for j in range(1, m)))]
    if policy == "per_reference":
        return [
            PValueFamily(tuple(entry(i, j) for j in range(i + 1, m)))
            for i in range(m - 1)
        ]
    pairs = tuple(entry(i, j) for i in range(m - 1) for j in range(i + 1, m))
    return [PValueFamily(pairs)]
