"""Paired comparisons between systems.

Difference distributions come from subtracting two sampling distributions
that share resample indices replicate by replicate.  Significance follows the
paired-bootstrap argument: the difference distribution is centered at the
observed delta, so the p-value is the fraction of replicates whose difference
strictly exceeds twice the observed delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import CI, SamplingDistribution, percentile_rows
from .errors import MetricError
from .table import ScoreSpec

# bytes of the one delta buffer a matrix pass reuses for every pair-kernel
# call; bounds the pass's memory
_PAIR_BLOCK_BYTES = 1 << 20

STAR_LEVELS = (
    (0.001, "***"),
    (0.01, "**"),
    (0.05, "*"),
    (0.1, "†"),
)


@dataclass(frozen=True)
class MatrixEntry:
    """One compared pair: the reference's signed delta over the competitor
    (positive means the reference did better), its p-value and stars, and
    the percentile CI of its difference distribution.  In a matrix the
    reference is the better-ranked system (column), the competitor the
    worse-ranked one (row)."""

    reference: str
    competitor: str
    delta: float
    p: float
    stars: str
    ci: CI


def _deltas(ref: SamplingDistribution, comps: list, spec: ScoreSpec, out: np.ndarray):
    """Observed deltas of ``ref`` over each of ``comps``, and ``out``'s first
    len(comps) rows holding their per-replicate deltas, each written once;
    both signed so that positive means the reference did better.  A delta
    past the float maximum is inf, for the caller to reject."""
    rows = out[:len(comps)]
    with np.errstate(over="ignore"):
        for c, row in zip(comps, rows):
            np.subtract(ref.values, c.values, out=row)
        observed = ref.observed - np.array([c.observed for c in comps])
    if not spec.higher_is_better:
        # -(a - b), not b - a: where a == b the delta is -0.0, not +0.0
        np.negative(rows, out=rows)
        observed = -observed
    return observed, rows


def _check_replicates(reference: str, dist_ref: SamplingDistribution, dists: dict):
    """Raise a ValueError naming the first of ``dists`` whose replicate count
    differs from the reference's; mismatched values would broadcast."""
    for name, dist in dists.items():
        if dist.values.shape != dist_ref.values.shape:
            raise ValueError(
                f"{name!r} has {len(dist.values)} bootstrap values, but "
                f"{reference!r} has {len(dist_ref.values)}"
            )


def _p_values(values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per row of ``values``: the share of replicates (last axis) whose delta
    strictly exceeds twice ``observed``.  Identical systems (every delta 0)
    get 1, as equality can never be rejected for them."""
    with np.errstate(over="ignore"):  # twice a delta past half the float maximum is inf
        above = np.count_nonzero(values > 2.0 * observed[:, None], axis=-1)
    p = above / values.shape[-1]
    # identical systems tie exactly, so only rows of a 0.0 delta are read
    for r in np.flatnonzero(observed == 0.0):
        if not values[r].any():
            p[r] = 1.0
    return p


def _pair_kernel(
    reference: str,
    ref: SamplingDistribution,
    comps: dict[str, SamplingDistribution],
    spec: ScoreSpec,
    confidence: float,
    out: np.ndarray,
) -> list[MatrixEntry]:
    """Compare ``ref`` with every one of ``comps`` at once, their deltas
    written into ``out``'s first len(comps) rows: one entry per competitor,
    in the order of ``comps``.  The first pair whose observed delta or CI is
    not finite (a delta past the float maximum) is a ``MetricError``."""
    with np.errstate(invalid="ignore"):  # an inf delta and its CI, rejected below
        observed, deltas = _deltas(ref, list(comps.values()), spec, out)
        p = _p_values(deltas, observed)
        ci = percentile_rows(deltas, confidence)
    bad = np.flatnonzero(~np.isfinite([observed, *ci]).all(axis=0))
    if bad.size:
        pair = f"the {spec.display_name} difference of {reference!r} and {list(comps)[bad[0]]!r}"
        raise MetricError(f"{pair} or its CI is not finite")
    return [
        MatrixEntry(reference, name, d, pi, significance_stars(pi), CI(*bounds))
        for name, d, pi, *bounds in zip(comps, *(a.tolist() for a in (observed, p, *ci)))
    ]


def delta_from_distributions(
    reference: str,
    competitor: str,
    dist_ref: SamplingDistribution,
    dist_comp: SamplingDistribution,
    spec: ScoreSpec,
    confidence: float,
) -> tuple[MatrixEntry, np.ndarray]:
    """Compare two sampling distributions that share resample indices, in the
    caller's orientation (a reference observed worse gets a negative delta),
    through the matrix's own kernel: the pair's entry and its read-only row
    of per-replicate deltas.  A delta past the float maximum, observed or on
    any replicate, is a ``MetricError``.
    """
    _check_replicates(reference, dist_ref, {competitor: dist_comp})
    out = np.empty((1, len(dist_ref.values)))
    (entry,) = _pair_kernel(reference, dist_ref, {competitor: dist_comp}, spec, confidence, out)
    out.flags.writeable = False
    return entry, out[0]


def difference_ci(deltas: np.ndarray, confidence: float) -> CI:
    """Percentile CI of a row of per-replicate deltas."""
    return CI(*map(float, percentile_rows(deltas, confidence)))


def significance_stars(p: float) -> str:
    """Star marker for a p-value: *** < .001, ** < .01, * < .05, † < .1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    for threshold, marker in STAR_LEVELS:
        if p < threshold:
            return marker
    return ""


@dataclass(frozen=True)
class DifferenceMatrix:
    """Lower-triangular pairwise comparison of all systems, best first.

    ``entry(i, j)`` with j < i compares the rank-j system (column, reference)
    against the rank-i system (row, competitor).
    """

    systems: tuple[str, ...]
    entries: dict[tuple[int, int], MatrixEntry]

    def entry(self, i: int, j: int) -> MatrixEntry:
        return self.entries[(i, j)]


def rank_systems(observed: dict[str, float], spec: ScoreSpec) -> list[str]:
    """Names sorted best-first; ties keep the dict's order (a stable sort)."""
    return sorted(observed, key=observed.__getitem__, reverse=spec.higher_is_better)


def matrix_from_distributions(
    dists: dict[str, SamplingDistribution],
    spec: ScoreSpec,
    confidence: float,
) -> DifferenceMatrix:
    """Difference matrix over precomputed per-system distributions; tied
    systems keep the order of ``dists``.

    The one pass over ranked pairs: ``_pair_kernel`` compares each reference
    rank with the systems below it, as many at a time as fit (at least one)
    in one ``_PAIR_BLOCK_BYTES`` delta buffer that every call reuses, so
    memory does not grow with the number of systems.
    """
    if len(dists) < 2:
        raise ValueError("need at least 2 systems for a difference matrix")
    ranked = rank_systems({name: d.observed for name, d in dists.items()}, spec)
    _check_replicates(ranked[0], dists[ranked[0]], dists)
    m, replicates = len(ranked), len(dists[ranked[0]].values)
    step = max(1, _PAIR_BLOCK_BYTES // max(8 * replicates, 1))
    out = np.empty((min(step, m - 1), replicates))
    entries = {}
    for j in range(m - 1):
        for start in range(j + 1, m, step):
            comps = {name: dists[name] for name in ranked[start:start + step]}
            found = _pair_kernel(ranked[j], dists[ranked[j]], comps, spec, confidence, out)
            entries.update(((i, j), entry) for i, entry in enumerate(found, start))
    return DifferenceMatrix(systems=tuple(ranked), entries=entries)

