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

from .bootstrap import CI, SamplingDistribution, distributions, percentile_rows
from .table import LOWER, BootstrapPlan, PredictionTable, ScoreSpec

# bytes of competitor values per pair-kernel call; bounds the matrix pass's memory
_PAIR_BLOCK_BYTES = 1 << 20

STAR_LEVELS = (
    (0.001, "***"),
    (0.01, "**"),
    (0.05, "*"),
    (0.1, "†"),
)


@dataclass(frozen=True)
class PairedDelta:
    """Per-replicate score differences of one system pair.

    ``delta_values[r]`` is the reference score minus the competitor score on
    replicate r's shared resample, sign-flipped for lower-is-better metrics so
    that positive always means the reference performed better.  ``reoriented``
    records that the caller's reference was observed worse and the pair was
    swapped.
    """

    reference: str
    competitor: str
    delta_values: np.ndarray
    observed_delta: float
    reoriented: bool = False

    def __post_init__(self):
        self.delta_values.flags.writeable = False


def _sign(spec: ScoreSpec) -> float:
    """+1 where higher scores are better, -1 where lower ones are."""
    return -1.0 if spec.direction == LOWER else 1.0


def _deltas(ref: SamplingDistribution, values, observed, spec: ScoreSpec):
    """Observed and per-replicate deltas of ``ref`` over competitor values and
    observed scores, signed so that positive means the reference did better."""
    sign = _sign(spec)
    return sign * (ref.observed - observed), sign * (ref.values - values)


def _p_values(values: np.ndarray, observed):
    """Per row of ``values``: the share of replicates (last axis) whose delta
    strictly exceeds twice ``observed``.  Identical systems (every delta 0)
    get 1, as equality can never be rejected for them."""
    observed = np.asarray(observed)
    p = np.count_nonzero(values > 2.0 * observed[..., None], axis=-1) / values.shape[-1]
    return np.where((observed == 0.0) & ~values.any(axis=-1), 1.0, p)


def _pair_kernel(ref: SamplingDistribution, comps: list, spec: ScoreSpec, confidence: float):
    """Compare ``ref`` with all of ``comps`` at once: arrays over ``comps`` of
    the signed observed deltas, the p-values and (lci, mean, uci)."""
    values, observed = np.stack([c.values for c in comps]), np.array([c.observed for c in comps])
    observed, deltas = _deltas(ref, values, observed, spec)
    return observed, _p_values(deltas, observed), percentile_rows(deltas, confidence)


def delta_from_distributions(
    reference: str,
    competitor: str,
    dist_ref: SamplingDistribution,
    dist_comp: SamplingDistribution,
    spec: ScoreSpec,
    reorient: bool = True,
) -> PairedDelta:
    """Pair two sampling distributions that share resample indices.

    With ``reorient`` (default) the observed winner becomes the reference and
    the swap is recorded; pass False to keep the caller's orientation, e.g.
    for calibration studies where the sign must stay fixed.
    """
    observed, values = _deltas(dist_ref, dist_comp.values, dist_comp.observed, spec)
    if reorient and observed < 0.0:
        return PairedDelta(
            reference=competitor,
            competitor=reference,
            delta_values=-values,
            observed_delta=-observed,
            reoriented=True,
        )
    return PairedDelta(
        reference=reference,
        competitor=competitor,
        delta_values=values,
        observed_delta=observed,
    )


def paired_difference(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
    reference: str,
    competitor: str,
    reorient: bool = True,
) -> PairedDelta:
    """Bootstrap the score difference of two systems with shared resamples."""
    names = [reference] if reference == competitor else [reference, competitor]
    dists = distributions(table, spec, plan, systems=names)
    return delta_from_distributions(
        reference, competitor, dists[reference], dists[competitor], spec,
        reorient=reorient,
    )


def difference_ci(pd: PairedDelta, confidence: float) -> CI:
    """Percentile CI of the difference distribution."""
    return CI(*map(float, percentile_rows(pd.delta_values, confidence)))


def p_value(pd: PairedDelta) -> float:
    """Fraction of replicates whose difference strictly exceeds 2x observed;
    1 for two systems with identical predictions."""
    return float(_p_values(pd.delta_values, pd.observed_delta))


def significance_stars(p: float) -> str:
    """Star marker for a p-value: *** < .001, ** < .01, * < .05, † < .1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    for threshold, marker in STAR_LEVELS:
        if p < threshold:
            return marker
    return ""


@dataclass(frozen=True)
class MatrixEntry:
    reference: str  # the better-ranked system (column)
    competitor: str  # the worse-ranked system (row)
    delta: float
    p: float
    stars: str
    ci: CI  # percentile CI of the difference distribution


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
    """Names sorted best-first; ties keep the dict's order."""
    sign = _sign(spec)
    return sorted(observed, key=lambda s: -sign * observed[s])


def matrix_from_distributions(
    dists: dict[str, SamplingDistribution],
    spec: ScoreSpec,
    confidence: float,
) -> DifferenceMatrix:
    """Difference matrix over precomputed per-system distributions; tied
    systems keep the order of ``dists``.

    The one pass over ranked pairs: ``_pair_kernel`` compares each reference
    rank with the systems below it, ``_PAIR_BLOCK_BYTES`` of their values at a
    time, so memory does not grow with the number of systems.
    """
    if len(dists) < 2:
        raise ValueError("need at least 2 systems for a difference matrix")
    ranked = rank_systems({name: d.observed for name, d in dists.items()}, spec)
    m = len(ranked)
    step = max(1, _PAIR_BLOCK_BYTES // max(dists[ranked[0]].values.nbytes, 1))
    entries = {}
    for j in range(m - 1):
        for start in range(j + 1, m, step):
            comps = [dists[name] for name in ranked[start:start + step]]
            delta, p, ci = _pair_kernel(dists[ranked[j]], comps, spec, confidence)
            for i, d, pi, *bounds in zip(range(start, m), *(a.tolist() for a in (delta, p, *ci))):
                entries[(i, j)] = MatrixEntry(
                    ranked[j], ranked[i], d, pi, significance_stars(pi), CI(*bounds)
                )
    return DifferenceMatrix(systems=tuple(ranked), entries=entries)


def difference_matrix(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
) -> DifferenceMatrix:
    """All pairwise deltas with significance markers, ranked best-first."""
    return matrix_from_distributions(distributions(table, spec, plan), spec, plan.confidence)
