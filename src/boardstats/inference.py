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

from .bootstrap import CI, SamplingDistribution, distributions, percentile_ci
from .table import LOWER, BootstrapPlan, PredictionTable, ScoreSpec

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
    sign = -1.0 if spec.direction == LOWER else 1.0
    observed = sign * (dist_ref.observed - dist_comp.observed)
    values = sign * (dist_ref.values - dist_comp.values)
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
    return percentile_ci(
        SamplingDistribution(values=pd.delta_values, observed=pd.observed_delta),
        confidence,
    )


def p_value(pd: PairedDelta) -> float:
    """Fraction of replicates whose difference strictly exceeds 2x observed."""
    count = int(np.sum(pd.delta_values > 2.0 * pd.observed_delta))
    return count / len(pd.delta_values)


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


def rank_systems(
    observed: dict[str, float], spec: ScoreSpec, order: tuple[str, ...]
) -> list[str]:
    """Names sorted best-first; ties keep the given (column) order."""
    sign = 1.0 if spec.higher_is_better else -1.0
    pos = {name: k for k, name in enumerate(order)}
    return sorted(observed, key=lambda s: (-sign * observed[s], pos[s]))


def comparison_p_value(pd: PairedDelta) -> float:
    """p-value for ranked comparisons, guarding the indistinguishable pair.

    When no replicate carries any evidence (every delta exactly zero and the
    observed delta zero, i.e. identical predictions) equality can never be
    rejected, so the comparison reports 1 instead of the degenerate 0 the
    literal exceedance count would give.
    """
    if pd.observed_delta == 0.0 and not pd.delta_values.any():
        return 1.0
    return p_value(pd)


def matrix_from_distributions(
    dists: dict[str, SamplingDistribution],
    spec: ScoreSpec,
    column_order: tuple[str, ...],
    confidence: float,
) -> DifferenceMatrix:
    """Difference matrix over precomputed per-system distributions.

    The one pass over ranked pairs: each pair's delta vector is built once,
    reduced to its observed delta, p-value, stars and CI, and dropped, so
    memory stays independent of the number of pairs.
    """
    if len(dists) < 2:
        raise ValueError("need at least 2 systems for a difference matrix")
    ranked = rank_systems(
        {name: d.observed for name, d in dists.items()}, spec, column_order
    )
    entries = {}
    for i in range(1, len(ranked)):
        for j in range(i):
            pd = delta_from_distributions(
                ranked[j], ranked[i], dists[ranked[j]], dists[ranked[i]], spec,
                reorient=False,
            )
            p = comparison_p_value(pd)
            entries[(i, j)] = MatrixEntry(
                reference=ranked[j],
                competitor=ranked[i],
                delta=pd.observed_delta,
                p=p,
                stars=significance_stars(p),
                ci=difference_ci(pd, confidence),
            )
    return DifferenceMatrix(systems=tuple(ranked), entries=entries)


def difference_matrix(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
) -> DifferenceMatrix:
    """All pairwise deltas with significance markers, ranked best-first."""
    if len(table.names) < 2:
        raise ValueError("need at least 2 systems for a difference matrix")
    return matrix_from_distributions(
        distributions(table, spec, plan), spec, table.names, plan.confidence
    )
