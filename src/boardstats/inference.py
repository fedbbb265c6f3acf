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
class PairedDelta:
    """Per-replicate score differences of one system pair.

    ``delta_values[r]`` is the reference score minus the competitor score on
    replicate r's shared resample, sign-flipped for lower-is-better metrics so
    that positive always means the reference performed better.
    """

    reference: str
    competitor: str
    delta_values: np.ndarray
    observed_delta: float

    def __post_init__(self):
        self.delta_values.flags.writeable = False


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


def _pair_not_finite(spec: ScoreSpec, reference: str, competitor: str) -> MetricError:
    pair = f"the {spec.display_name} difference of {reference!r} and {competitor!r}"
    return MetricError(f"{pair} or its CI is not finite")


def _check_replicates(reference: str, dist_ref: SamplingDistribution, dists: dict):
    """Raise a ValueError naming the first of ``dists`` whose replicate count
    differs from the reference's; mismatched values would broadcast."""
    for name, dist in dists.items():
        if dist.values.shape != dist_ref.values.shape:
            raise ValueError(
                f"{name!r} has {len(dist.values)} bootstrap values, but "
                f"{reference!r} has {len(dist_ref.values)}"
            )


def _p_values(values: np.ndarray, observed):
    """Per row of ``values``: the share of replicates (last axis) whose delta
    strictly exceeds twice ``observed``.  Identical systems (every delta 0)
    get 1, as equality can never be rejected for them."""
    observed = np.asarray(observed)
    with np.errstate(over="ignore"):  # twice a delta past half the float maximum is inf
        above = np.count_nonzero(values > 2.0 * observed[..., None], axis=-1)
    p = np.asarray(above / values.shape[-1])
    rows, flat = values.reshape(-1, values.shape[-1]), p.reshape(-1)
    # identical systems tie exactly, so only rows of a 0.0 delta are read
    for r in np.flatnonzero(observed.reshape(-1) == 0.0):
        if not rows[r].any():
            flat[r] = 1.0
    return p


def _pair_kernel(
    ref: SamplingDistribution, comps: list, spec: ScoreSpec, confidence: float, out: np.ndarray
):
    """Compare ``ref`` with all of ``comps`` at once, their deltas written into
    ``out``'s first len(comps) rows: arrays over ``comps`` of the signed
    observed deltas, the p-values and (lci, mean, uci)."""
    observed, deltas = _deltas(ref, comps, spec, out)
    return observed, _p_values(deltas, observed), percentile_rows(deltas, confidence)


def delta_from_distributions(
    reference: str,
    competitor: str,
    dist_ref: SamplingDistribution,
    dist_comp: SamplingDistribution,
    spec: ScoreSpec,
) -> PairedDelta:
    """Pair two sampling distributions that share resample indices, in the
    caller's orientation: a reference observed worse gets a negative delta.
    A delta past the float maximum, observed or on any replicate, is a
    ``MetricError``.
    """
    _check_replicates(reference, dist_ref, {competitor: dist_comp})
    observed, (values,) = _deltas(dist_ref, [dist_comp], spec, np.empty((1, len(dist_ref.values))))
    observed = float(observed[0])
    if not (np.isfinite(observed) and np.isfinite(values).all()):
        raise _pair_not_finite(spec, reference, competitor)
    return PairedDelta(
        reference=reference,
        competitor=competitor,
        delta_values=values,
        observed_delta=observed,
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
            comps = [dists[name] for name in ranked[start:start + step]]
            with np.errstate(invalid="ignore"):  # the CI of an inf delta row, rejected below
                delta, p, ci = _pair_kernel(dists[ranked[j]], comps, spec, confidence, out)
            bad = np.flatnonzero(~np.isfinite([delta, *ci]).all(axis=0))
            if bad.size:
                raise _pair_not_finite(spec, ranked[j], ranked[start + bad[0]])
            for i, d, pi, *bounds in zip(range(start, m), *(a.tolist() for a in (delta, p, *ci))):
                entries[(i, j)] = MatrixEntry(
                    ranked[j], ranked[i], d, pi, significance_stars(pi), CI(*bounds)
                )
    return DifferenceMatrix(systems=tuple(ranked), entries=entries)

