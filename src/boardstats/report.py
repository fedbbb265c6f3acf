"""Competition-level difficulty and tie statistics.

Assembles, for one competition, the panel of: test size, competitor count,
possible comparisons, statistical tie counts (with and without corrections),
winner-to-median gap, coefficient of variation of competitor scores, and the
improvement headroom left below the metric's cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import rng
from .bootstrap import QUANTILE_RULE, SamplingDistribution, distributions
from .corrections import DEFAULT_POLICY, METHODS, adjust_all, build_families
from .errors import ConfigError
from .inference import DifferenceMatrix, matrix_from_distributions
from .table import BootstrapPlan, PredictionTable, ScoreSpec

GOLD_ALIAS = "Gold_Standard"

CORRECTION_KEYS = ("none",) + METHODS


@dataclass(frozen=True)
class CompetitionReport:
    """The per-competition summary panel plus reproducibility provenance.

    ``cv`` is None when the mean competitor score is 0.  ``distributions``,
    ``matrix`` and ``adjusted`` carry what the panel was counted from under
    ``plan``: each competitor's sampling distribution, every ranked pair, and
    the adjusted p-values under every method of the pairs in the chosen family.
    """

    n: int
    m: int
    possible_comparisons: int
    ties_with_winner: dict[str, int]
    ties_all_pairs: Optional[dict[str, int]]
    win_med_gap: float
    cv: Optional[float]
    cv_comparable: bool
    ppi: Optional[float]
    metric: str
    direction: str
    family_policy: str
    plan: BootstrapPlan = field(repr=False)
    quantile_rule: ClassVar[str] = QUANTILE_RULE
    rng_family: ClassVar[str] = rng.RNG_FAMILY
    excluded_systems: tuple[str, ...] = ()
    ranking_ties: tuple[str, ...] = ()
    ranking: tuple[str, ...] = ()
    observed_scores: dict[str, float] = field(default_factory=dict)
    matrix: Optional[DifferenceMatrix] = field(default=None, repr=False)
    adjusted: dict[tuple[str, str], dict[str, float]] = field(
        default_factory=dict, repr=False
    )
    distributions: dict[str, SamplingDistribution] = field(
        default_factory=dict, repr=False, compare=False
    )

    def panel(self) -> dict:
        """The summary panel as report.json holds it: every field shown in
        the repr, plus the plan's ``alpha``."""
        shown = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return {**shown, "alpha": self.plan.alpha}

    def run_record(self) -> dict:
        """What the manifest records of the run: the panel fields that name
        the analysis, the quantile rule, the RNG family and every plan value
        but ``workers``, which changes no number."""
        named = ("n", "metric", "direction", "family_policy", "excluded_systems",
                 "quantile_rule", "rng_family")
        planned = ("alpha", "replicates", "seed", "confidence")
        return {**{name: getattr(self, name) for name in named},
                **{name: getattr(self.plan, name) for name in planned}}


def cv(scores: Sequence[float]) -> float:
    """Coefficient of variation in percent: 100 * s / mean, sample std (m-1).

    The scores are first scaled by a power of two that puts the largest
    magnitude in [0.5, 1): cv does not depend on scale, every step below is
    exact under such a scale, and so a sum or spread past the float maximum
    (MAE near 1.7e308) stays finite. Scores already in [0.5, 1) are not moved.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.size < 2:
        raise ValueError("cv needs at least 2 scores")
    arr = np.ldexp(arr, -np.frexp(np.abs(arr).max())[1])
    mean = arr.mean()
    if mean == 0.0:
        raise ValueError("cv undefined for zero mean")
    return float(100.0 * arr.std(ddof=1) / mean)


def ppi(winner_score: float, spec: ScoreSpec) -> Optional[float]:
    """Possible percentage improvement, 100 * (1 - winner score).

    Defined only for higher-is-better metrics capped at 1; returns None
    otherwise (e.g. mean absolute error).
    """
    if not (spec.capped_at_one and spec.higher_is_better):
        return None
    return float(100.0 * (1.0 - winner_score))


def win_med_gap(ranked_scores: Sequence[float]) -> float:
    """|winner - middle| with the middle at 1-based rank floor(m/2) + 1."""
    arr = np.asarray(ranked_scores, dtype=float)
    m = arr.size
    if m < 2:
        raise ValueError("need at least 2 ranked scores")
    mid = m // 2  # 0-based index of rank floor(m/2) + 1
    return float(abs(arr[0] - arr[mid]))


def tie_counts(
    raw_p: dict[tuple[str, str], float],
    adjusted: dict[tuple[str, str], dict[str, float]],
    winner: str,
    alpha: float,
) -> tuple[dict[str, int], dict[str, int]]:
    """Counts of the pairs of ``adjusted`` whose (adjusted) p-value is >= alpha.

    A comparison that cannot reject equal performance at level alpha is a
    statistical tie.  Returns (ties involving the winner, ties over all
    pairs), each keyed by correction: none plus every adjusted method.
    """
    with_winner = dict.fromkeys(CORRECTION_KEYS, 0)
    all_pairs = dict.fromkeys(CORRECTION_KEYS, 0)
    for pair in adjusted:
        involves_winner = winner in pair
        values = {"none": raw_p[pair], **adjusted[pair]}
        for method, p in values.items():
            if p >= alpha:
                all_pairs[method] += 1
                if involves_winner:
                    with_winner[method] += 1
    return with_winner, all_pairs


def build_report(
    table: PredictionTable,
    spec: ScoreSpec,
    plan: BootstrapPlan,
    family_policy: str = DEFAULT_POLICY,
    gold_alias: str = GOLD_ALIAS,
) -> CompetitionReport:
    """Select the competitors, bootstrap them once, rank, compare every pair
    once, correct each family once, and assemble the summary panel.

    A system whose name equals ``gold_alias`` is excluded from the competitor
    count, ranking, dispersion and every comparison; exclusion is by explicit
    name so a legitimately perfect competitor is never dropped by accident.
    With the vs_winner policy only winner pairs carry adjusted values, so the
    all-pairs tie counts are omitted (None).  Fewer than 2 competitors is a
    ``ConfigError``.
    """
    excluded = tuple(name for name in table.names if name == gold_alias)
    competitors = [name for name in table.names if name not in excluded]
    if len(competitors) < 2:
        raise ConfigError("need at least 2 competitors after gold-alias exclusion")

    dists = distributions(table, spec, plan, systems=competitors)
    observed = {name: d.observed for name, d in dists.items()}
    matrix = matrix_from_distributions(dists, spec, plan.confidence)
    ranked = list(matrix.systems)
    ranked_scores = [observed[name] for name in ranked]
    tally = Counter(ranked_scores)
    ties = tuple(name for name, score in zip(ranked, ranked_scores) if tally[score] > 1)

    raw = {(e.reference, e.competitor): e.p for e in matrix.entries.values()}
    adjusted = adjust_all(build_families(ranked, raw, policy=family_policy))
    with_winner, all_pairs = tie_counts(raw, adjusted, ranked[0], plan.alpha)
    if family_policy == "vs_winner":
        all_pairs = None

    try:
        cv_value = cv(ranked_scores)
    except ValueError:  # the mean is 0: there are at least 2 competitors
        cv_value = None
    ppi_value = ppi(ranked_scores[0], spec)
    m = len(competitors)
    return CompetitionReport(
        n=table.n,
        m=m,
        possible_comparisons=m * (m - 1) // 2,
        ties_with_winner=with_winner,
        ties_all_pairs=all_pairs,
        win_med_gap=win_med_gap(ranked_scores),
        cv=cv_value,
        cv_comparable=ppi_value is not None,
        ppi=ppi_value,
        metric=spec.display_name,
        direction=spec.direction,
        family_policy=family_policy,
        plan=plan,
        excluded_systems=excluded,
        ranking_ties=ties,
        ranking=tuple(ranked),
        observed_scores=observed,
        matrix=matrix,
        adjusted=adjusted,
        distributions=dists,
    )
