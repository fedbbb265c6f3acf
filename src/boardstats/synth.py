"""Synthetic competitions with known ground truth.

Each system's predictions are the gold standard with every element
independently replaced at a known rate (``generate``), so population scores
follow in closed form and confidence-interval coverage and null p-value
calibration can be measured against the truth (``calibrate``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bootstrap import distributions, map_workers, percentile_ci
from .inference import delta_from_distributions
from .table import BootstrapPlan, PredictionTable, ScoreSpec, TaskKind


@dataclass(frozen=True)
class LabelNoise:
    """Replace each gold label with probability ``rate`` by a label drawn
    uniformly from the wrong labels, so the expected accuracy is exactly
    1 - rate."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("corruption rate must lie in [0, 1]")


@dataclass(frozen=True)
class ValueNoise:
    """Add N(0, sd) noise to each gold value with probability ``rate``."""

    rate: float
    sd: float

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("corruption rate must lie in [0, 1]")
        if self.sd < 0:
            raise ValueError("noise sd must be >= 0")


@dataclass(frozen=True)
class SynthConfig:
    """Blueprint of one synthetic competition."""

    n: int
    seed: int
    systems: dict[str, LabelNoise | ValueNoise]
    labels: tuple[str, ...] = ()
    label_probs: tuple[float, ...] = ()
    task_kind: TaskKind = TaskKind.CLASSIFICATION

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.task_kind is TaskKind.CLASSIFICATION:
            if len(self.labels) < 2:
                raise ValueError("classification needs at least 2 labels")
            if len(self.label_probs) != len(self.labels):
                raise ValueError("label_probs must match labels")
            if abs(sum(self.label_probs) - 1.0) > 1e-9 or min(self.label_probs) < 0:
                raise ValueError("label_probs must be a probability vector")


def _child_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


def _wrong_label_row(labels: tuple[str, ...], gold_label: str) -> np.ndarray:
    probs = np.array([0.0 if c == gold_label else 1.0 for c in labels])
    return probs / probs.sum()


def expected_score(config: SynthConfig, system: str) -> float:
    """Closed-form population score of one generated system: expected
    accuracy for classification, expected mean absolute error for regression.
    """
    noise = config.systems[system]
    if config.task_kind is TaskKind.CLASSIFICATION:
        return 1.0 - noise.rate
    return noise.rate * noise.sd * math.sqrt(2.0 / math.pi)


def generate(config: SynthConfig) -> PredictionTable:
    """Draw one competition table; deterministic in (config, seed)."""
    gold_rng = _child_rng(config.seed, 0)
    if config.task_kind is TaskKind.CLASSIFICATION:
        gold = gold_rng.choice(config.labels, size=config.n, p=config.label_probs)
        systems = {}
        for k, (name, noise) in enumerate(config.systems.items()):
            sys_rng = _child_rng(config.seed, 1 + k)
            pred = gold.copy()
            hit = sys_rng.random(config.n) < noise.rate
            for label in config.labels:
                mask = hit & (gold == label)
                cnt = int(mask.sum())
                if cnt:
                    probs = _wrong_label_row(config.labels, label)
                    pred[mask] = sys_rng.choice(config.labels, size=cnt, p=probs)
            systems[name] = pred
        return PredictionTable.build(gold, systems, TaskKind.CLASSIFICATION)

    gold = gold_rng.normal(0.0, 1.0, size=config.n)
    systems = {}
    for k, (name, noise) in enumerate(config.systems.items()):
        sys_rng = _child_rng(config.seed, 1 + k)
        pred = gold.copy()
        hit = sys_rng.random(config.n) < noise.rate
        pred[hit] += sys_rng.normal(0.0, noise.sd, size=int(hit.sum()))
        systems[name] = pred
    return PredictionTable.build(gold, systems, TaskKind.REGRESSION)


@dataclass(frozen=True)
class CalibrationSummary:
    """Outcome of a multi-trial calibration run."""

    trials: int
    coverage: float
    observed_in_ci: float
    p_values: Optional[np.ndarray]
    ks_distance: Optional[float]


def _ks_uniform(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(0, 1)."""
    x = np.sort(np.asarray(values, dtype=float))
    k = len(x)
    grid = np.arange(1, k + 1) / k
    return float(max(np.max(grid - x), np.max(x - (grid - 1 / k))))


def calibrate(config: SynthConfig, plan: BootstrapPlan, trials: int) -> CalibrationSummary:
    """Bootstrap fresh synthetic data per trial, scoring accuracy, or MAE
    for regression: the two metrics ``expected_score`` has in closed form.

    Each trial draws one table with ``generate`` and makes one
    ``distributions`` call over the first system, plus the second when the
    first two share an identical corruption model.  It measures how often
    the first system's CI covers its closed-form population score and, for
    that null pair, takes the p-value of one fixed-orientation pair
    (``delta_from_distributions``, first system as reference).  Per-trial
    seeds derive from (master seed, trial index), so trials can run
    concurrently in any order: ``plan.workers`` trials at a time, each
    bootstrapped on one thread.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = ScoreSpec(metric="accuracy" if config.task_kind is TaskKind.CLASSIFICATION else "mae")
    names = list(config.systems)
    first = names[0]
    truth = expected_score(config, first)
    null_pair = None
    if len(names) >= 2 and config.systems[names[0]] == config.systems[names[1]]:
        null_pair = (names[0], names[1])

    def run_trial(t: int) -> tuple[bool, bool, Optional[float]]:
        trial_seeds = np.random.SeedSequence((config.seed, 0xCA11, t)).generate_state(
            2, np.uint64
        )
        cfg = dataclasses.replace(config, seed=int(trial_seeds[0]))
        table = generate(cfg)
        trial_plan = dataclasses.replace(plan, seed=int(trial_seeds[1]), workers=1)
        wanted = list(null_pair) if null_pair else [first]
        dists = distributions(table, spec, trial_plan, systems=wanted)
        ci = percentile_ci(dists[first], trial_plan.confidence)
        covered = ci.lci <= truth <= ci.uci
        observed_in = ci.lci <= dists[first].observed <= ci.uci
        p = None
        if null_pair:
            p = delta_from_distributions(
                *null_pair, dists[null_pair[0]], dists[null_pair[1]], spec, trial_plan.confidence
            )[0].p
        return covered, observed_in, p

    results = map_workers(run_trial, range(trials), plan.workers)

    covered = np.array([r[0] for r in results])
    observed_in = np.array([r[1] for r in results])
    ps = np.array([r[2] for r in results], dtype=float) if null_pair else None
    return CalibrationSummary(
        trials=trials,
        coverage=float(covered.mean()),
        observed_in_ci=float(observed_in.mean()),
        p_values=ps,
        ks_distance=_ks_uniform(ps) if ps is not None else None,
    )

