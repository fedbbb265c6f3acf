"""Synthetic competitions with known ground truth.

Each system's predictions are the gold standard with every element
independently replaced at a known rate (``generate``), so population scores
follow in closed form and confidence-interval coverage and null p-value
calibration can be measured against the truth (``calibrate``).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .bootstrap import distributions, percentile_ci
from .dataio import read_json_config
from .errors import ConfigError
from .inference import delta_from_distributions, p_value
from .table import BootstrapPlan, PredictionTable, ScoreSpec, TaskKind


@dataclass(frozen=True)
class LabelNoise:
    """Replace each gold label with probability ``rate`` by a kernel draw.

    ``kernel`` maps each gold label to a distribution over replacement
    labels; by default the replacement is uniform over the wrong labels, so
    the expected accuracy is exactly 1 - rate.
    """

    rate: float
    kernel: Optional[Mapping[str, Mapping[str, float]]] = None

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
    gold_mean: float = 0.0
    gold_sd: float = 1.0
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


def _kernel_row(noise: LabelNoise, labels: tuple[str, ...], gold_label: str) -> np.ndarray:
    if noise.kernel is None:
        probs = np.array([0.0 if c == gold_label else 1.0 for c in labels])
        return probs / probs.sum()
    row = noise.kernel[gold_label]
    probs = np.array([row.get(c, 0.0) for c in labels], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9 or probs.min() < 0:
        raise ValueError(f"kernel row for {gold_label!r} is not a distribution")
    return probs


def expected_score(config: SynthConfig, system: str) -> float:
    """Closed-form population score of one generated system.

    Expected accuracy for classification (1 - rate plus any kernel
    self-mass), expected mean absolute error for regression.
    """
    noise = config.systems[system]
    if config.task_kind is TaskKind.CLASSIFICATION:
        self_mass = 0.0
        for label, prob in zip(config.labels, config.label_probs):
            row = _kernel_row(noise, config.labels, label)
            self_mass += prob * row[config.labels.index(label)]
        return 1.0 - noise.rate + noise.rate * self_mass
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
                    probs = _kernel_row(noise, config.labels, label)
                    pred[mask] = sys_rng.choice(config.labels, size=cnt, p=probs)
            systems[name] = pred
        return PredictionTable.build(gold, systems, TaskKind.CLASSIFICATION)

    gold = gold_rng.normal(config.gold_mean, config.gold_sd, size=config.n)
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


def calibrate(
    config: SynthConfig,
    plan: BootstrapPlan,
    trials: int,
    spec: Optional[ScoreSpec] = None,
) -> CalibrationSummary:
    """Run the pipeline on fresh synthetic data per trial.

    Measures how often the first system's CI covers its closed-form
    population score and, when the first two systems share an identical
    corruption model, collects the fixed-orientation p-value of that null
    pair per trial.  Per-trial seeds derive from (master seed, trial index),
    so trials can run concurrently in any order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if spec is None:
        spec = (
            ScoreSpec.accuracy()
            if config.task_kind is TaskKind.CLASSIFICATION
            else ScoreSpec.mae()
        )
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
        trial_plan = dataclasses.replace(plan, seed=int(trial_seeds[1]))
        wanted = list(null_pair) if null_pair else [first]
        dists = distributions(table, spec, trial_plan, systems=wanted)
        ci = percentile_ci(dists[first], trial_plan.confidence)
        covered = ci.lci <= truth <= ci.uci
        observed_in = ci.lci <= dists[first].observed <= ci.uci
        p = None
        if null_pair:
            pd = delta_from_distributions(
                null_pair[0], null_pair[1], dists[null_pair[0]], dists[null_pair[1]],
                spec, reorient=False,
            )
            p = p_value(pd)
        return covered, observed_in, p

    if plan.workers > 1:
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(run_trial, range(trials)))
    else:
        results = [run_trial(t) for t in range(trials)]

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


def synth_config_from_json(path) -> SynthConfig:
    """Read a SynthConfig from a JSON file, same conventions as run configs.

    Systems map names to noise objects: ``{"kind": "label_noise", "rate":
    0.2, "kernel": {...}?}`` or ``{"kind": "value_noise", "rate": 0.5,
    "sd": 0.8}``; the kind may be omitted when it is implied by the fields.
    """
    path = Path(path)
    payload = read_json_config(path)
    systems = payload.get("systems") if isinstance(payload, dict) else None
    if not isinstance(systems, dict) or not all(isinstance(e, dict) for e in systems.values()):
        raise ConfigError(f"{path}: expected a JSON object with a 'systems' map of objects")

    def noise_from(entry) -> LabelNoise | ValueNoise:
        kind = entry.get("kind") or ("value_noise" if "sd" in entry else "label_noise")
        if kind == "label_noise":
            return LabelNoise(rate=entry["rate"], kernel=entry.get("kernel"))
        if kind == "value_noise":
            return ValueNoise(rate=entry["rate"], sd=entry["sd"])
        raise ConfigError(f"{path}: unknown noise kind {kind!r}")

    try:
        return SynthConfig(
            n=payload["n"],
            seed=payload.get("seed", 0),
            systems={name: noise_from(entry) for name, entry in systems.items()},
            labels=tuple(payload.get("labels", ())),
            label_probs=tuple(payload.get("label_probs", ())),
            gold_mean=payload.get("gold_mean", 0.0),
            gold_sd=payload.get("gold_sd", 1.0),
            task_kind=TaskKind(payload.get("task", "classification")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
