"""Workload definitions, seeded input generation and reference scorers.

The inputs are built here with plain numpy, not with ``boardstats.synth``,
so that refactoring the package's own generator cannot change a workload.
The reference scorers are independent re-implementations of the built-in
metrics; the benchmark checks every run's ``observed`` scores against them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STANCE_LABELS = ("favor", "none", "against")
STANCE_PROBS = (0.3, 0.4, 0.3)
STANCE_SUBSET = ("favor", "against")

ANALYSIS_SEED = 7  # seed of the analysis itself; the workload seed only shapes the data
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    """One CSV -> artifacts run: input shape, metric and replicate count."""

    name: str
    why: str
    n: int
    m: int
    replicates: int
    metric: str  # CLI syntax
    task: str  # "classification" or "regression"

    @property
    def cells(self) -> int:
        """Resampled prediction cells scored by one run: B * m * n."""
        return self.replicates * self.m * self.n

    def argv(self, csv_path: str, out_dir: str) -> list[str]:
        return [
            "--input", csv_path, "--metric", self.metric,
            "--samples", str(self.replicates), "--seed", str(ANALYSIS_SEED),
            "--workers", str(WORKERS), "--out-dir", out_dir,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shared-task",
            why="typical stance/NLI task: subset macro-F1 at B=10k, where resample scoring is almost all the work",
            n=5_000, m=10, replicates=10_000,
            metric="macro-f1:" + ",".join(STANCE_SUBSET), task="classification",
        ),
        Workload(
            name="large-test",
            why="n=50k accuracy: index generation and block memory dominate time and peak RSS",
            n=50_000, m=4, replicates=2_000,
            metric="accuracy", task="classification",
        ),
        Workload(
            name="many-systems",
            why="m=40 regression MAE: 780 ranked pairs and float parsing give the analysis layers their largest share",
            n=1_000, m=40, replicates=10_000,
            metric="mae", task="regression",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated columns (as the CSV encodes them) and the CSV text."""

    gold: np.ndarray
    systems: dict[str, np.ndarray]
    csv_text: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.csv_text.encode("utf-8")).hexdigest()

    def write(self, path: Path) -> None:
        path.write_text(self.csv_text, encoding="utf-8", newline="")


def generate(workload: Workload, seed: int) -> Inputs:
    """Build the workload's table from ``seed``; equal seeds give equal bytes."""
    rng = np.random.default_rng(seed)
    n, m = workload.n, workload.m
    names = [f"system_{j:02d}" for j in range(1, m + 1)]
    if workload.task == "classification":
        labels = np.array(STANCE_LABELS)
        gold_code = rng.choice(len(labels), size=n, p=STANCE_PROBS)
        # Skills close enough that several systems tie with the winner; the
        # permutation keeps the ranking from following column order.
        skills = rng.permutation(np.linspace(0.60, 0.70, m))
        gold = labels[gold_code]
        systems = {}
        for name, skill in zip(names, skills):
            wrong = rng.random(n) >= skill
            shift = rng.integers(1, len(labels), size=n)
            systems[name] = labels[np.where(wrong, (gold_code + shift) % len(labels), gold_code)]
    else:
        # Six decimals, so the CSV text and the arrays hold the same doubles.
        gold = _six_decimals(rng.normal(0.0, 1.0, n))
        noise = rng.permutation(np.linspace(0.80, 0.90, m))
        systems = {
            name: _six_decimals(gold + rng.normal(0.0, sd, n))
            for name, sd in zip(names, noise)
        }
    return Inputs(gold=gold, systems=systems, csv_text=_csv_text(gold, systems))


def _six_decimals(values: np.ndarray) -> np.ndarray:
    return np.array([f"{v:.6f}" for v in values]).astype(float)


def _csv_text(gold: np.ndarray, systems: dict[str, np.ndarray]) -> str:
    columns = [gold] + list(systems.values())
    if gold.dtype.kind == "f":
        columns = [[f"{v:.6f}" for v in col] for col in columns]
    lines = [",".join(["y"] + list(systems))]
    lines.extend(",".join(row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def reference_accuracy(gold, pred) -> float:
    return float(np.mean(np.asarray(gold) == np.asarray(pred)))


def reference_macro_f1(gold, pred, classes) -> float:
    """Mean F1 over ``classes``; a class with tp = fp = fn = 0 scores 0."""
    gold, pred = np.asarray(gold), np.asarray(pred)
    f1 = []
    for c in classes:
        g, p = gold == c, pred == c
        tp = int(np.sum(g & p))
        fp = int(np.sum(~g & p))
        fn = int(np.sum(g & ~p))
        denom = 2 * tp + fp + fn
        f1.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(f1))


def reference_mae(gold, pred) -> float:
    return float(np.mean(np.abs(np.asarray(gold, float) - np.asarray(pred, float))))


def reference_scores(workload: Workload, inputs: Inputs) -> dict[str, float]:
    """Observed score of every system under the workload's metric."""
    kind, _, arg = workload.metric.partition(":")
    if kind == "accuracy":
        fn = reference_accuracy
    elif kind == "macro-f1":
        classes = arg.split(",")
        fn = lambda g, p: reference_macro_f1(g, p, classes)  # noqa: E731
    elif kind == "mae":
        fn = reference_mae
    else:
        raise ValueError(f"no reference scorer for {workload.metric!r}")
    return {name: fn(inputs.gold, pred) for name, pred in inputs.systems.items()}
