"""Core domain types: prediction tables, score specifications, bootstrap plans.

A PredictionTable holds the gold standard of a competition together with one
prediction column per submitted system.  Everything downstream (metrics,
resampling, inference, reports) consumes these types and treats them as
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import TableValidationError

HIGHER = "higher"
LOWER = "lower"

METRICS = ("accuracy", "f1", "macro_f1", "mae", "custom")


class TaskKind(str, Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to locate it."""

    kind: str
    message: str
    system: Optional[str] = None
    row: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.system is not None:
            where.append(f"system={self.system!r}")
        if self.row is not None:
            where.append(f"row={self.row}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"[{self.kind}] {self.message}{suffix}"


def _as_label_array(values: Iterable) -> np.ndarray:
    """Labels are compared as exact strings after trimming surrounding
    whitespace; no case folding."""
    arr = np.array([str(v).strip() for v in values], dtype=object)
    arr.flags.writeable = False
    return arr


def _as_float_array(values: Iterable) -> np.ndarray:
    arr = np.array(list(values), dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PredictionTable:
    """Gold-standard outcomes plus named per-system prediction vectors.

    Classification outcomes are strings, regression outcomes floats.  The
    label set is the union of distinct labels over gold and all prediction
    columns, ordered by first appearance in gold and then by first appearance
    across systems in column order.
    """

    task_kind: TaskKind
    gold: np.ndarray
    systems: dict[str, np.ndarray]

    @classmethod
    def build(
        cls,
        gold: Sequence,
        systems: Mapping[str, Sequence],
        task_kind: TaskKind | str = TaskKind.CLASSIFICATION,
    ) -> "PredictionTable":
        """Construct a table from raw columns, raising on any violation."""
        kind = TaskKind(task_kind)
        if kind is TaskKind.CLASSIFICATION:
            gold_arr = _as_label_array(gold)
            sys_cols = {str(name): _as_label_array(col) for name, col in systems.items()}
        else:
            gold_arr = _as_float_array(gold)
            sys_cols = {str(name): _as_float_array(col) for name, col in systems.items()}
        table = cls(task_kind=kind, gold=gold_arr, systems=sys_cols)
        violations = validate(table)
        if violations:
            raise TableValidationError(violations)
        return table

    @property
    def n(self) -> int:
        return len(self.gold)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.systems)

    @property
    def label_set(self) -> tuple[str, ...]:
        if self.task_kind is not TaskKind.CLASSIFICATION:
            return ()
        seen: dict[str, None] = dict.fromkeys(self.gold)
        for col in self.systems.values():
            seen.update(dict.fromkeys(col))
        return tuple(seen)


def validate(table: PredictionTable) -> list[Violation]:
    """Check every table invariant; returns an empty list for valid tables.

    Violations are data, not failures: a hand-assembled table with problems
    yields one entry per problem, each carrying row/system context.
    """
    out: list[Violation] = []
    n = len(table.gold)
    if n < 1:
        out.append(Violation("empty", "table must contain at least one row"))

    seen_names = set()
    for name in table.systems:
        if not name or not name.strip():
            out.append(Violation("system-name", "system name is empty", system=name))
        if name in seen_names:  # dict keys cannot collide; guards hand-built mappings
            out.append(Violation("system-name", "duplicate system name", system=name))
        seen_names.add(name)

    for name, col in table.systems.items():
        if len(col) != n:
            out.append(
                Violation(
                    "length",
                    f"prediction vector has length {len(col)}, expected {n}",
                    system=name,
                )
            )

    if table.task_kind is TaskKind.CLASSIFICATION:
        for row, value in enumerate(table.gold):
            if value == "":
                out.append(Violation("missing", "gold label is missing", row=row))
        for name, col in table.systems.items():
            for row, value in enumerate(col):
                if value == "":
                    out.append(
                        Violation("missing", "prediction is missing", system=name, row=row)
                    )
    else:
        columns = [(None, "gold value", table.gold)]
        columns += [(name, "prediction", col) for name, col in table.systems.items()]
        for system, what, col in columns:
            try:
                values = col.astype(float)
            except (TypeError, ValueError):
                out.append(Violation("type", "values are not numeric", system=system))
                continue
            for row in np.flatnonzero(np.isnan(values)):
                out.append(Violation("missing", f"{what} is NaN", system=system, row=int(row)))
            for row in np.flatnonzero(np.isinf(values)):
                out.append(
                    Violation("non-finite", f"{what} is {values[row]}", system=system, row=int(row))
                )

    return out


@dataclass(frozen=True)
class ScoreSpec:
    """Which metric to compute, over which classes, and which way is up.

    ``capped_at_one`` marks metrics whose ideal value is 1; the improvement
    headroom statistic is only defined for those.
    """

    metric: str
    labels: tuple[str, ...] = ()
    direction: str = HIGHER
    capped_at_one: bool = True
    name: str = ""
    fn: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.direction not in (HIGHER, LOWER):
            raise ValueError(f"direction must be {HIGHER!r} or {LOWER!r}")
        if self.metric in ("f1", "macro_f1") and not self.labels:
            raise ValueError(f"{self.metric} requires a non-empty label subset")
        if self.metric == "mae":
            if self.direction != LOWER:
                raise ValueError("mae is a lower-is-better metric")
            if self.capped_at_one:
                raise ValueError("mae has no upper cap of 1")
        if self.metric == "custom" and self.fn is None:
            raise ValueError("custom metric requires a scoring function")

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        if self.metric == "f1":
            return f"f1:{self.labels[0]}"
        if self.metric == "macro_f1":
            return "macro-f1:" + ",".join(self.labels)
        return self.metric

    @property
    def higher_is_better(self) -> bool:
        return self.direction == HIGHER

    @classmethod
    def accuracy(cls) -> "ScoreSpec":
        return cls(metric="accuracy")

    @classmethod
    def f1(cls, label: str) -> "ScoreSpec":
        return cls(metric="f1", labels=(str(label).strip(),))

    @classmethod
    def macro_f1(cls, labels: Iterable[str]) -> "ScoreSpec":
        return cls(metric="macro_f1", labels=tuple(str(c).strip() for c in labels))

    @classmethod
    def mae(cls) -> "ScoreSpec":
        return cls(metric="mae", direction=LOWER, capped_at_one=False)

    @classmethod
    def custom(
        cls,
        name: str,
        fn: Callable[[np.ndarray, np.ndarray], float],
        direction: str = HIGHER,
        capped_at_one: bool = False,
    ) -> "ScoreSpec":
        return cls(metric="custom", name=name, fn=fn, direction=direction,
                   capped_at_one=capped_at_one)


@dataclass(frozen=True)
class BootstrapPlan:
    """Replicate count, confidence level, master seed and tie threshold.

    ``workers`` is a hint for parallel evaluation; results are identical for
    any worker count.
    """

    replicates: int = 10_000
    confidence: float = 0.95
    seed: int = 0
    alpha: float = 0.05
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2 for percentile intervals")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
