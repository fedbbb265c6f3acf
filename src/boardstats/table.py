"""Core domain types: prediction tables, score specifications, bootstrap plans.

A PredictionTable holds the gold standard of a competition together with one
prediction column per submitted system.  Everything downstream (metrics,
resampling, inference, reports) consumes these types and treats them as
immutable.
"""

from __future__ import annotations

import numbers
import re
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import TableValidationError

HIGHER = "higher"
LOWER = "lower"
DIRECTIONS = (HIGHER, LOWER)

# how many classes a metric takes, by the words its errors use
NO_CLASS, ONE_CLASS, SOME_CLASSES = "no class", "exactly one class", "one or more classes"
_CLASS_COUNTS = {NO_CLASS: range(1), ONE_CLASS: range(1, 2), SOME_CLASSES: range(1, sys.maxsize)}

# what no system name may hold: a C0 control character, which would break a
# Markdown row or an SVG attribute, or a code point XML 1.0 forbids
_NOT_IN_NAME = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")

# each metric's (direction, capped_at_one, classes), stated here only; the
# custom entry holds the defaults that a custom metric's file may override
METRICS = {"accuracy": (HIGHER, True, NO_CLASS), "f1": (HIGHER, True, ONE_CLASS),
           "macro_f1": (HIGHER, True, SOME_CLASSES), "mae": (LOWER, False, NO_CLASS),
           "custom": (HIGHER, False, NO_CLASS)}


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


class _Labels(dict):
    """Raw text -> its label, shared by every column of one table: each
    distinct raw value is stripped once, and equal labels are one ``str``."""

    def __missing__(self, raw: str) -> str:
        label = raw.strip()
        label = self[raw] = self.setdefault(label, label)
        return label


def _as_label_array(values: Iterable, labels: _Labels) -> np.ndarray:
    """Labels are compared as exact strings after trimming surrounding
    whitespace; no case folding."""
    values = list(values)
    # keys must be text: as dict keys, 1, 1.0 and True are one key but three labels
    if not all(issubclass(t, str) for t in set(map(type, values))):
        values = list(map(str, values))
    arr = np.fromiter(map(labels.__getitem__, values), dtype=object, count=len(values))
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
            labels = _Labels()
            gold_arr = _as_label_array(gold, labels)
            sys_cols = {str(name): _as_label_array(col, labels) for name, col in systems.items()}
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

    for name in table.systems:
        if not name or not name.strip():
            out.append(Violation("system-name", "system name is empty", system=name))
        elif bad := _NOT_IN_NAME.search(name):
            why = f"system name holds U+{ord(bad.group()):04X}, a control or non-character"
            out.append(Violation("system-name", why, system=name))

    for name, col in table.systems.items():
        if len(col) != n:
            out.append(
                Violation(
                    "length",
                    f"prediction vector has length {len(col)}, expected {n}",
                    system=name,
                )
            )

    classification = table.task_kind is TaskKind.CLASSIFICATION
    columns = [(None, "gold label" if classification else "gold value", table.gold)]
    columns += [(name, "prediction", col) for name, col in table.systems.items()]
    if classification:
        for system, what, col in columns:
            for row in np.flatnonzero(np.asarray(col, dtype=object) == ""):
                out.append(Violation("missing", f"{what} is missing", system=system, row=int(row)))
    else:
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
    headroom statistic is only defined for those.  A metric's direction,
    cap and class count are its ``METRICS`` entry: ``direction`` and
    ``capped_at_one`` are filled in from it when left None, and only a
    custom metric may set its own.  Classes are trimmed, as table labels are;
    the classes of a metric that takes one or more hold no comma, so that
    ``parse_metric(spec.display_name) == spec`` for every built-in metric.
    """

    metric: str
    labels: tuple[str, ...] = ()
    direction: Optional[str] = None
    capped_at_one: Optional[bool] = None
    name: str = ""
    fn: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(c).strip() for c in self.labels))
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        direction, capped_at_one, classes = METRICS[self.metric]
        if self.direction is None:
            object.__setattr__(self, "direction", direction)
        if self.capped_at_one is None:
            object.__setattr__(self, "capped_at_one", capped_at_one)
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be {HIGHER!r} or {LOWER!r}")
        if len(self.labels) not in _CLASS_COUNTS[classes]:
            raise ValueError(f"{self.metric} takes {classes}, not {len(self.labels)}")
        for i, label in enumerate(self.labels):
            if not label:
                raise ValueError(f"{self.metric} classes must be non-empty")
            if classes == SOME_CLASSES and "," in label:
                raise ValueError(f"{self.metric} class {label!r} holds a comma, the class separator")
            if label in self.labels[:i]:
                raise ValueError(f"{self.metric} lists {label!r} more than once")
        if self.metric == "custom":
            if self.fn is None:
                raise ValueError("custom metric requires a scoring function")
        elif (self.direction, self.capped_at_one) != (direction, capped_at_one):
            raise ValueError(
                f"{self.metric} has direction {direction!r}, capped_at_one={capped_at_one}"
            )
        elif self.name or self.fn is not None:
            raise ValueError(f"{self.metric} is built in: it takes no name or scoring function")

    @property
    def display_name(self) -> str:
        """The custom name, or the metric text that ``parse_metric`` reads back."""
        if self.name:
            return self.name
        text = self.metric.replace("_", "-")
        return f"{text}:{','.join(self.labels)}" if self.labels else text

    @property
    def higher_is_better(self) -> bool:
        return self.direction == HIGHER


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
        check_field_types(self, ValueError)
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2 for percentile intervals")
        for name in ("confidence", "alpha"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


# per field annotation, the accepted types and the type a number is stored as
_FIELD_TYPES = {"str": (str, None), "int": (numbers.Integral, int), "float": (numbers.Real, float),
                "tuple[str, ...]": (tuple, None), "BootstrapPlan": (BootstrapPlan, None)}


def check_field_types(record, error: type[Exception]) -> None:
    """Raise ``error`` on the first field of ``record`` that its annotation does not
    accept (a bool is never a number); store numpy numbers as ``int`` or ``float``."""
    for f in fields(record):
        value = getattr(record, f.name)
        accepted, number = _FIELD_TYPES[f.type]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise error(f"{f.name} must be {f.type}, not {value!r}")
        if number is not None:
            object.__setattr__(record, f.name, number(value))
