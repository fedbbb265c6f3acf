"""CSV ingestion, metric parsing and canonical serialization.

Input layout: a UTF-8 CSV (a leading byte order mark is dropped) with a
header row; one column holds the gold standard (default name "y") and
every other column is one system's predictions, kept in file order.  Task
detection is deliberately dumb: a table is regression only when every
column parses as numbers end to end, and the caller can always override,
because a label that happens to look like a number must never be silently
coerced.

All writers are byte-deterministic: sorted JSON keys, fixed float
formatting in the table formats, no timestamps.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .corrections import DEFAULT_POLICY, METHODS, POLICIES
from .errors import ConfigError, DataFormatError
from .report import CORRECTION_KEYS, GOLD_ALIAS
from .table import DIRECTIONS, HIGHER, BootstrapPlan, PredictionTable, ScoreSpec, TaskKind

FORMATS = ("json", "csv", "md", "svg")
TASKS = ("auto",) + tuple(kind.value for kind in TaskKind)
TABLE_PRECISION = 4

# accepted value types per RunConfig field annotation; a bool is never a number
_FIELD_TYPES = {"str": str, "Optional[str]": (str, type(None)), "int": int,
                "float": (int, float), "tuple[str, ...]": tuple}


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on, and the one home of its
    defaults: the command line and JSON configs read theirs from here."""

    input: str
    gold_col: str = "y"
    metric: str = "accuracy"
    direction: Optional[str] = None
    samples: int = BootstrapPlan.replicates
    seed: int = BootstrapPlan.seed
    alpha: float = BootstrapPlan.alpha
    confidence: float = BootstrapPlan.confidence
    corrections: tuple[str, ...] = METHODS
    family: str = DEFAULT_POLICY
    gold_alias: str = GOLD_ALIAS
    out_dir: str = "boardstats-out"
    formats: tuple[str, ...] = FORMATS
    task: str = "auto"
    workers: int = BootstrapPlan.workers

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        for name in ("corrections", "formats"):
            items = getattr(self, name)
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{name} lists {item!r} more than once")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        for method in self.corrections:
            if method not in CORRECTION_KEYS:
                raise ConfigError(f"unknown correction {method!r}")
        if self.direction not in (None,) + DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.family not in POLICIES:
            raise ConfigError(f"unknown family policy {self.family!r}")


def comma_list(text: str) -> tuple[str, ...]:
    """The items of a comma-separated list, stripped, empty items dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_table(
    path: str | Path, gold_col: str = RunConfig.gold_col, task: str = RunConfig.task
) -> PredictionTable:
    """Read a prediction CSV into a table.

    The gold column becomes the gold standard; every other column becomes a
    system, in file order.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc

    if not rows:
        raise DataFormatError(f"{path}: no data rows below the header")
    header = [h.strip() for h in header]
    seen = set()
    for name in header:
        if name in seen:
            raise DataFormatError(f"{path}: duplicated column name {name!r}")
        seen.add(name)
    if gold_col not in header:
        raise DataFormatError(f"{path}: gold column {gold_col!r} not found")
    for k, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {k} has {len(row)} fields, header has {len(header)}"
            )

    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if task == "auto":
        all_numeric = all(
            all(_numeric(cell) for cell in col) for col in columns.values()
        )
        kind = TaskKind.REGRESSION if all_numeric else TaskKind.CLASSIFICATION
    else:
        kind = TaskKind(task)

    if kind is TaskKind.REGRESSION:
        for name, col in columns.items():
            for k, cell in enumerate(col, start=2):
                if cell.strip() and not _numeric(cell):
                    raise DataFormatError(
                        f"{path}: column {name!r} mixes numbers and text (row {k})"
                    )
        columns = {
            name: [float(c) if c.strip() else float("nan") for c in col]
            for name, col in columns.items()
        }

    gold = columns.pop(gold_col)
    return PredictionTable.build(gold, columns, kind)


def load_custom_metric(path: str | Path) -> ScoreSpec:
    """Load a plugin metric from a Python file.

    The file must define ``score(gold, pred) -> float`` over two equal-length
    arrays; optional module constants ``NAME``, ``DIRECTION`` ("higher" or
    "lower") and ``CAPPED_AT_ONE`` refine the spec.
    """
    path = Path(path)
    module_spec = importlib.util.spec_from_file_location(f"boardstats_metric_{path.stem}", path)
    if module_spec is None:
        raise ConfigError(f"cannot import custom metric {path}: not a .py file")
    try:
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
    except Exception as exc:  # whatever the user's file raises
        raise ConfigError(f"cannot import custom metric {path}: {type(exc).__name__}: {exc}") from exc
    fn = getattr(module, "score", None)
    if not callable(fn):
        raise ConfigError(f"{path} does not define a callable score(gold, pred)")
    return ScoreSpec.custom(
        name=getattr(module, "NAME", path.stem),
        fn=fn,
        direction=getattr(module, "DIRECTION", HIGHER),
        capped_at_one=bool(getattr(module, "CAPPED_AT_ONE", False)),
    )


def parse_metric(text: str, direction: Optional[str] = None) -> ScoreSpec:
    """Build a ScoreSpec from its command-line syntax.

    accuracy | f1:<class> | macro-f1:<c1,c2,...> | mae | custom:<path>
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "accuracy":
            spec = ScoreSpec.accuracy()
        elif kind == "f1":
            if not arg:
                raise ConfigError("f1 metric needs a class, e.g. f1:toxic")
            spec = ScoreSpec.f1(arg)
        elif kind in ("macro-f1", "macro_f1"):
            labels = comma_list(arg)
            if not labels:
                raise ConfigError("macro-f1 needs classes, e.g. macro-f1:favor,against")
            spec = ScoreSpec.macro_f1(labels)
        elif kind == "mae":
            spec = ScoreSpec.mae()
        elif kind == "custom":
            if not arg:
                raise ConfigError("custom metric needs a path, e.g. custom:metric.py")
            spec = load_custom_metric(arg)
        else:
            raise ConfigError(f"unknown metric {text!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if direction is not None and direction != spec.direction:
        if spec.metric == "custom":
            spec = replace(spec, direction=direction)
        else:
            raise ConfigError(
                f"direction {direction!r} conflicts with metric {spec.display_name!r}"
            )
    return spec


def read_json_config(path: Path):
    """Parse a UTF-8 JSON config file, with or without a leading byte order
    mark; undecodable or malformed text is a ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def run_config_from_json(path: str | Path) -> RunConfig:
    """Read a RunConfig from a JSON file keyed by the config field names.

    List-valued fields (corrections, formats) accept JSON arrays or comma
    strings; unknown keys are rejected so typos fail loudly.
    """
    path = Path(path)
    payload = read_json_config(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for key in ("corrections", "formats"):
        if isinstance(payload.get(key), str):
            payload[key] = comma_list(payload[key])
        elif isinstance(payload.get(key), list):
            payload[key] = tuple(payload[key])
    try:
        return RunConfig(**payload)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def fmt_float(value: float, precision: int = TABLE_PRECISION) -> str:
    return f"{value:.{precision}f}"


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as strict JSON: a NaN or infinity is a ValueError."""
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _md_row(cells: Sequence) -> str:
    """One table row; a ``|`` inside a cell is escaped so it stays in the cell."""
    return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"


def write_md(path: Path, title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [f"# {title}", "", _md_row(header)]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    lines.extend(_md_row(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
