"""CSV ingestion, metric parsing and canonical serialization.

Input layout: a UTF-8 CSV (a leading byte order mark is dropped) with a
header row; one column holds the gold standard (default name "y") and
every other column is one system's predictions, kept in file order.  Task
detection is deliberately dumb: a table is regression only when every
column parses as numbers end to end, and the caller can always override,
because a label that happens to look like a number must never be silently
coerced.

All writers are byte-deterministic: sorted JSON keys, no timestamps, and
every float in CSV, Markdown or SVG text printed by ``fmt_float``: fixed
point below 1e16 in magnitude, exponent notation from there on.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .corrections import DEFAULT_POLICY, METHODS, POLICIES
from .errors import ConfigError, DataFormatError
from .report import CORRECTION_KEYS, GOLD_ALIAS
from .table import (DIRECTIONS, METRICS, NO_CLASS, ONE_CLASS, SOME_CLASSES, BootstrapPlan,
                    PredictionTable, ScoreSpec, TaskKind, check_field_types)

FORMATS = ("json", "csv", "md", "svg")
TASKS = ("auto",) + tuple(kind.value for kind in TaskKind)
# the metric text's forms: each built-in metric's name with the argument its
# class rule takes, then a custom metric's file
_CLASS_ARGS = {NO_CLASS: "", ONE_CLASS: ":<class>", SOME_CLASSES: ":<c1,c2,...>"}
METRIC_SYNTAX = " | ".join(name.replace("_", "-") + _CLASS_ARGS[classes]
                           for name, (_, _, classes) in METRICS.items() if name != "custom")
METRIC_SYNTAX += " | custom:<file.py>"
# from 1e16 up the integer part has 17 digits, beyond float64's precision, so
# fixed point would only add width and noise digits
_FIXED_POINT_BELOW = 1e16
_CHUNK_ROWS = 256  # CSV rows held at once while a table is read


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on, and the one home of its
    defaults but the ``plan``'s: the command line reads its own from both."""

    input: str
    gold_col: str = "y"
    metric: str = "accuracy"
    plan: BootstrapPlan = BootstrapPlan()
    corrections: tuple[str, ...] = METHODS
    family: str = DEFAULT_POLICY
    gold_alias: str = GOLD_ALIAS
    out_dir: str = "boardstats-out"
    formats: tuple[str, ...] = FORMATS
    task: str = "auto"

    def __post_init__(self):
        check_field_types(self, ConfigError)
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
        if self.family not in POLICIES:
            raise ConfigError(f"unknown family policy {self.family!r}")


def comma_list(text: str) -> tuple[str, ...]:
    """The items of a comma-separated list, stripped, empty items dropped."""
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _header_problem(header: list[str], gold_col: str) -> Optional[str]:
    """The first header fault, a duplicated name before a missing gold
    column, or None."""
    seen = set()
    for name in header:
        if name in seen:
            return f"duplicated column name {name!r}"
        seen.add(name)
    if gold_col not in header:
        return f"gold column {gold_col!r} not found"
    return None


def _read_columns(
    path: Path, handle: TextIO, gold_col: str, as_labels: bool
) -> Optional[dict[str, Sequence]]:
    """The header-named columns of an open prediction CSV, as labels or as
    floats.

    Rows are read ``_CHUNK_ROWS`` at a time and transposed into columns;
    no list of all rows is kept.  Labels go through one dict that maps a
    cell to its first equal ``str``, so a column costs one reference per
    cell and the table one ``str`` per distinct label.  Numbers are parsed
    once, into float arrays, and their text is not kept: when a text or
    blank cell turns up, the result is None and the caller reads the file
    again as labels.  Structural errors wait for the end of the file, so
    an unreadable byte anywhere outranks them.
    """
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    width = len(header)
    problem = _header_problem(header, gold_col)
    columns = [[] if as_labels else array("d") for _ in header]
    shared: dict[str, str] = {}  # cell -> its first equal str in the table
    rows = 0
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        start, rows = rows, rows + len(chunk)  # data rows count from 0, as Violation.row
        if problem:
            continue
        if set(map(len, chunk)) != {width}:
            k, row = next((k, r) for k, r in enumerate(chunk, start) if len(r) != width)
            problem = f"row {k} has {len(row)} fields, header has {width}"
            continue
        parts = list(zip(*chunk))
        if as_labels:
            for col, part in zip(columns, parts):
                col += map(shared.setdefault, part, part)
            continue
        try:
            floats = [array("d", map(float, part)) for part in parts]
        except ValueError:  # text or a blank cell
            return None
        for col, parsed in zip(columns, floats):
            col += parsed

    if not rows:
        raise DataFormatError(f"{path}: no data rows below the header")
    if problem:
        raise DataFormatError(f"{path}: {problem}")
    return dict(zip(header, columns))


def _regression_floats(path: Path, columns: dict[str, list]) -> dict[str, list]:
    """Label columns read as numbers under ``task=regression``: the first
    text cell, by column in header order, is an error, and a blank cell is
    NaN, which the table reports where it is."""
    floats = {}
    for name, col in columns.items():
        floats[name] = values = []
        for k, cell in enumerate(col):
            try:
                values.append(float(cell))
            except ValueError:
                if cell.strip():
                    raise DataFormatError(
                        f"{path}: column {name!r} mixes numbers and text (row {k})"
                    ) from None
                values.append(float("nan"))
    return floats


def load_table(
    path: str | Path, gold_col: str = RunConfig.gold_col, task: str = RunConfig.task
) -> PredictionTable:
    """Read a prediction CSV into a table.

    The gold column becomes the gold standard; every other column becomes a
    system, in file order.
    """
    path = Path(path)
    kind = None if task == "auto" else TaskKind(task)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            if not handle.seekable():  # a pipe: hold its text, which may be read twice
                handle = io.StringIO(handle.read(), newline="")
            columns = _read_columns(path, handle, gold_col, kind is TaskKind.CLASSIFICATION)
            if columns is None:  # a text or blank cell: every cell is a label
                handle.seek(0)
                columns = _read_columns(path, handle, gold_col, True)
                if kind is TaskKind.REGRESSION:
                    columns = _regression_floats(path, columns)
                kind = kind or TaskKind.CLASSIFICATION
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc
    gold = columns.pop(gold_col)
    return PredictionTable.build(gold, columns, kind or TaskKind.REGRESSION)


def load_custom_metric(path: str | Path) -> ScoreSpec:
    """Load a plugin metric from a Python file.

    The file must define ``score(gold, pred) -> float`` over two equal-length
    arrays.  Its optional constants ``NAME`` (a non-empty str, default the
    file's stem), ``DIRECTION`` ("higher" or "lower") and ``CAPPED_AT_ONE``
    (a bool) alone set those of the spec; left out, the last two take
    ``METRICS["custom"]``'s.  A name that ``parse_metric`` would read as a
    built-in metric (``accuracy``, ``Macro-F1:a``, a stem such as ``mae``)
    is a ``ConfigError``: the report records the name as the metric's text.
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
    given = {"name": path.stem}
    for constant, field, ok, wanted in (
        ("NAME", "name", lambda v: isinstance(v, str) and v != "", "a non-empty str"),
        ("DIRECTION", "direction", lambda v: v in DIRECTIONS, " or ".join(map(repr, DIRECTIONS))),
        ("CAPPED_AT_ONE", "capped_at_one", lambda v: isinstance(v, bool), "True or False"),
    ):
        if hasattr(module, constant):
            value = getattr(module, constant)
            if not ok(value):
                raise ConfigError(f"{path}: {constant} must be {wanted}, not {value!r}")
            given[field] = value
    kind = _metric_key(given["name"])
    if kind in METRICS and kind != "custom":
        source = "NAME" if hasattr(module, "NAME") else "the file stem, NAME's default,"
        raise ConfigError(
            f"{path}: {source} {given['name']!r} names the built-in metric {kind}; "
            "set NAME to another name"
        )
    return ScoreSpec(metric="custom", fn=fn, **given)


def parse_metric(text: str) -> ScoreSpec:
    """Build a ScoreSpec from its metric text, one of ``METRIC_SYNTAX``'s forms.

    The argument after the colon is split by the metric's class rule in
    ``METRICS``: a comma list for one or more classes, else the whole
    argument; how many classes a metric takes is ``ScoreSpec``'s to check.
    """
    kind, colon, arg = text.partition(":")
    kind = _metric_key(kind)
    if kind == "custom":
        if not arg:
            raise ConfigError("custom metric needs a path, e.g. custom:metric.py")
        return load_custom_metric(arg)
    if kind not in METRICS:
        raise ConfigError(f"unknown metric {text!r}")
    labels = comma_list(arg) if METRICS[kind][2] == SOME_CLASSES else (arg,) if colon else ()
    try:
        return ScoreSpec(metric=kind, labels=labels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _metric_key(text: str) -> str:
    """The ``METRICS`` key that metric text names before any colon."""
    return text.partition(":")[0].strip().lower().replace("-", "_")


def fmt_float(value: float, places: int) -> str:
    """``value`` as artifact text with ``places`` decimals, in fixed point below
    ``_FIXED_POINT_BELOW`` in magnitude and in exponent notation from there on."""
    kind = "f" if abs(value) < _FIXED_POINT_BELOW else "e"
    return f"{value:.{places}{kind}}"


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
