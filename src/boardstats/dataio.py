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
import io
import json
from array import array
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .corrections import DEFAULT_POLICY, METHODS, POLICIES
from .errors import ConfigError, DataFormatError
from .report import CORRECTION_KEYS, GOLD_ALIAS
from .table import DIRECTIONS, HIGHER, BootstrapPlan, PredictionTable, ScoreSpec, TaskKind

FORMATS = ("json", "csv", "md", "svg")
TASKS = ("auto",) + tuple(kind.value for kind in TaskKind)
TABLE_PRECISION = 4
_CHUNK_ROWS = 256  # CSV rows held at once while a table is read

# accepted value types per RunConfig field annotation; a bool is never a number
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "tuple[str, ...]": tuple}


@dataclass(frozen=True)
class RunConfig:
    """Everything one analysis run depends on, and the one home of its
    defaults: the command line reads its own from here."""

    input: str
    gold_col: str = "y"
    metric: str = "accuracy"
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


def _regression_floats(
    parts: list[tuple[str, ...]], start: int, text_rows: list[int]
) -> list[array]:
    """The floats of one chunk's columns under ``task=regression``, a blank
    cell read as NaN.  ``text_rows[j]`` keeps the row of column j's first
    text cell (0 while it has none)."""
    floats = []
    for j, part in enumerate(parts):
        values = array("d")
        for k, cell in enumerate(part, start=start):
            try:
                values.append(float(cell))
            except ValueError:
                if cell.strip() and not text_rows[j]:
                    text_rows[j] = k
                values.append(float("nan"))
        floats.append(values)
    return floats


def _read_columns(
    path: Path, handle: TextIO, gold_col: str, kind: Optional[TaskKind]
) -> Optional[tuple[TaskKind, dict[str, Sequence]]]:
    """The task kind and the header-named columns of an open prediction CSV.

    Rows are read ``_CHUNK_ROWS`` at a time and transposed into columns;
    no list of all rows is kept.  Labels go through one dict that maps a
    cell to its first equal ``str``, so a column costs one reference per
    cell and the table one ``str`` per distinct label.  Numbers are parsed
    once, into float arrays, and their text is not kept: when ``kind`` is
    None (auto) and a text or blank cell turns up, the result is None and
    the caller reads the file again as labels.  Structural errors wait for
    the end of the file, so an unreadable byte anywhere outranks them.
    """
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    width = len(header)
    problem = _header_problem(header, gold_col)
    as_labels = kind is TaskKind.CLASSIFICATION
    columns = [[] if as_labels else array("d") for _ in header]
    shared: dict[str, str] = {}  # cell -> its first equal str in the table
    text_rows = [0] * width  # regression: first row of text per column
    rows = 0
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        start, rows = rows + 2, rows + len(chunk)
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
            if kind is None:
                return None
            floats = _regression_floats(parts, start, text_rows)
        for col, parsed in zip(columns, floats):
            col += parsed

    if not rows:
        raise DataFormatError(f"{path}: no data rows below the header")
    if problem:
        raise DataFormatError(f"{path}: {problem}")
    for name, k in zip(header, text_rows):
        if k:
            raise DataFormatError(f"{path}: column {name!r} mixes numbers and text (row {k})")
    return kind or TaskKind.REGRESSION, dict(zip(header, columns))


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
            read = _read_columns(path, handle, gold_col, kind)
            if read is None:  # auto detection met text: every cell is a label
                handle.seek(0)
                read = _read_columns(path, handle, gold_col, TaskKind.CLASSIFICATION)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not a readable UTF-8 CSV ({exc})") from exc
    kind, columns = read
    gold = columns.pop(gold_col)
    return PredictionTable.build(gold, columns, kind)


def load_custom_metric(path: str | Path) -> ScoreSpec:
    """Load a plugin metric from a Python file.

    The file must define ``score(gold, pred) -> float`` over two equal-length
    arrays.  Its optional constants ``NAME`` (a non-empty str, default the
    file's stem), ``DIRECTION`` ("higher", the default, or "lower") and
    ``CAPPED_AT_ONE`` (a bool, default False) alone set those of the spec.
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
    name = getattr(module, "NAME", path.stem)
    direction = getattr(module, "DIRECTION", HIGHER)
    capped_at_one = getattr(module, "CAPPED_AT_ONE", False)
    for constant, value, ok, wanted in (
        ("NAME", name, isinstance(name, str) and name != "", "a non-empty str"),
        ("DIRECTION", direction, direction in DIRECTIONS, " or ".join(map(repr, DIRECTIONS))),
        ("CAPPED_AT_ONE", capped_at_one, isinstance(capped_at_one, bool), "True or False"),
    ):
        if not ok:
            raise ConfigError(f"{path}: {constant} must be {wanted}, not {value!r}")
    return ScoreSpec.custom(name=name, fn=fn, direction=direction, capped_at_one=capped_at_one)


def parse_metric(text: str) -> ScoreSpec:
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
    return spec


def fmt_float(value: float) -> str:
    return f"{value:.{TABLE_PRECISION}f}"


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
