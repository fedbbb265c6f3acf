import csv
import os
import threading

import numpy as np
import pytest

from boardstats.dataio import (
    RunConfig,
    _read_columns,
    fmt_float,
    load_table,
    parse_metric,
    write_csv,
    write_md,
)
from boardstats.errors import ConfigError, DataFormatError, TableValidationError
from boardstats.table import METRICS, NO_CLASS, ONE_CLASS, SOME_CLASSES, ScoreSpec, TaskKind
from helpers import read_md_table


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_basic_load(tmp_path):
    p = write(tmp_path, "y,A,B\nx,x,y\ny,y,y\nx,x,x\nz,z,y\n")
    table = load_table(p)
    assert table.n == 4
    assert table.names == ("A", "B")
    assert table.task_kind is TaskKind.CLASSIFICATION
    assert list(table.gold) == ["x", "y", "x", "z"]


def test_system_column_order_is_file_order(tmp_path):
    p = write(tmp_path, "sysZ,y,sysA\na,a,b\nb,b,b\n")
    table = load_table(p)
    assert table.names == ("sysZ", "sysA")


def test_unicode_system_names(tmp_path):
    header = "y,baseline,temu_bsc,UC3M-DEEPNLP,FRSCIC,Abu,Thang CIC,Tü Par\n"
    row = "p,p,n,p,p,n,p,p\n"
    p = write(tmp_path, header + row * 5)
    table = load_table(p)
    assert table.names == (
        "baseline", "temu_bsc", "UC3M-DEEPNLP", "FRSCIC", "Abu", "Thang CIC", "Tü Par"
    )


def test_duplicate_column_is_named_in_error(tmp_path):
    p = write(tmp_path, "y,A,A\nx,x,x\n")
    with pytest.raises(DataFormatError, match="'A'"):
        load_table(p)


def test_missing_gold_column(tmp_path):
    p = write(tmp_path, "label,A\nx,x\n")
    with pytest.raises(DataFormatError, match="'y'"):
        load_table(p)
    table = load_table(p, gold_col="label")
    assert table.names == ("A",)


def test_ragged_row(tmp_path):
    # a ragged record and a missing cell on the same data row get one number,
    # its 0-based index below the header
    p = write(tmp_path, "y,A\nx,x\nx\n")
    with pytest.raises(DataFormatError, match="row 1 has 1 fields"):
        load_table(p)
    p = write(tmp_path, "y,A\nx,x\nx,\n", name="missing.csv")
    with pytest.raises(TableValidationError) as err:
        load_table(p)
    assert [v.row for v in err.value.violations] == [1]


def test_empty_inputs(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_table(write(tmp_path, ""))
    with pytest.raises(DataFormatError, match="no data rows"):
        load_table(write(tmp_path, "y,A\n", name="headeronly.csv"))


@pytest.mark.parametrize(
    "content, message",
    [
        (b"y,A", "no data rows"),
        (b"y,A,A\n", "no data rows"),
        # undecodable bytes beyond the first 8 KiB decode chunk still outrank
        # an earlier ragged row: the whole file is read before rows are checked
        (b"y,A\nx,x\nx\n" + b"x,x\n" * 4096 + b"x,\xff\n", "not a readable UTF-8 CSV"),
        (b"y,A\nx,x\n" + b"x,x\n" * 4096 + b"x," + b"a" * 200_000 + b"\n",
         "not a readable UTF-8 CSV"),
        (b"y,A,A\nx,x\nx\n", "duplicated column name 'A'"),
        (b"label,A\nx,x\nx\n", "gold column 'y' not found"),
        (b"y,A\nx,x\nx\nx,x,x\n", "row 1 has 1 fields, header has 2"),
        (b"y,A\nx,x\n\nx,x\n", "row 1 has 0 fields, header has 2"),
        (b"y,A\n\"x\ny\",x\nx\n", "row 1 has 1 fields, header has 2"),
        # numbers for more than one read chunk, then text: the table is read as labels
        (b"y,A\n" + b"1,2\n" * 300 + b"x,1\n1\n", "row 301 has 1 fields, header has 2"),
        (b"y,A\n" + b"1,2\n" * 300 + b"x,1\n" + b"x,x\n" * 4096 + b"x,\xff\n",
         "not a readable UTF-8 CSV"),
    ],
    ids=["header-only", "duplicate-header-only", "ragged-then-undecodable",
         "ragged-free-then-oversized", "duplicate-then-ragged", "no-gold-then-ragged",
         "two-ragged", "blank-line", "rows-count-records-not-lines",
         "numbers-text-ragged", "numbers-text-undecodable"],
)
def test_ingest_error_precedence(tmp_path, content, message):
    p = tmp_path / "data.csv"
    p.write_bytes(content)
    with pytest.raises(DataFormatError, match=message):
        load_table(p)


def test_regression_text_error_names_first_column_then_first_row(tmp_path):
    # column order decides, not file order: A's bad cell is on a later row
    p = write(tmp_path, "y,A,B\n1,2,x\n1,a,3\n1,b,3\n")
    with pytest.raises(DataFormatError, match=r"column 'A' mixes numbers and text \(row 1\)"):
        load_table(p, task="regression")
    p = write(tmp_path, "y,A\nz,1\n1,b\n", name="gold.csv")
    with pytest.raises(DataFormatError, match=r"column 'y' mixes numbers and text \(row 0\)"):
        load_table(p, task="regression")


@pytest.mark.parametrize(
    "content",
    ["y,A\nsí,no\n".encode("latin-1"), b"y,A\nx," + b"a" * 200_000 + b"\n"],
    ids=["not-utf8", "oversized-field"],
)
def test_unreadable_csv_is_a_format_error_naming_the_file(tmp_path, content):
    p = tmp_path / "data.csv"
    p.write_bytes(content)
    with pytest.raises(DataFormatError, match="data.csv"):
        load_table(p)


def test_leading_byte_order_mark_is_not_part_of_the_header(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfy,A,B\nx,x,y\ny,y,y\n")
    table = load_table(p)
    assert table.names == ("A", "B")
    assert list(table.gold) == ["x", "y"]


def test_all_numeric_becomes_regression(tmp_path):
    p = write(tmp_path, "y,A\n1.5,1.4\n2.0,2.2\n")
    table = load_table(p)
    assert table.task_kind is TaskKind.REGRESSION
    assert table.gold.dtype == float


def test_task_override_keeps_numeric_labels(tmp_path):
    p = write(tmp_path, "y,A\n1,1\n2,2\n")
    table = load_table(p, task="classification")
    assert table.task_kind is TaskKind.CLASSIFICATION
    assert list(table.gold) == ["1", "2"]


def _csv_columns(path):
    """Each column of a CSV as read by the csv module, header name first."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(zip(*csv.reader(handle)))


@pytest.mark.parametrize(
    "text, task, labels",
    [
        # surrounding whitespace, over more than one read chunk
        ("y,A,B\n" + " favor,favor ,none\nagainst , against,favor\nnone,none,  favor\n" * 200,
         "auto", ("favor", "against", "none")),
        ("y,A\n" + "1,1\n2, 2\n1.0,1\n" * 200, "classification", ("1", "2", "1.0")),
        # numbers for more than one read chunk, then a text cell
        ("y,A\n" + "10,20\n" * 300 + "10,xx\n", "auto", ("10", "20", "xx")),
    ],
    ids=["whitespace", "numeric-labels", "numbers-then-text"],
)
def test_loaded_labels_are_one_str_per_distinct_label(tmp_path, text, task, labels):
    p = write(tmp_path, text)
    table = load_table(p, task=task)
    assert table.task_kind is TaskKind.CLASSIFICATION
    assert table.label_set == labels
    expected = {col[0]: [cell.strip() for cell in col[1:]] for col in _csv_columns(p)}
    assert list(table.gold) == expected.pop("y")
    assert {name: list(col) for name, col in table.systems.items()} == expected
    cells = [table.gold, *table.systems.values()]
    assert len({id(v) for col in cells for v in col}) == len(table.label_set)
    assert all(type(v) is str for col in cells for v in col)
    # the reader already shares raw cells, before the table strips them
    with open(p, newline="", encoding="utf-8-sig") as handle:
        raw = _read_columns(p, handle, "y", as_labels=True)
    assert len({id(v) for col in raw.values() for v in col}) == len(
        {v for col in raw.values() for v in col}
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize(
    "text",
    ["y,A\n" + "10,20\n" * 300 + "10,xx\n", "y,A\n" + "1.5,2\n" * 300],
    ids=["numbers-then-text", "numbers"],
)
def test_a_pipe_reads_like_a_file(tmp_path, text):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        piped = load_table(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    table = load_table(write(tmp_path, text))
    assert piped.task_kind is table.task_kind
    assert [list(piped.gold), piped.systems.keys()] == [list(table.gold), table.systems.keys()]
    assert all(list(piped.systems[k]) == list(table.systems[k]) for k in table.systems)


@pytest.mark.parametrize("task", ["auto", "regression"])
def test_regression_cells_keep_the_bits_of_float(tmp_path, task):
    cells = ["0.1", "-0.0", " 2.5 ", "1e308", "4.9e-324", "1_000", "+7", ".5", "5.", "1E-5"]
    rows = [f"{cells[i % 10]},{cells[(3 * i + 1) % 10]}" for i in range(600)]
    p = write(tmp_path, "y,A\n" + "\n".join(rows) + "\n")
    table = load_table(p, task=task)
    assert table.task_kind is TaskKind.REGRESSION
    for got, col in zip([table.gold, table.systems["A"]], _csv_columns(p)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([float(c) for c in col[1:]]).tobytes()


def test_blank_regression_cell_is_a_located_nan(tmp_path):
    p = write(tmp_path, "y,A\n1,2\n2, \n3,3\n")
    with pytest.raises(TableValidationError) as err:
        load_table(p, task="regression")
    assert [(v.kind, v.system, v.row) for v in err.value.violations] == [("missing", "A", 1)]


def test_mixed_column_under_regression_is_an_error(tmp_path):
    p = write(tmp_path, "y,A\n1.0,1.0\n2.0,oops\n")
    with pytest.raises(DataFormatError, match="mixes"):
        load_table(p, task="regression")
    # same file under auto detection is just a classification table
    assert load_table(p).task_kind is TaskKind.CLASSIFICATION


def test_missing_cell_is_validation_error(tmp_path):
    p = write(tmp_path, "y,A\nx,\nx,x\n")
    with pytest.raises(TableValidationError):
        load_table(p)


def test_parse_metric_variants():
    assert parse_metric("accuracy").metric == "accuracy"
    assert parse_metric("f1:toxic").labels == ("toxic",)
    spec = parse_metric("macro-f1:favor,against")
    assert spec.metric == "macro_f1" and spec.labels == ("favor", "against")
    assert parse_metric("mae").direction == "lower"
    # f1 takes its whole stripped argument as one class, comma and all
    assert parse_metric("f1: a,b ").labels == ("a,b",)
    for text in ("bleu", "f1:", "f1: ", "f1", "macro-f1:", "macro-f1:a,a,b", "accuracy:zzz",
                 "accuracy:", "mae:1"):
        with pytest.raises(ConfigError):
            parse_metric(text)


# classes for each class rule; a colon, a space and (for f1) a comma inside a class
_CLASSES = {NO_CLASS: [()], ONE_CLASS: [("x",), ("a,b: c",)],
            SOME_CLASSES: [("x",), ("favor", "a: b", "c d")]}


@pytest.mark.parametrize("metric", [m for m in METRICS if m != "custom"])
def test_parse_metric_reads_back_every_display_name(metric):
    for labels in _CLASSES[METRICS[metric][2]]:
        spec = ScoreSpec(metric=metric, labels=labels)
        assert parse_metric(spec.display_name) == spec


def test_a_comma_splits_macro_f1_classes_but_not_f1s_class():
    assert ScoreSpec(metric="f1", labels=("a,b",)).display_name == "f1:a,b"
    assert parse_metric("f1:a,b") == ScoreSpec(metric="f1", labels=("a,b",))
    with pytest.raises(ValueError, match="macro_f1 class 'a,b' holds a comma"):
        ScoreSpec(metric="macro_f1", labels=("a,b", "c"))
    assert parse_metric("macro-f1:a,b,c").labels == ("a", "b", "c")


def test_custom_metric_plugin(tmp_path):
    plugin = tmp_path / "swing.py"
    plugin.write_text(
        "import numpy as np\n"
        "NAME = 'swing'\n"
        "DIRECTION = 'higher'\n"
        "CAPPED_AT_ONE = True\n"
        "def score(gold, pred):\n"
        "    return float(np.mean(gold == pred)) ** 2\n"
    )
    spec = parse_metric(f"custom:{plugin}")
    assert spec.name == "swing"
    assert spec.capped_at_one
    assert spec.fn(np.array(["a"]), np.array(["a"])) == 1.0
    lower = tmp_path / "lower.py"
    lower.write_text("DIRECTION = 'lower'\ndef score(gold, pred):\n    return 0.5\n")
    lowered = parse_metric(f"custom:{lower}")
    assert (lowered.name, lowered.direction, lowered.capped_at_one) == ("lower", "lower", False)
    for constant, wanted in (("NAME = 5", "a non-empty str, not 5"),
                             ("NAME = ''", "a non-empty str, not ''"),
                             ("CAPPED_AT_ONE = 'no'", "True or False, not 'no'"),
                             ("DIRECTION = 'up'", "'higher' or 'lower', not 'up'")):
        wrong = tmp_path / "wrong.py"
        wrong.write_text(f"{constant}\ndef score(gold, pred):\n    return 0.5\n")
        with pytest.raises(ConfigError) as err:
            parse_metric(f"custom:{wrong}")
        assert str(err.value) == f"{wrong}: {constant.split()[0]} must be {wanted}"
    with pytest.raises(ConfigError):
        parse_metric("custom:/does/not/exist.py")
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    with pytest.raises(ConfigError, match="score"):
        parse_metric(f"custom:{bad}")
    not_python = tmp_path / "metric.txt"
    not_python.write_text("def score(gold, pred):\n    return 1.0\n")
    with pytest.raises(ConfigError, match="metric.txt: not a .py file"):
        parse_metric(f"custom:{not_python}")


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(input="x.csv", formats=())
    with pytest.raises(ConfigError):
        RunConfig(input="x.csv", formats=("pdf",))
    with pytest.raises(ConfigError):
        RunConfig(input="x.csv", corrections=("sidak",))
    with pytest.raises(ConfigError):
        RunConfig(input="x.csv", family="ladder")
    with pytest.raises(ConfigError):
        RunConfig(input="x.csv", task="ranking")


@pytest.mark.parametrize(
    "value, places, text",
    [(-0.0, 3, "-0.000"),
     (0.98765, 4, "0.9877"),
     (9999999999999998.0, 4, "9999999999999998.0000"),
     (1e16, 4, "1.0000e+16"),
     (-1e16, 2, "-1.00e+16"),
     (-1.7976931348623157e308, 3, "-1.798e+308"),
     (float("inf"), 4, "inf"),
     (float("-inf"), 2, "-inf"),
     (float("nan"), 6, "nan")],
)
def test_fmt_float_is_fixed_point_below_1e16_and_exponent_from_there(value, places, text):
    assert fmt_float(value, places) == text
    assert fmt_float(np.float64(value), places) == text


def test_csv_and_md_round_trip_to_table_precision(tmp_path):
    header = ["system", "observed", "lci"]
    values = [["a", 0.123456789, 0.1], ["|win - med|", 0.98765, 0.9]]
    rows = [[r[0], fmt_float(r[1], 4), fmt_float(r[2], 4)] for r in values]

    csv_path = tmp_path / "t.csv"
    write_csv(csv_path, header, rows)
    parsed = [line.split(",") for line in csv_path.read_text().splitlines()][1:]
    for parsed_row, original in zip(parsed, values):
        assert float(parsed_row[1]) == round(original[1], 4)

    md_path = tmp_path / "t.md"
    write_md(md_path, "table", header, rows)
    assert "| \\|win - med\\| | 0.9877 | 0.9000 |" in md_path.read_text().splitlines()
    got_header, got_rows = read_md_table(md_path)
    assert got_header == header
    assert [row[0] for row in got_rows] == ["a", "|win - med|"]
    for parsed_row, original in zip(got_rows, values):
        assert float(parsed_row[1]) == round(original[1], 4)
