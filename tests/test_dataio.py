import numpy as np
import pytest

from boardstats.dataio import (
    RunConfig,
    fmt_float,
    load_table,
    parse_metric,
    write_csv,
    write_md,
)
from boardstats.errors import ConfigError, DataFormatError, TableValidationError
from boardstats.table import TaskKind
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
    p = write(tmp_path, "y,A\nx,x\nx\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_table(p)


def test_empty_inputs(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_table(write(tmp_path, ""))
    with pytest.raises(DataFormatError, match="no data rows"):
        load_table(write(tmp_path, "y,A\n", name="headeronly.csv"))


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
    with pytest.raises(ConfigError):
        parse_metric("bleu")
    with pytest.raises(ConfigError):
        parse_metric("f1:")
    with pytest.raises(ConfigError):
        parse_metric("macro-f1:")
    with pytest.raises(ConfigError):
        parse_metric("accuracy", direction="lower")


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
    lowered = parse_metric(f"custom:{plugin}", direction="lower")
    assert lowered.direction == "lower"
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


def test_csv_and_md_round_trip_to_table_precision(tmp_path):
    header = ["system", "observed", "lci"]
    values = [["a", 0.123456789, 0.1], ["|win - med|", 0.98765, 0.9]]
    rows = [[r[0], fmt_float(r[1]), fmt_float(r[2])] for r in values]

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
