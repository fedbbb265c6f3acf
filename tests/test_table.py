from dataclasses import astuple

import numpy as np
import pytest

from boardstats.bootstrap import distributions
from boardstats.errors import TableValidationError
from boardstats.table import (
    BootstrapPlan,
    PredictionTable,
    ScoreSpec,
    TaskKind,
    Violation,
    validate,
)


def test_valid_table_has_no_violations():
    table = PredictionTable.build(["a", "b", "a"], {"sys": ["a", "a", "a"]})
    assert validate(table) == []
    assert table.n == 3
    assert table.names == ("sys",)


def test_length_mismatch_is_reported_with_system():
    table = PredictionTable(
        task_kind=TaskKind.CLASSIFICATION,
        gold=np.array(["a", "b", "a"], dtype=object),
        systems={"short": np.array(["a", "b"], dtype=object)},
    )
    violations = validate(table)
    assert len(violations) == 1
    assert violations[0].kind == "length"
    assert violations[0].system == "short"


def test_build_raises_on_violations():
    with pytest.raises(TableValidationError) as err:
        PredictionTable.build(["a", "b"], {"short": ["a"]})
    assert any(v.kind == "length" for v in err.value.violations)


def test_new_prediction_label_extends_label_set():
    # a label absent from gold and every other system is not a violation
    table = PredictionTable.build(
        ["yes", "no", "yes"],
        {"a": ["yes", "no", "no"], "b": ["yes", "maybe", "no"]},
    )
    assert validate(table) == []
    assert table.label_set == ("yes", "no", "maybe")


def test_label_set_order_is_gold_first_then_column_order():
    table = PredictionTable.build(
        ["m", "k"],
        {"s1": ["x", "m"], "s2": ["z", "k"]},
    )
    assert table.label_set == ("m", "k", "x", "z")
    # order stable when recomputed
    assert table.label_set == ("m", "k", "x", "z")


def test_labels_are_trimmed_but_not_case_folded():
    table = PredictionTable.build(["  FAVOR ", "favor"], {"s": ["FAVOR", " favor"]})
    assert table.label_set == ("FAVOR", "favor")


def test_score_spec_trims_its_classes_as_tables_trim_labels():
    spec = ScoreSpec(metric="f1", labels=(" a",))
    assert spec == ScoreSpec(metric="f1", labels=(" a",)) == ScoreSpec(metric="f1", labels=("a",))
    assert ScoreSpec(metric="macro_f1", labels=[" a", "B "]).labels == ("a", "B")
    table = PredictionTable.build(["a", "b", "a"], {"s": ["a ", "a", "b"], "t": ["b", "b", "a"]})
    dists = distributions(table, spec, BootstrapPlan(replicates=2))
    assert [d.observed for d in dists.values()] == pytest.approx([1 / 2, 2 / 3])


def test_equal_labels_are_one_object_across_columns():
    table = PredictionTable.build(
        np.array([" a", "b "]), {"s": ["a", "b"], "t": np.array(["b", " a "])}
    )
    assert table.label_set == ("a", "b")
    cells = [table.gold, *table.systems.values()]
    assert len({id(v) for col in cells for v in col}) == 2
    assert all(type(v) is str for col in cells for v in col)
    # as dict keys 1, 1.0 and True are one key; as labels they are three
    table = PredictionTable.build([1, 1.0, True], {"s": ["1", "1.0", "True"]})
    assert table.label_set == ("1", "1.0", "True")


def test_missing_values_are_violations():
    table = PredictionTable(
        task_kind=TaskKind.CLASSIFICATION,
        gold=np.array(["a", ""], dtype=object),
        systems={"s": np.array(["", "b"], dtype=object)},
    )
    kinds = [(v.kind, v.system, v.row) for v in validate(table)]
    assert ("missing", None, 1) in kinds
    assert ("missing", "s", 0) in kinds


def test_missing_labels_match_the_per_cell_loop():
    rng = np.random.default_rng(5)
    cols = [rng.choice(np.array(["a", "", "b"], dtype=object), size=60) for _ in range(4)]
    table = PredictionTable(
        task_kind=TaskKind.CLASSIFICATION,
        gold=cols[0],
        systems={"s1": cols[1], "s0": cols[2], "s2": cols[3]},
    )
    expected = [
        Violation("missing", "gold label is missing", row=row)
        for row, value in enumerate(table.gold) if value == ""
    ]
    expected += [
        Violation("missing", "prediction is missing", system=name, row=row)
        for name, col in table.systems.items()
        for row, value in enumerate(col) if value == ""
    ]
    assert len(expected) > 40
    assert validate(table) == expected
    assert all(type(v.row) is int for v in validate(table))


def test_nan_predictions_are_violations_for_regression():
    table = PredictionTable(
        task_kind=TaskKind.REGRESSION,
        gold=np.array([1.0, 2.0]),
        systems={"s": np.array([1.0, np.nan])},
    )
    violations = validate(table)
    assert len(violations) == 1
    assert violations[0].row == 1


def test_infinite_values_are_located_violations_for_regression():
    table = PredictionTable(
        task_kind=TaskKind.REGRESSION,
        gold=np.array([1.0, -np.inf, np.nan]),
        systems={"s": np.array([np.inf, 2.0, 3.0])},
    )
    kinds = [(v.kind, v.system, v.row, v.message) for v in validate(table)]
    assert kinds == [
        ("missing", None, 2, "gold value is NaN"),
        ("non-finite", None, 1, "gold value is -inf"),
        ("non-finite", "s", 0, "prediction is inf"),
    ]


def test_non_numeric_regression_column_is_a_violation_not_a_crash():
    table = PredictionTable(
        task_kind=TaskKind.REGRESSION,
        gold=np.array([1.0, 2.0]),
        systems={"s": np.array(["a", "b"], dtype=object)},
    )
    violations = validate(table)
    assert [v.kind for v in violations] == ["type"]
    assert violations[0].system == "s"


def test_empty_system_name_is_violation():
    table = PredictionTable(
        task_kind=TaskKind.CLASSIFICATION,
        gold=np.array(["a"], dtype=object),
        systems={" ": np.array(["a"], dtype=object)},
    )
    assert any(v.kind == "system-name" for v in validate(table))


def test_table_is_immutable():
    table = PredictionTable.build(["a", "b"], {"s": ["a", "b"]})
    with pytest.raises(ValueError):
        table.gold[0] = "c"
    with pytest.raises(AttributeError):
        table.gold = np.array([])


def test_perfect_system_is_permitted():
    gold = ["x", "y", "x"]
    table = PredictionTable.build(gold, {"Gold_Standard": gold, "s": ["x", "x", "x"]})
    assert validate(table) == []


def test_scorespec_invariants():
    contradictions = [
        dict(metric="mae", direction="higher"),
        dict(metric="mae", direction="lower", capped_at_one=True),
        dict(metric="mae", direction="lower", capped_at_one=False, labels=("a",)),
        dict(metric="custom", fn=len, labels=("a",)),
        dict(metric="accuracy", name="mae"),
        dict(metric="accuracy", fn=len),
        dict(metric="accuracy", labels=("zzz",)),
        dict(metric="f1", labels=("a", "b")),
        dict(metric="f1", labels=("",)),
        dict(metric="macro_f1", labels=("a", "")),
    ]
    for metric, labels in (("accuracy", ()), ("f1", ("a",)), ("macro_f1", ("a", "b"))):
        contradictions += [dict(metric=metric, labels=labels, direction="lower"),
                           dict(metric=metric, labels=labels, capped_at_one=False)]
    for fields in contradictions:
        with pytest.raises(ValueError):
            ScoreSpec(**fields)
    with pytest.raises(ValueError):
        ScoreSpec(metric="macro_f1", labels=())
    with pytest.raises(ValueError):
        ScoreSpec(metric="custom")
    with pytest.raises(ValueError):
        ScoreSpec(metric="nope")
    with pytest.raises(ValueError, match="macro_f1 lists 'a' more than once"):
        ScoreSpec(metric="macro_f1", labels=("a", "b", "a"))
    assert ScoreSpec(metric="mae") == ScoreSpec(metric="mae")
    assert ScoreSpec(metric="mae").direction == "lower"
    assert not ScoreSpec(metric="mae").capped_at_one
    # a custom metric's defaults are one pair, however the spec is built
    for custom in (ScoreSpec(metric="custom", fn=len), ScoreSpec(metric="custom", name="x", fn=len)):
        assert (custom.direction, custom.capped_at_one) == ("higher", False)
    assert ScoreSpec(metric="macro_f1", labels=("a", "b")).display_name == "macro-f1:a,b"


def test_bootstrap_plan_invariants():
    with pytest.raises(ValueError):
        BootstrapPlan(replicates=0)
    with pytest.raises(ValueError):
        BootstrapPlan(replicates=1)  # a percentile CI needs two values
    with pytest.raises(ValueError):
        BootstrapPlan(confidence=1.0)
    with pytest.raises(ValueError):
        BootstrapPlan(confidence=0.0)
    with pytest.raises(ValueError):
        BootstrapPlan(seed=-1)
    with pytest.raises(ValueError):
        BootstrapPlan(workers=0)
    plan = BootstrapPlan()
    assert plan.replicates == 10_000
    assert plan.confidence == 0.95
    assert plan.alpha == 0.05


@pytest.mark.parametrize(
    "field, value",
    [("replicates", "many"), ("replicates", 50.0), ("alpha", True), ("alpha", "0.1"),
     ("seed", 1.5), ("seed", True), ("workers", "2"), ("workers", 2.0)],
)
def test_bootstrap_plan_rejects_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be "):
        BootstrapPlan(**{field: value})


def test_bootstrap_plan_keeps_numpy_scalars_as_python_numbers():
    plan = BootstrapPlan(replicates=np.int32(50), seed=np.uint64(2**64 - 1),
                         alpha=np.float32(0.5), confidence=np.float64(0.9), workers=np.int64(2))
    assert plan == BootstrapPlan(50, 0.9, 2**64 - 1, 0.5, 2)
    assert list(map(type, astuple(plan))) == [int, float, int, float, int]

