import numpy as np
import pytest

from boardstats.errors import TableValidationError
from boardstats.table import (
    BootstrapPlan,
    PredictionTable,
    ScoreSpec,
    TaskKind,
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


def test_missing_values_are_violations():
    table = PredictionTable(
        task_kind=TaskKind.CLASSIFICATION,
        gold=np.array(["a", ""], dtype=object),
        systems={"s": np.array(["", "b"], dtype=object)},
    )
    kinds = [(v.kind, v.system, v.row) for v in validate(table)]
    assert ("missing", None, 1) in kinds
    assert ("missing", "s", 0) in kinds


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
    with pytest.raises(ValueError):
        ScoreSpec(metric="mae", direction="higher")
    with pytest.raises(ValueError):
        ScoreSpec(metric="macro_f1", labels=())
    with pytest.raises(ValueError):
        ScoreSpec(metric="custom")
    with pytest.raises(ValueError):
        ScoreSpec(metric="nope")
    assert ScoreSpec.mae().direction == "lower"
    assert not ScoreSpec.mae().capped_at_one
    assert ScoreSpec.f1("x").labels == ("x",)
    assert ScoreSpec.macro_f1(["a", "b"]).display_name == "macro-f1:a,b"


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

