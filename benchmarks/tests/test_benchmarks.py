"""Tests of the benchmark's own code: inputs, reference scorers, tracing.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import boardstats
import boardstats.cli as cli
from boardstats.metrics import score

import inputs
import run
import spans


def small(workload):
    return dataclasses.replace(workload, n=120, m=4, replicates=64)


@pytest.mark.parametrize("name", list(inputs.WORKLOADS))
def test_generate_is_deterministic_in_its_seed(name):
    workload = small(inputs.WORKLOADS[name])
    first, again, other = (inputs.generate(workload, s) for s in (3, 3, 4))
    assert first.csv_text == again.csv_text
    assert first.digest == again.digest
    np.testing.assert_array_equal(first.gold, again.gold)
    assert other.csv_text != first.csv_text


@pytest.mark.parametrize("name", list(inputs.WORKLOADS))
def test_csv_text_holds_the_generated_columns(name):
    workload = small(inputs.WORKLOADS[name])
    data = inputs.generate(workload, 5)
    rows = list(csv.reader(io.StringIO(data.csv_text)))
    assert rows[0] == ["y"] + list(data.systems)
    assert len(rows) == workload.n + 1
    columns = list(zip(*rows[1:]))
    cast = float if workload.task == "regression" else str
    assert [cast(v) for v in columns[0]] == list(data.gold)
    for values, pred in zip(columns[1:], data.systems.values()):
        assert [cast(v) for v in values] == list(pred)


def test_reference_accuracy_hand_worked():
    assert inputs.reference_accuracy(["a", "b", "a", "c"], ["a", "a", "a", "c"]) == 0.75


def test_reference_macro_f1_hand_worked_with_an_empty_subset_class():
    gold = ["favor", "favor", "none", "none", "favor"]
    pred = ["favor", "none", "favor", "none", "favor"]
    # favor: tp 2, fp 1, fn 1 -> 4 / 6; against: tp = fp = fn = 0 -> 0
    assert inputs.reference_macro_f1(gold, pred, ["favor", "against"]) == pytest.approx(1 / 3, abs=1e-15)
    assert inputs.reference_macro_f1(gold, pred, ["favor"]) == pytest.approx(2 / 3, abs=1e-15)


def test_reference_mae_hand_worked():
    assert inputs.reference_mae([1.0, 2.0, 4.0], [1.5, 2.0, 3.0]) == 0.5


@pytest.mark.parametrize("name", list(inputs.WORKLOADS))
def test_reference_scores_agree_with_boardstats(name):
    workload = small(inputs.WORKLOADS[name])
    data = inputs.generate(workload, 11)
    spec = boardstats.parse_metric(workload.metric)
    expected = inputs.reference_scores(workload, data)
    for system, pred in data.systems.items():
        assert abs(expected[system] - score(data.gold, pred, spec)) <= run.TOLERANCE


def _bindings():
    """Every attribute of boardstats modules and traced classes, by identity."""
    owners = [m for m in spans._package_modules()]
    owners += [boardstats.metrics.ResampleScorer, boardstats.table.PredictionTable]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_attribute():
    import boardstats.pipeline as pipeline

    before = _bindings()
    original = pipeline.distributions
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert pipeline.distributions is not original
        assert pipeline.distributions.__wrapped__ is original
        changed = {key for key, value in _bindings().items() if before.get(key) is not value}
        assert len(changed) >= len(spans.TARGETS)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _tiny_csv(tmp_path, workload_name):
    workload = dataclasses.replace(small(inputs.WORKLOADS[workload_name]), m=3)
    data = inputs.generate(workload, 2)
    path = tmp_path / "input.csv"
    data.write(path)
    return workload, data, str(path)


def test_traced_run_reports_every_layer_and_writes_the_same_artifacts(tmp_path, capsys):
    workload, data, csv_path = _tiny_csv(tmp_path, "shared-task")
    assert cli.main(workload.argv(csv_path, str(tmp_path / "plain"))) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = tracer.call(spans.ROOT, cli.main, workload.argv(csv_path, str(tmp_path / "traced")))
    finally:
        tracer.restore()
    assert rc == 0
    assert run.artifact_digest(tmp_path / "plain") == run.artifact_digest(tmp_path / "traced")

    layers = spans.layer_metrics(tracer.spans)
    assert set(layers) | {"trace_overhead_s"} == set(run.PER_LAYER)
    assert layers["rng.index_block.calls"] == layers["bootstrap.blocks"] == 1
    assert layers["metrics.indices"] == workload.replicates * workload.m * workload.n
    assert layers["inference.pairs"] > 0 and layers["corrections.calls"] > 0
    assert layers["dataio.write.calls"] > 0 and layers["dataio.bytes_written"] > 0
    assert 0.0 <= layers["bootstrap.self_s"] <= layers["bootstrap.distributions.s"]
    assert layers["pipeline.self_s"] >= 0.0


def test_self_time_subtracts_direct_children_only():
    s = [
        spans.Span("pipeline", 0.0, None, end=10.0),
        spans.Span("bootstrap.distributions", 1.0, 0, end=6.0),
        spans.Span("rng.index_block", 1.5, 1, end=2.5),
        spans.Span("metrics.scores", 3.0, 1, end=5.0),
        spans.Span("bootstrap.percentile_ci", 7.0, 0, end=8.0),
    ]
    assert spans._self_time(s, {"pipeline"}) == 10.0 - 5.0 - 1.0
    assert spans._self_time(s, {"bootstrap.distributions"}) == 5.0 - 1.0 - 2.0
    assert spans._total(s, "pipeline", "metrics.scores") == 10.0


def test_output_check_rejects_a_wrong_score(tmp_path, capsys):
    workload, data, csv_path = _tiny_csv(tmp_path, "many-systems")
    out = tmp_path / "out"
    assert cli.main(workload.argv(csv_path, str(out))) == 0
    expected = inputs.reference_scores(workload, data)
    run.check_artifacts(out, expected)
    first = next(iter(expected))
    with pytest.raises(run.RunFailed, match=first):
        run.check_artifacts(out, {**expected, first: expected[first] + 1e-9})
    (out / "plot_forest.svg").unlink()
    with pytest.raises(run.RunFailed, match="manifest"):
        run.check_artifacts(out, expected)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in inputs.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_source_tree_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "many-systems", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
