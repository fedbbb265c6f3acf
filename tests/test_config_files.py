import json
from dataclasses import fields

import numpy as np
import pytest

from boardstats.cli import build_parser, config_from_args
from boardstats.corrections import POLICIES
from boardstats.dataio import RunConfig, run_config_from_json
from boardstats.errors import ConfigError
from boardstats.synth import LabelNoise, ValueNoise, generate, synth_config_from_json
from boardstats.table import BootstrapPlan, TaskKind


def dump(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def test_run_config_round_trip(tmp_path):
    p = dump(tmp_path, {
        "input": "comp.csv",
        "metric": "macro-f1:favor,against",
        "samples": 5000,
        "seed": 11,
        "corrections": ["bonferroni", "bh"],
        "formats": "json,svg",
        "family": "global",
    })
    cfg = run_config_from_json(p)
    assert cfg == RunConfig(
        input="comp.csv", metric="macro-f1:favor,against", samples=5000, seed=11,
        corrections=("bonferroni", "bh"), formats=("json", "svg"), family="global",
    )
    # an int is accepted where a float is expected
    assert run_config_from_json(dump(tmp_path, {"input": "x.csv", "alpha": 1}, "int.json")).alpha == 1


def test_run_config_rejects_unknown_keys_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        run_config_from_json(dump(tmp_path, {"input": "x.csv", "metricc": "mae"}))
    with pytest.raises(ConfigError, match="required"):
        run_config_from_json(dump(tmp_path, {"metric": "mae"}, name="noinput.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        run_config_from_json(bad)
    with pytest.raises(ConfigError, match="object"):
        run_config_from_json(dump(tmp_path, [1, 2], name="list.json"))


@pytest.mark.parametrize(
    "field, value",
    [("samples", "many"), ("alpha", True), ("workers", "2"), ("seed", 1.5), ("input", 3),
     ("direction", 1), ("corrections", {"bh": 1})],
)
def test_run_config_rejects_mistyped_fields(tmp_path, field, value):
    with pytest.raises(ConfigError, match=f"config.json: {field} must be "):
        run_config_from_json(dump(tmp_path, {"input": "cls.csv", field: value}))


@pytest.mark.parametrize(
    "field, value, entry",
    [("corrections", ["bh", "holm", "bh"], "bh"), ("corrections", "bh,bh", "bh"),
     ("formats", ["json", "json"], "json"), ("formats", "csv,md, csv", "csv")],
)
def test_run_config_rejects_duplicate_list_entries(tmp_path, field, value, entry):
    with pytest.raises(ConfigError, match=f"config.json: {field} lists '{entry}' more than once"):
        run_config_from_json(dump(tmp_path, {"input": "cls.csv", field: value}))
    with pytest.raises(ConfigError, match=f"{field} lists '{entry}' more than once"):
        RunConfig(input="cls.csv", **{field: (entry, entry)})


def parse_cli(*argv):
    return config_from_args(build_parser().parse_args(["--input", "x.csv", *argv]))


def test_cli_and_library_share_run_config_defaults():
    assert parse_cli() == RunConfig(input="x.csv")
    dests = {action.dest for action in build_parser()._actions} - {"help"}
    assert dests == {f.name for f in fields(RunConfig)}
    config, plan = RunConfig(input="x.csv"), BootstrapPlan()
    assert (config.samples, config.seed, config.alpha, config.confidence, config.workers) == (
        plan.replicates, plan.seed, plan.alpha, plan.confidence, plan.workers
    )
    for policy in POLICIES:
        assert parse_cli("--family", policy.replace("_", "-")).family == policy


def test_cli_and_json_split_comma_lists_alike(tmp_path):
    from_json = run_config_from_json(dump(tmp_path, {"input": "x.csv", "corrections": " bh, holm ,"}))
    assert parse_cli("--corrections", " bh, holm ,").corrections == from_json.corrections
    assert from_json.corrections == ("bh", "holm")


@pytest.mark.parametrize("argv", [["--family", "ladder"], ["--task", "foo"]])
def test_cli_rejects_unknown_choices_in_the_parser(argv):
    with pytest.raises(SystemExit) as exc:
        parse_cli(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("reader", [run_config_from_json, synth_config_from_json])
@pytest.mark.parametrize(
    "content", [b'{"input": "caf\xe9.csv"}\n', b"{not json\n"], ids=["latin-1", "malformed"]
)
def test_unreadable_config_is_a_config_error_naming_the_file(tmp_path, reader, content):
    p = tmp_path / "unreadable.json"
    p.write_bytes(content)
    with pytest.raises(ConfigError, match="unreadable.json: not valid UTF-8 JSON"):
        reader(p)


def test_config_with_a_leading_byte_order_mark_is_read(tmp_path):
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xef\xbb\xbf" + json.dumps({"input": "x.csv", "samples": 500}).encode())
    assert run_config_from_json(p) == RunConfig(input="x.csv", samples=500)


def test_synth_config_classification(tmp_path):
    p = dump(tmp_path, {
        "n": 60,
        "seed": 5,
        "labels": ["a", "b", "c"],
        "label_probs": [0.5, 0.3, 0.2],
        "systems": {
            "plain": {"rate": 0.2},
            "skewed": {
                "kind": "label_noise",
                "rate": 0.3,
                "kernel": {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"a": 1.0}},
            },
        },
    })
    cfg = synth_config_from_json(p)
    assert cfg.task_kind is TaskKind.CLASSIFICATION
    assert cfg.systems["plain"] == LabelNoise(rate=0.2)
    assert cfg.systems["skewed"].kernel["a"]["b"] == 1.0
    table = generate(cfg)
    assert table.n == 60
    assert table.names == ("plain", "skewed")


def test_synth_config_regression_kind_inferred(tmp_path):
    p = dump(tmp_path, {
        "n": 40,
        "task": "regression",
        "systems": {"noisy": {"rate": 0.5, "sd": 0.8}},
    })
    cfg = synth_config_from_json(p)
    assert cfg.task_kind is TaskKind.REGRESSION
    assert cfg.systems["noisy"] == ValueNoise(rate=0.5, sd=0.8)
    table = generate(cfg)
    assert table.gold.dtype == float


def test_synth_config_errors(tmp_path):
    for payload in ({"n": 10}, {"n": 10, "systems": [1, 2]}, {"n": 10, "systems": {"a": 0.2}}):
        with pytest.raises(ConfigError, match="config.json: .*'systems' map"):
            synth_config_from_json(dump(tmp_path, payload))
    with pytest.raises(ConfigError, match="config.json: '<' not supported"):
        synth_config_from_json(dump(tmp_path, {
            "n": "10", "labels": ["a", "b"], "label_probs": [0.5, 0.5],
            "systems": {"s": {"rate": 0.1}},
        }))
    with pytest.raises(ConfigError, match="kind"):
        synth_config_from_json(dump(tmp_path, {
            "n": 10, "labels": ["a", "b"], "label_probs": [0.5, 0.5],
            "systems": {"s": {"kind": "jitter", "rate": 0.1}},
        }))
    with pytest.raises(ConfigError):
        synth_config_from_json(dump(tmp_path, {
            "n": 10, "labels": ["a"], "label_probs": [1.0],
            "systems": {"s": {"rate": 0.1}},
        }))
