from dataclasses import fields

import numpy as np
import pytest

from boardstats.cli import build_parser, config_from_args
from boardstats.corrections import POLICIES
from boardstats.dataio import RunConfig
from boardstats.errors import ConfigError
from boardstats.table import BootstrapPlan


def parse_cli(*argv):
    return config_from_args(build_parser().parse_args(["--input", "x.csv", *argv]))


def test_run_config_round_trip():
    cfg = parse_cli(
        "--metric", "macro-f1:favor,against", "--samples", "5000", "--seed", "11",
        "--corrections", "bonferroni,bh", "--formats", "json,svg", "--family", "global",
    )
    assert cfg == RunConfig(
        input="x.csv", metric="macro-f1:favor,against",
        plan=BootstrapPlan(replicates=5000, seed=11),
        corrections=("bonferroni", "bh"), formats=("json", "svg"), family="global",
    )


def test_run_config_accepts_an_int_for_a_float():
    # RunConfig's numbers are its plan's, whose type rule RunConfig shares: an
    # int passes as a float, so alpha=1 fails only the range check
    with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
        BootstrapPlan(alpha=1)
    assert RunConfig(input="x.csv", plan=BootstrapPlan(alpha=np.float32(0.5))).plan.alpha == 0.5


@pytest.mark.parametrize(
    "field, value",
    [("input", 3), ("gold_col", 1), ("metric", None), ("family", 1), ("out_dir", 0),
     ("plan", None), ("corrections", {"bh": 1})],
)
def test_run_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be "):
        RunConfig(**{"input": "cls.csv", field: value})


@pytest.mark.parametrize(
    "field, value, entry",
    [("corrections", ("bh", "holm", "bh"), "bh"), ("corrections", "bh,bh", "bh"),
     ("formats", ("json", "json"), "json"), ("formats", "csv,md, csv", "csv")],
)
def test_run_config_rejects_duplicate_list_entries(field, value, entry):
    # a comma string is how the command line spells a list
    with pytest.raises(ConfigError, match=f"{field} lists '{entry}' more than once"):
        if isinstance(value, str):
            parse_cli(f"--{field}", value)
        else:
            RunConfig(input="cls.csv", **{field: value})
    with pytest.raises(ConfigError, match=f"{field} lists '{entry}' more than once"):
        RunConfig(input="cls.csv", **{field: (entry, entry)})


def test_cli_and_library_share_run_config_defaults():
    assert parse_cli() == RunConfig(input="x.csv")
    assert RunConfig(input="x.csv").plan == BootstrapPlan()
    dests = {action.dest for action in build_parser()._actions} - {"help"}
    assert dests == {f.name for f in fields(RunConfig) + fields(BootstrapPlan)} - {"plan"}
    for policy in POLICIES:
        assert parse_cli("--family", policy.replace("_", "-")).family == policy


def test_cli_options_map_onto_the_plan():
    cfg = parse_cli("--samples", "50", "--seed", "3", "--alpha", "0.1", "--confidence", "0.9",
                    "--workers", "2")
    assert cfg.plan == BootstrapPlan(replicates=50, seed=3, alpha=0.1, confidence=0.9, workers=2)
    with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
        parse_cli("--seed", "-1")


def test_cli_splits_comma_lists_dropping_blank_items():
    assert parse_cli("--corrections", " bh, holm ,").corrections == ("bh", "holm")


@pytest.mark.parametrize("argv", [["--family", "ladder"], ["--task", "foo"]])
def test_cli_rejects_unknown_choices_in_the_parser(argv):
    with pytest.raises(SystemExit) as exc:
        parse_cli(*argv)
    assert exc.value.code == 2
