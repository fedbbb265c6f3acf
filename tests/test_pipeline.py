import hashlib
import json
import math

import numpy as np
import pytest

from boardstats import rng
from boardstats.cli import main
from boardstats.dataio import RunConfig
from boardstats.pipeline import run_pipeline
from boardstats.report import cv
from boardstats.table import BootstrapPlan
from helpers import read_md_table

TABLE_FILES = ["performance", "differences", "difference_matrix", "pvalues", "report"]


def write_classification_csv(path, seed=0, n=150, noises=(0.15, 0.3, 0.5)):
    g = np.random.default_rng(seed)
    gold = g.choice(["pos", "neg", "neu"], size=n)
    cols = {"y": gold}
    for k, noise in enumerate(noises):
        pred = gold.copy()
        flips = g.random(n) < noise
        pred[flips] = g.choice(["pos", "neg", "neu"], size=int(flips.sum()))
        cols[f"sys{k}"] = pred
    lines = [",".join(cols)]
    for i in range(n):
        lines.append(",".join(str(cols[c][i]) for c in cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def digest_dir(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def test_smoke_run_writes_all_tables_and_manifest(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    result = run_pipeline(
        RunConfig(input=str(csv), plan=BootstrapPlan(replicates=500, seed=3), out_dir=str(out))
    )
    for stem in TABLE_FILES:
        for ext in ("json", "csv", "md"):
            assert (out / f"{stem}.{ext}").exists()
    assert (out / "manifest.json").exists()
    for stem in ("plot_forest", "plot_differences", "plot_delta_hist"):
        assert (out / f"{stem}.svg").exists()
        assert (out / f"{stem}.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replicates"] == 500
    assert manifest["rng_family"]
    assert manifest["quantile_rule"] == "linear"
    assert sorted(result.artifacts) == manifest["artifacts"]


def test_reruns_and_worker_counts_are_byte_identical(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    digests = []
    for k, workers in enumerate((1, 4, 8, 1)):
        out = tmp_path / f"out{k}"
        run_pipeline(
            RunConfig(
                input=str(csv), plan=BootstrapPlan(replicates=800, seed=11, workers=workers),
                out_dir=str(out), metric="macro-f1:pos,neg",
            )
        )
        digests.append(digest_dir(out))
    assert digests[0] == digests[1] == digests[2] == digests[3]


def test_seed_changes_outputs(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    a, b = (
        run_pipeline(RunConfig(input=str(csv), plan=BootstrapPlan(replicates=300, seed=seed),
                               out_dir=str(tmp_path / tag)))
        for tag, seed in (("a", 1), ("b", 2))
    )
    pa = json.loads((tmp_path / "a" / "performance.json").read_text())
    pb = json.loads((tmp_path / "b" / "performance.json").read_text())
    assert pa != pb


def test_fdr_column_equals_bh_row_for_row(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.1, 0.2, 0.35, 0.5))
    out = tmp_path / "out"
    run_pipeline(
        RunConfig(input=str(csv), plan=BootstrapPlan(replicates=600, seed=5), out_dir=str(out))
    )
    payload = json.loads((out / "pvalues.json").read_text())
    assert len(payload["comparisons"]) == 6
    for row in payload["comparisons"]:
        assert row["fdr"] == row["bh"]


def test_winner_family_bonferroni_saturates_only_near_tie(tmp_path):
    # one runner-up statistically tied with the winner, everyone else far
    # behind: after a 7-fold Bonferroni only the tied pair reaches 1.0
    g = np.random.default_rng(13)
    n = 400
    gold = g.choice(["p", "n"], size=n, p=[0.6, 0.4])
    winner = gold.copy()
    flips = g.random(n) < 0.10
    winner[flips] = np.where(gold[flips] == "p", "n", "p")
    neartie = winner.copy()
    # swap labels both ways, two fixed against four broken, so the runner-up
    # stays observed-worse but only by a whisker
    errs = np.flatnonzero(neartie != gold)[:2]
    fix = np.flatnonzero(neartie == gold)[:4]
    neartie[errs] = gold[errs]
    neartie[fix] = np.where(gold[fix] == "p", "n", "p")
    cols = {"y": gold, "winner": winner, "neartie": neartie}
    for k in range(5):
        pred = gold.copy()
        flips = g.random(n) < 0.3 + 0.05 * k
        pred[flips] = np.where(gold[flips] == "p", "n", "p")
        cols[f"far{k}"] = pred
    lines = [",".join(cols)]
    for i in range(n):
        lines.append(",".join(str(cols[c][i]) for c in cols))
    csv = tmp_path / "appendixish.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = tmp_path / "out"
    run_pipeline(
        RunConfig(
            input=str(csv), metric="f1:p", plan=BootstrapPlan(replicates=4000, seed=2),
            family="vs_winner", out_dir=str(out),
        )
    )
    payload = json.loads((out / "pvalues.json").read_text())
    rows = {r["competitor"]: r for r in payload["comparisons"]}
    assert len(rows) == 6  # winner vs each other system
    saturated = [name for name, r in rows.items() if r["bonferroni"] == 1.0]
    assert saturated == ["neartie"]
    assert rows["neartie"]["p_value"] > 1 / 6
    assert all(r["bonferroni"] < 0.05 for name, r in rows.items() if name != "neartie")


def test_gold_alias_is_excluded_from_analysis(tmp_path):
    g = np.random.default_rng(7)
    gold = g.choice(["a", "b"], size=80)
    pred1 = gold.copy()
    pred1[:10] = np.where(gold[:10] == "a", "b", "a")
    pred2 = gold.copy()
    pred2[:25] = np.where(gold[:25] == "a", "b", "a")
    lines = ["y,Gold_Standard,s1,s2"]
    for i in range(80):
        lines.append(f"{gold[i]},{gold[i]},{pred1[i]},{pred2[i]}")
    csv = tmp_path / "with_gold.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    result = run_pipeline(
        RunConfig(input=str(csv), plan=BootstrapPlan(replicates=300, seed=1), out_dir=str(out))
    )
    assert result.report.m == 2
    perf = json.loads((out / "performance.json").read_text())
    assert [s["system"] for s in perf["systems"]] == ["s1", "s2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["excluded_systems"] == ["Gold_Standard"]


def test_mae_pipeline(tmp_path):
    g = np.random.default_rng(21)
    gold = g.normal(3, 1, size=100)
    close = gold + g.normal(0, 0.2, 100)
    far = gold + g.normal(0, 1.0, 100)
    lines = ["y,close,far"]
    for i in range(100):
        lines.append(f"{gold[i]:.6f},{close[i]:.6f},{far[i]:.6f}")
    csv = tmp_path / "reg.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    result = run_pipeline(
        RunConfig(input=str(csv), metric="mae", plan=BootstrapPlan(replicates=400, seed=9),
                  out_dir=str(out))
    )
    assert result.report.ranking[0] == "close"
    rep = json.loads((out / "report.json").read_text())
    assert rep["ppi"] is None
    assert rep["cv_comparable"] is False
    # positive delta means the reference (lower error) is better
    diffs = json.loads((out / "differences.json").read_text())
    assert diffs["comparisons"][0]["observed_delta"] > 0


def test_md_tables_round_trip_to_four_decimals(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    run_pipeline(
        RunConfig(input=str(csv), plan=BootstrapPlan(replicates=400, seed=4), out_dir=str(out))
    )
    payload = json.loads((out / "performance.json").read_text())
    header, rows = read_md_table(out / "performance.md")
    assert header == ["system", "observed", "lci", "mean", "uci"]
    for row, entry in zip(rows, payload["systems"]):
        assert row[0] == entry["system"]
        assert float(row[1]) == round(entry["observed"], 4)
        assert float(row[2]) == round(entry["lci"], 4)
        assert float(row[4]) == round(entry["uci"], 4)


# finite MAE near the float maximum: scores, CIs and deltas reach 1.5e308
NEAR_MAX_MAE_CSV = "y,a,b\n1.5e308,0,1.0\n2.0,2.0,2.0\n0,0,1\n"


def printed_at(cell: str, value: float, places: int) -> bool:
    """Whether a table cell reads back as ``value`` at ``places``: rounded
    in fixed point, or to ``places`` mantissa decimals in exponent form."""
    return float(cell) == (float(f"{value:.{places}e}") if "e" in cell else round(value, places))


@pytest.mark.parametrize("inputs", ["classification", "near-max-mae"])
def test_every_table_round_trips_at_printed_precision(tmp_path, inputs):
    # parse back each serialized table and compare against the full-precision
    # JSON: values must agree at the precision they were printed with, and
    # no text line grows with the values' magnitude
    out = tmp_path / "out"
    if inputs == "classification":
        csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.1, 0.25, 0.4))
        run_pipeline(RunConfig(input=str(csv), plan=BootstrapPlan(replicates=600, seed=12),
                               out_dir=str(out)))
    else:
        csv = tmp_path / "values.csv"
        csv.write_text(NEAR_MAX_MAE_CSV, encoding="utf-8")
        run_pipeline(RunConfig(input=str(csv), metric="mae", plan=BootstrapPlan(replicates=200),
                               out_dir=str(out)))

    def csv_rows(stem):
        lines = (out / f"{stem}.csv").read_text().splitlines()
        header = lines[0].split(",")
        return header, [line.split(",") for line in lines[1:]]

    perf = json.loads((out / "performance.json").read_text())["systems"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        _, rows = parser("performance")
        for row, entry in zip(rows, perf):
            for col, key in ((1, "observed"), (2, "lci"), (3, "mean"), (4, "uci")):
                assert printed_at(row[col], entry[key], 4)

    diffs = json.loads((out / "differences.json").read_text())["comparisons"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        _, rows = parser("differences")
        for row, entry in zip(rows, diffs):
            assert printed_at(row[1], entry["observed_delta"], 4)
            assert printed_at(row[2], entry["lci"], 4)
            assert row[5] == str(entry["contains_zero"]).lower()

    pvals = json.loads((out / "pvalues.json").read_text())["comparisons"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        header, rows = parser("pvalues")
        for row, entry in zip(rows, pvals):
            assert printed_at(row[2], entry["delta"], 3)
            assert printed_at(row[3], entry["p_value"], 4)
            for col, key in enumerate(header[4:], start=4):
                assert printed_at(row[col], entry[key.replace("-", "_")], 4)

    matrix = json.loads((out / "difference_matrix.json").read_text())["entries"]
    by_pair = {(e["reference"], e["competitor"]): e for e in matrix}
    header, rows = csv_rows("difference_matrix")
    for row in rows:
        competitor = row[0]
        for col, reference in enumerate(header[1:], start=1):
            if not row[col]:
                continue
            cell = row[col].split()
            entry = by_pair[(reference, competitor)]
            assert printed_at(cell[0], entry["delta"], 3)
            stars = cell[1] if len(cell) > 1 else ""
            assert stars == entry["stars"]

    panel = json.loads((out / "report.json").read_text())
    cells = dict(csv_rows("report")[1])
    for key, name in (("win_med_gap", "|win - med|"), ("cv", "cv"), ("ppi", "ppi")):
        text = cells[name].split()[0]  # cv may say "(not comparable)"
        assert (text == "-") if panel[key] is None else printed_at(text, panel[key], 3)

    widest = max(
        (len(line), path.name)
        for path in out.iterdir() if path.suffix in (".md", ".csv", ".svg")
        for line in path.read_text(encoding="utf-8").splitlines()
    )
    assert widest[0] <= 200, widest


def test_cli_exit_codes(tmp_path, capsys):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--samples", "200", "--out-dir", str(out),
    ]) == 0
    assert "manifest.json" in capsys.readouterr().out

    assert main(["--input", str(tmp_path / "missing.csv")]) == 3
    assert capsys.readouterr().err.startswith("boardstats: i/o: ")

    assert main(["--input", str(csv), "--metric", "bleu"]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("y,A\nx,x\nx\n", encoding="utf-8")
    assert main(["--input", str(ragged)]) == 1
    err = capsys.readouterr().err
    assert "input" in err and "row 1 has 1 fields" in err

    single = tmp_path / "single.csv"
    single.write_text("y,A\nx,x\n", encoding="utf-8")
    assert main(["--input", str(single)]) == 2  # fewer than 2 competitors
    assert capsys.readouterr().err.startswith("boardstats: configuration: need at least 2")

    # metric classes must exist in the data
    assert main(["--input", str(csv), "--metric", "f1:zzz"]) == 2
    assert capsys.readouterr().err.startswith("boardstats: configuration: metric classes")

    # rejected with the plan, before any resampling
    assert main(["--input", str(csv), "--samples", "1"]) == 2
    assert "boardstats: configuration: replicates must be >= 2" in capsys.readouterr().err
    assert main(["--input", str(csv), "--seed", "-1"]) == 2
    assert "boardstats: configuration: seed must fit in 64" in capsys.readouterr().err

    assert main(["--input", str(csv), "--metric", "mae", "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "boardstats: bootstrap: mae requires numeric outcomes"

    with pytest.raises(SystemExit) as exc:
        main(["--input", str(csv), "--family", "ladder"])
    assert exc.value.code == 2


def test_cli_maps_out_of_memory_to_exit_4(tmp_path, capsys, monkeypatch):
    import boardstats.cli as cli

    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr(cli, "run_pipeline", exhausted)
    csv = write_classification_csv(tmp_path / "comp.csv")
    assert main(["--input", str(csv), "--out-dir", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("boardstats: memory: out of memory")


def test_rerun_removes_the_previous_runs_artifacts(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    args = ["--input", str(csv), "--samples", "50", "--out-dir", str(out)]
    assert main(args) == 0
    assert len(list(out.iterdir())) == 22
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    assert main(args + ["--formats", "json"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 6
    on_disk = sorted(p.name for p in out.iterdir())
    assert on_disk == sorted(manifest["artifacts"] + ["notes.txt"])


def test_rerun_without_a_readable_manifest_deletes_nothing(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{not json", encoding="utf-8")
    (out / "performance.csv").write_text("old\n", encoding="utf-8")
    assert main(["--input", str(csv), "--samples", "50", "--formats", "json",
                 "--out-dir", str(out)]) == 0
    assert (out / "performance.csv").read_text() == "old\n"
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "stray.md").write_text("x\n", encoding="utf-8")
    manifest["artifacts"] += ["../comp.csv", "stray.md/"]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["--input", str(csv), "--samples", "50", "--formats", "json",
                 "--out-dir", str(out)]) == 0
    assert csv.exists() and (out / "stray.md").exists()
    # artifacts that are not a list: a dict of names lists nothing either
    (out / "manifest.json").write_text(json.dumps({"artifacts": {"stray.md": 1}}), encoding="utf-8")
    assert main(["--input", str(csv), "--samples", "50", "--formats", "json",
                 "--out-dir", str(out)]) == 0
    assert (out / "stray.md").exists()


def test_cli_rejects_infinite_regression_value(tmp_path, capsys):
    csv = tmp_path / "values.csv"
    csv.write_text("y,s1,s2\n1.0,1.1,0.9\n2.0,2.2,inf\n3.0,2.9,3.1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--metric", "mae", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[non-finite] prediction is inf (system='s2', row=1)" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_reports_overflowing_mae_without_numpy_warnings(tmp_path, capsys):
    csv = tmp_path / "values.csv"
    csv.write_text("y,a,b\n1e308,-1e308,1.0\n2.0,2.0,2.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", "mae", "--samples", "20", "--out-dir", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err == "boardstats: bootstrap: mae is not finite for system 'a' on the original data\n"
    assert not out.exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_scores_finite_mae_near_the_float_maximum(tmp_path):
    # a resample drawing the 1.5e308 error twice overflows a float sum, and
    # so do the bootstrap values' sum for the mean
    csv = tmp_path / "values.csv"
    csv.write_text(NEAR_MAX_MAE_CSV, encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", "mae", "--samples", "200", "--out-dir", str(out),
        "--formats", "json",
    ]) == 0
    performance = json.loads(
        (out / "performance.json").read_text(encoding="utf-8"), parse_constant=reject_constant
    )
    rows = {row["system"]: row for row in performance["systems"]}
    # Both systems' resample scores are 5e307 times the draws of row 0, to
    # within an ulp: the upper endpoint interpolates the scores of resamples
    # drawing the 1.5e308 error twice and three times, or equals the latter.
    draws = (rng.index_block(BootstrapPlan().seed, 3, 0, 200) == 0).sum(axis=1)
    uci = np.quantile(draws * (1.5e308 / 3), 0.975, method="linear")
    assert 1e308 <= uci <= 1.5e308
    for name, abs_err in (("a", [1.5e308, 0.0, 0.0]), ("b", [1.5e308 - 1.0, 0.0, 1.0])):
        assert math.isclose(rows[name]["observed"], math.fsum(abs_err) / 3, rel_tol=1e-15)
        assert math.isclose(rows[name]["uci"], uci, rel_tol=1e-15)
    for row in performance["systems"]:
        assert math.isfinite(row["mean"]) and row["mean"] <= row["uci"]


def test_cli_reports_cv_of_mae_scores_near_the_float_maximum(tmp_path):
    # the three MAE scores, about 1.25e308, 1.6e308 and 1.7e308, sum past
    # the float maximum
    rows = [f"0.0,1.6e308,1.7e308,{'1.0e308' if i % 2 else '1.5e308'}" for i in range(20)]
    csv = tmp_path / "values.csv"
    csv.write_text("y,A,B,C\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", "mae", "--samples", "200", "--out-dir", str(out),
        "--formats", "json",
    ]) == 0
    report = json.loads(
        (out / "report.json").read_text(encoding="utf-8"), parse_constant=reject_constant
    )
    assert report["cv"] == pytest.approx(cv([1.25, 1.6, 1.7]), rel=1e-12)


def test_cli_locates_a_score_difference_past_the_float_maximum(tmp_path, capsys):
    csv = tmp_path / "values.csv"
    csv.write_text("y,A,B\n" + "0,1.6e308,-1.6e308\n1,1.6e308,-1.6e308\n" * 10, encoding="utf-8")
    plugin = tmp_path / "max_pred.py"
    plugin.write_text("def score(gold, pred):\n    return float(pred.astype(float).max())\n")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", f"custom:{plugin}", "--samples", "50",
        "--out-dir", str(out),
    ]) == 2
    assert capsys.readouterr().err == (
        "boardstats: bootstrap: the max_pred difference of 'A' and 'B' or its CI is not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, entry",
    [(["--corrections", "bh,bh"], "corrections lists 'bh'"),
     (["--formats", "json,csv,json"], "formats lists 'json'")],
)
def test_cli_rejects_duplicate_list_entries(tmp_path, capsys, argv, entry):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--out-dir", str(out), *argv]) == 2
    assert capsys.readouterr().err == f"boardstats: configuration: {entry} more than once\n"
    assert not out.exists()


def test_cli_rejects_non_finite_custom_metric(tmp_path, capsys):
    csv = write_classification_csv(tmp_path / "comp.csv")
    plugin = tmp_path / "nan_metric.py"
    plugin.write_text("def score(gold, pred):\n    return float('nan')\n")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", f"custom:{plugin}", "--samples", "20",
        "--out-dir", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("boardstats: bootstrap: nan_metric is not finite for system 'sys0'")
    assert "original data" in err
    assert not out.exists()


def test_cli_non_utf8_input_is_an_input_error(tmp_path, capsys):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes("y,A,B\nsí,sí,no\nno,no,no\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"boardstats: input: {csv}: ")
    assert not out.exists()


def test_cli_crashing_custom_metric_is_located(tmp_path, capsys):
    csv = write_classification_csv(tmp_path / "comp.csv")
    plugin = tmp_path / "crash_metric.py"
    plugin.write_text("def score(gold, pred):\n    return 1 / 0\n")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", f"custom:{plugin}", "--samples", "20",
        "--out-dir", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "boardstats: bootstrap: crash_metric raised ZeroDivisionError for system 'sys0'"
    )
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_unimportable_custom_metric_is_a_configuration_error(tmp_path, capsys):
    csv = write_classification_csv(tmp_path / "comp.csv")
    plugin = tmp_path / "broken_metric.py"
    plugin.write_text("def score(gold, pred)\n    return 1.0\n")
    assert main(["--input", str(csv), "--metric", f"custom:{plugin}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"boardstats: configuration: cannot import custom metric {plugin}: SyntaxError")
    assert "Traceback" not in err


def test_histogram_and_pvalues_agree_on_identical_top_two(tmp_path):
    g = np.random.default_rng(4)
    gold = g.choice(["p", "n"], size=200)
    top = gold.copy()
    top[:20] = np.where(gold[:20] == "p", "n", "p")
    worse = gold.copy()
    worse[:60] = np.where(gold[:60] == "p", "n", "p")
    lines = ["y,A,B,C"] + [f"{gold[i]},{top[i]},{top[i]},{worse[i]}" for i in range(200)]
    csv = tmp_path / "twins.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "200", "--out-dir", str(out)]) == 0
    hist = json.loads((out / "plot_delta_hist.json").read_text())
    rows = json.loads((out / "pvalues.json").read_text())["comparisons"]
    pair = [r for r in rows if (r["reference"], r["competitor"]) == ("A", "B")]
    assert (hist["reference"], hist["competitor"]) == ("A", "B")
    assert hist["p_value"] == pair[0]["p_value"] == 1.0


@pytest.mark.parametrize("metric", ["accuracy", "mae"])
def test_histogram_sidecar_is_the_matrix_entry_of_the_top_pair(tmp_path, metric):
    if metric == "mae":
        g = np.random.default_rng(12)
        gold = g.normal(size=120)
        cols = {f"s{k}": gold + g.normal(scale=0.2 + 0.1 * k, size=120) for k in range(4)}
        csv = tmp_path / "reg.csv"
        lines = ["y," + ",".join(cols)]
        lines += [",".join(repr(float(v)) for v in (gold[i], *(c[i] for c in cols.values())))
                  for i in range(120)]
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        extra = ["--metric", "mae", "--task", "regression"]
    else:
        csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.15, 0.18, 0.3, 0.5))
        extra = []
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "300", "--out-dir", str(out), *extra]) == 0
    hist = json.loads((out / "plot_delta_hist.json").read_text())
    entries = json.loads((out / "difference_matrix.json").read_text())["entries"]
    ranking = json.loads((out / "report.json").read_text())["ranking"]
    top = next(e for e in entries if (e["reference"], e["competitor"]) == tuple(ranking[:2]))
    assert (hist["reference"], hist["competitor"]) == tuple(ranking[:2])
    assert float.hex(hist["p_value"]) == float.hex(top["p_value"])
    assert float.hex(hist["observed_delta"]) == float.hex(top["delta"])


def test_system_names_with_markup_characters_round_trip_through_every_svg(tmp_path):
    from xml.dom import minidom

    # the odd name ranks second, so it is a forest row, a difference-plot
    # competitor row and half of the histogram's title
    g = np.random.default_rng(5)
    gold = g.choice(["p", "n"], size=80)
    cols = []
    for wrong in (4, 12, 30):
        pred = gold.copy()
        pred[:wrong] = np.where(gold[:wrong] == "p", "n", "p")
        cols.append(pred)
    lines = ['y,s1,"a""<b>&c",s2'] + [",".join(r) for r in zip(gold, *cols)]
    csv = tmp_path / "odd.csv"
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "100", "--out-dir", str(out)]) == 0
    name = 'a"<b>&c'
    docs = {stem: minidom.parse(str(out / f"{stem}.svg"))
            for stem in ("plot_forest", "plot_differences", "plot_delta_hist")}

    def data_names(stem):
        return [e.getAttribute("data-name") for e in docs[stem].getElementsByTagName("g")]

    assert data_names("plot_forest") == ["s1", name, "s2"]
    assert data_names("plot_differences") == [name, "s2"]
    titles = [t.firstChild.data for t in docs["plot_delta_hist"].getElementsByTagName("text")
              if t.getAttribute("class") == "title"]
    assert titles == [f"Bootstrap differences: s1 vs {name}"]


def test_cli_rejects_a_system_name_that_xml_cannot_hold(tmp_path, capsys):
    csv = tmp_path / "control.csv"
    csv.write_text("y,s\x0bx,s2\np,p,n\nn,n,n\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "50", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("boardstats: input: ")
    assert ("[system-name] system name holds U+000B, a control or non-character "
            "(system='s\\x0bx')") in err
    assert not out.exists()


@pytest.mark.parametrize("char", ["\n", "\r", "\t"], ids=["LF", "CR", "TAB"])
def test_cli_rejects_a_system_name_holding_a_line_break_or_tab(char, tmp_path, capsys):
    # a quoted header cell may hold a line break; in a name it would split a
    # Markdown row and read back from an SVG attribute as a space
    csv = tmp_path / "control.csv"
    csv.write_text(f'y,"a{char}b",s2\np,p,n\nn,n,n\n', encoding="utf-8", newline="")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "50", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("boardstats: input: ")
    assert (f"[system-name] system name holds U+{ord(char):04X}, a control or non-character "
            f"(system={'a' + char + 'b'!r})") in err
    assert not out.exists()


def test_cli_custom_metric_and_formats(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    plugin = tmp_path / "plugin.py"
    plugin.write_text(
        "import numpy as np\n"
        "NAME = 'marginal'\n"
        "CAPPED_AT_ONE = True\n"
        "def score(gold, pred):\n"
        "    return float(np.mean(gold == pred))\n"
    )
    out = tmp_path / "out"
    rc = main([
        "--input", str(csv), "--metric", f"custom:{plugin}",
        "--samples", "200", "--seed", "6",
        "--formats", "json", "--out-dir", str(out),
    ])
    assert rc == 0
    assert (out / "performance.json").exists()
    assert not (out / "performance.csv").exists()
    assert not (out / "plot_forest.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metric"] == "marginal"


@pytest.mark.parametrize(
    "corrections", [("bonferroni", "holm", "bh"), ("none",)], ids=["corrected", "none"]
)
def test_vs_winner_pvalues_only_winner_rows(tmp_path, corrections):
    csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.1, 0.25, 0.4))
    out = tmp_path / "out"
    result = run_pipeline(
        RunConfig(
            input=str(csv), plan=BootstrapPlan(replicates=300, seed=8), family="vs_winner",
            corrections=corrections, out_dir=str(out),
        )
    )
    payload = json.loads((out / "pvalues.json").read_text())
    winner = result.report.ranking[0]
    assert all(r["reference"] == winner for r in payload["comparisons"])
    assert len(payload["comparisons"]) == 2


def test_zero_mean_competition_reports_undefined_cv(tmp_path):
    csv = tmp_path / "all_wrong.csv"
    csv.write_text("y,A,B\n" + "x,z,z\ny,x,x\n" * 5, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv), "--samples", "50", "--out-dir", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["cv"] is None
    assert rep["observed_scores"] == {"A": 0.0, "B": 0.0}
    for fmt in ("csv", "md"):
        assert "cv,-" in (out / f"report.{fmt}").read_text().replace(" | ", ",")
