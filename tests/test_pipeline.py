import hashlib
import json
import math

import numpy as np
import pytest

from boardstats.cli import main
from boardstats.dataio import RunConfig
from boardstats.pipeline import run_pipeline
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
        RunConfig(input=str(csv), samples=500, seed=3, out_dir=str(out))
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
                input=str(csv), samples=800, seed=11, out_dir=str(out),
                workers=workers, metric="macro-f1:pos,neg",
            )
        )
        digests.append(digest_dir(out))
    assert digests[0] == digests[1] == digests[2] == digests[3]


def test_seed_changes_outputs(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    a = run_pipeline(RunConfig(input=str(csv), samples=300, seed=1, out_dir=str(tmp_path / "a")))
    b = run_pipeline(RunConfig(input=str(csv), samples=300, seed=2, out_dir=str(tmp_path / "b")))
    pa = json.loads((tmp_path / "a" / "performance.json").read_text())
    pb = json.loads((tmp_path / "b" / "performance.json").read_text())
    assert pa != pb


def test_fdr_column_equals_bh_row_for_row(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.1, 0.2, 0.35, 0.5))
    out = tmp_path / "out"
    run_pipeline(RunConfig(input=str(csv), samples=600, seed=5, out_dir=str(out)))
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
            input=str(csv), metric="f1:p", samples=4000, seed=2,
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
    result = run_pipeline(RunConfig(input=str(csv), samples=300, seed=1, out_dir=str(out)))
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
        RunConfig(input=str(csv), metric="mae", samples=400, seed=9, out_dir=str(out))
    )
    assert result.ranking[0] == "close"
    rep = json.loads((out / "report.json").read_text())
    assert rep["ppi"] is None
    assert rep["cv_comparable"] is False
    # positive delta means the reference (lower error) is better
    diffs = json.loads((out / "differences.json").read_text())
    assert diffs["comparisons"][0]["observed_delta"] > 0


def test_md_tables_round_trip_to_four_decimals(tmp_path):
    csv = write_classification_csv(tmp_path / "comp.csv")
    out = tmp_path / "out"
    run_pipeline(RunConfig(input=str(csv), samples=400, seed=4, out_dir=str(out)))
    payload = json.loads((out / "performance.json").read_text())
    header, rows = read_md_table(out / "performance.md")
    assert header == ["system", "observed", "lci", "mean", "uci"]
    for row, entry in zip(rows, payload["systems"]):
        assert row[0] == entry["system"]
        assert float(row[1]) == round(entry["observed"], 4)
        assert float(row[2]) == round(entry["lci"], 4)
        assert float(row[4]) == round(entry["uci"], 4)


def test_every_table_round_trips_at_printed_precision(tmp_path):
    # parse back each serialized table and compare against the full-precision
    # JSON: values must agree at the precision they were printed with
    csv = write_classification_csv(tmp_path / "comp.csv", noises=(0.1, 0.25, 0.4))
    out = tmp_path / "out"
    run_pipeline(RunConfig(input=str(csv), samples=600, seed=12, out_dir=str(out)))

    def csv_rows(stem):
        lines = (out / f"{stem}.csv").read_text().splitlines()
        header = lines[0].split(",")
        return header, [line.split(",") for line in lines[1:]]

    perf = json.loads((out / "performance.json").read_text())["systems"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        _, rows = parser("performance")
        for row, entry in zip(rows, perf):
            for col, key in ((1, "observed"), (2, "lci"), (3, "mean"), (4, "uci")):
                assert float(row[col]) == round(entry[key], 4)

    diffs = json.loads((out / "differences.json").read_text())["comparisons"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        _, rows = parser("differences")
        for row, entry in zip(rows, diffs):
            assert float(row[1]) == round(entry["observed_delta"], 4)
            assert float(row[2]) == round(entry["lci"], 4)
            assert row[5] == str(entry["contains_zero"]).lower()

    pvals = json.loads((out / "pvalues.json").read_text())["comparisons"]
    for parser in (csv_rows, lambda s: read_md_table(out / f"{s}.md")):
        header, rows = parser("pvalues")
        for row, entry in zip(rows, pvals):
            assert float(row[2]) == round(entry["delta"], 3)
            assert float(row[3]) == round(entry["p_value"], 4)
            for col, key in enumerate(header[4:], start=4):
                assert float(row[col]) == round(entry[key.replace("-", "_")], 4)

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
            assert float(cell[0]) == round(entry["delta"], 3)
            stars = cell[1] if len(cell) > 1 else ""
            assert stars == entry["stars"]


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
    assert "input" in err and "row 3" in err

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
    csv.write_text("y,a,b\n1.5e308,0,1.0\n2.0,2.0,2.0\n0,0,1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "--input", str(csv), "--metric", "mae", "--samples", "200", "--out-dir", str(out),
        "--formats", "json",
    ]) == 0
    performance = json.loads(
        (out / "performance.json").read_text(encoding="utf-8"), parse_constant=reject_constant
    )
    rows = {row["system"]: row for row in performance["systems"]}
    for name, abs_err in (("a", [1.5e308, 0.0, 0.0]), ("b", [1.5e308 - 1.0, 0.0, 1.0])):
        assert math.isclose(rows[name]["observed"], math.fsum(abs_err) / 3, rel_tol=1e-15)
        assert rows[name]["uci"] == 1.5e308
    for row in performance["systems"]:
        assert math.isfinite(row["mean"]) and row["mean"] <= row["uci"]


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
            input=str(csv), samples=300, seed=8, family="vs_winner",
            corrections=corrections, out_dir=str(out),
        )
    )
    payload = json.loads((out / "pvalues.json").read_text())
    winner = result.ranking[0]
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
