"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (past pytest's capture) so the gate can
be read off the run log directly.  The calibrated stance fixtures come from
conftest; their construction is deterministic, so expected observed scores
and deltas are exact to four decimals.
"""

import hashlib
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from boardstats.bootstrap import distributions
from boardstats.corrections import PValueFamily, adjust, adjust_all, build_families
from boardstats.dataio import RunConfig
from boardstats.inference import delta_from_distributions
from boardstats.metrics import score
from boardstats.pipeline import run_pipeline
from boardstats.plots import render_delta_histogram, render_difference_plot
from boardstats.report import cv, ppi, tie_counts, win_med_gap
from boardstats.synth import LabelNoise, SynthConfig, calibrate
from boardstats.table import BootstrapPlan, ScoreSpec

from conftest import SMALL_TARGETS, STANCE_SUBSET

SVG = "{http://www.w3.org/2000/svg}"

TABLE5 = {
    ("r1", "r2"): 0.2030,
    ("r1", "r3"): 0.0551,
    ("r1", "r4"): 0.0012,
    ("r1", "r5"): 0.0000,
    ("r2", "r3"): 0.1490,
    ("r2", "r4"): 0.0039,
    ("r2", "r5"): 0.0000,
    ("r3", "r4"): 0.0330,
    ("r3", "r5"): 0.0003,
    ("r4", "r5"): 0.0427,
}
RANKED5 = ["r1", "r2", "r3", "r4", "r5"]


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(cid, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {cid} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {cid} ({label}): PASS")

    return run


def test_criterion_1_correction_oracle(criterion):
    with criterion(1, "correction oracle"):
        start = time.perf_counter()
        families = build_families(RANKED5, TABLE5, "per_reference")
        expected = {
            ("r1", "r2"): (0.8120, 0.2030, 0.2030),
            ("r1", "r3"): (0.2204, 0.1102, 0.0735),
            ("r1", "r4"): (0.0048, 0.0036, 0.0024),
            ("r1", "r5"): (0.0000, 0.0000, 0.0000),
            ("r2", "r3"): (0.4470, 0.1490, 0.1490),
            ("r2", "r4"): (0.0117, 0.0078, 0.0058),
            ("r2", "r5"): (0.0000, 0.0000, 0.0000),
            ("r3", "r4"): (0.0660, 0.0330, 0.0330),
            ("r3", "r5"): (0.0006, 0.0006, 0.0006),
            ("r4", "r5"): (0.0427, 0.0427, 0.0427),
        }
        adjusted = adjust_all(families)
        for pair, (bonf, holm, bh) in expected.items():
            assert round(adjusted[pair]["bonferroni"], 4) == bonf, pair
            assert round(adjusted[pair]["holm"], 4) == holm, pair
            assert round(adjusted[pair]["bh"], 4) == bh, pair
        # the FDR output is the BH output, row for row
        for family in families:
            assert adjust(family, "bh") == adjust(family, "bh")
        assert time.perf_counter() - start < 1.0


def test_criterion_2_tie_count_oracle(criterion):
    with criterion(2, "tie-count oracle"):
        start = time.perf_counter()
        adjusted = adjust_all(build_families(RANKED5, TABLE5, "per_reference"))
        with_winner, all_pairs = tie_counts(TABLE5, adjusted, "r1", alpha=0.05)
        assert with_winner == {"none": 2, "bonferroni": 2, "holm": 2, "bh": 2}
        assert all_pairs == {"none": 3, "bonferroni": 4, "holm": 3, "bh": 3}
        assert time.perf_counter() - start < 1.0


def test_criterion_3_competition_metric_oracle(criterion):
    with criterion(3, "competition metrics"):
        start = time.perf_counter()
        small = [0.5734, 0.5465, 0.5024, 0.4256, 0.3428]
        large = [0.8092, 0.7906, 0.7410, 0.6738, 0.6404]
        spec = ScoreSpec.macro_f1(["favor", "against"])
        assert cv(small) == pytest.approx(19.680, abs=0.01)
        assert cv(large) == pytest.approx(9.970, abs=0.01)
        assert ppi(small[0], spec) == pytest.approx(42.660, abs=0.005)
        assert ppi(large[0], spec) == pytest.approx(19.084, abs=0.005)
        assert round(win_med_gap(small), 3) == 0.071
        assert round(win_med_gap(large), 3) == 0.068
        m = len(small)
        assert m * (m - 1) // 2 == 10
        assert time.perf_counter() - start < 1.0


def test_criterion_4_observed_delta_oracle(criterion, stance_small):
    with criterion(4, "observed deltas"):
        spec = ScoreSpec.macro_f1(STANCE_SUBSET)
        observed = {
            name: score(stance_small.gold, stance_small.systems[name], spec)
            for name in stance_small.names
        }
        for name, (target, _) in SMALL_TARGETS.items():
            assert round(observed[name], 4) == target, name
        assert round(observed["alpha.01"] - observed["charlie.01"], 4) == 0.1478
        assert round(observed["alpha.01"] - observed["alpha.02"], 4) == 0.0269
        plan = BootstrapPlan(replicates=50, seed=1)
        ref, comp = "alpha.01", "charlie.01"
        dists = distributions(stance_small, spec, plan, systems=[ref, comp])
        entry, _ = delta_from_distributions(ref, comp, dists[ref], dists[comp], spec, 0.95)
        assert round(entry.delta, 4) == 0.1478


def test_criterion_5a_ci_coverage(criterion):
    # raw competition predictions are unpublished, so interval endpoints are
    # checked by construction instead: the 95% CI must cover the known
    # population score in 95% +- 3% of fresh synthetic competitions
    with criterion(5, "a: CI coverage 95% +- 3%"):
        cfg = SynthConfig(
            n=500, seed=1234,
            labels=("a", "b", "c"), label_probs=(0.4, 0.35, 0.25),
            systems={"solo": LabelNoise(rate=0.25)},
        )
        out = calibrate(cfg, BootstrapPlan(replicates=2000, seed=77), trials=500)
        assert 0.92 <= out.coverage <= 0.98, out.coverage
        # soft companion property: the observed score sits inside its own CI
        assert out.observed_in_ci >= 0.99


def test_criterion_5b_null_pvalue_uniformity(criterion):
    with criterion(5, "b: null p-value uniformity, KS < 0.08"):
        cfg = SynthConfig(
            n=500, seed=4321,
            labels=("a", "b", "c"), label_probs=(0.4, 0.35, 0.25),
            systems={"first": LabelNoise(rate=0.3), "second": LabelNoise(rate=0.3)},
        )
        out = calibrate(cfg, BootstrapPlan(replicates=1000, seed=55), trials=500)
        assert out.ks_distance is not None
        assert out.ks_distance < 0.08, out.ks_distance


def test_criterion_5c_pvalue_bands_on_calibrated_data(criterion, stance_small):
    # the two reference pairs: p near 0.0014 and near 0.2064, within +-0.02
    # in at least 90% of seeds
    with criterion(5, "c: p-value bands on calibrated data"):
        spec = ScoreSpec.macro_f1(STANCE_SUBSET)
        seeds = range(20)
        hit_small, hit_large = 0, 0
        for seed in seeds:
            plan = BootstrapPlan(replicates=10_000, seed=seed)
            dists = distributions(
                stance_small, spec, plan,
                systems=["alpha.01", "alpha.02", "charlie.01"],
            )
            clear, _ = delta_from_distributions(
                "alpha.01", "charlie.01", dists["alpha.01"], dists["charlie.01"], spec, 0.95
            )
            tied, _ = delta_from_distributions(
                "alpha.01", "alpha.02", dists["alpha.01"], dists["alpha.02"], spec, 0.95
            )
            if abs(clear.p - 0.0014) <= 0.02:
                hit_small += 1
            if abs(tied.p - 0.2064) <= 0.02:
                hit_large += 1
        assert hit_small >= 0.9 * len(seeds), hit_small
        assert hit_large >= 0.9 * len(seeds), hit_large


def test_criterion_6_determinism(criterion, stance_small_with_gold, tmp_path):
    with criterion(6, "determinism"):
        table = stance_small_with_gold
        csv = tmp_path / "comp.csv"
        lines = ["y," + ",".join(table.names)]
        for i in range(table.n):
            lines.append(
                ",".join([str(table.gold[i])] + [str(table.systems[s][i]) for s in table.names])
            )
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

        def run(tag, workers):
            out = tmp_path / f"out_{tag}"
            run_pipeline(
                RunConfig(
                    input=str(csv), metric="macro-f1:favor,against",
                    plan=BootstrapPlan(replicates=2000, seed=99, workers=workers),
                    out_dir=str(out),
                )
            )
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }

        w1, w4, w8 = run("w1", 1), run("w4", 4), run("w8", 8)
        assert w1 == w4 == w8
        r2, r3 = run("r2", 1), run("r3", 1)
        assert w1 == r2 == r3


def test_criterion_7_metric_correctness(criterion):
    with criterion(7, "metric correctness"):
        gold = ["F", "F", "F", "N", "A", "A"]
        pred = ["F", "F", "A", "F", "A", "N"]
        assert round(score(gold, pred, ScoreSpec.macro_f1(["F", "A"])), 4) == 0.5833
        labels = ["F", "N", "A", "F", "A", "N"]
        for spec in (
            ScoreSpec.accuracy(),
            ScoreSpec.f1("F"),
            ScoreSpec.macro_f1(["F", "A"]),
            ScoreSpec.macro_f1(["F", "N", "A"]),
        ):
            assert score(labels, labels, spec) == 1.0


def test_criterion_8_correction_properties(criterion):
    with criterion(8, "correction properties"):
        g = np.random.default_rng(2718)
        tol = 1e-12
        for _ in range(1000):
            k = int(g.integers(1, 51))
            raw = g.random(k)
            family = PValueFamily(tuple(enumerate(raw)))
            bonf = adjust(family, "bonferroni")
            holm = adjust(family, "holm")
            bh = adjust(family, "bh")
            order = np.argsort(raw, kind="stable")
            for out in (bonf, holm, bh):
                values = np.array([out[i] for i in range(k)])
                assert np.all(values >= raw - tol)
                assert np.all(values >= 0.0) and np.all(values <= 1.0)
                ranked = values[order]
                assert np.all(np.diff(ranked) >= -tol)
            for i in range(k):
                assert bonf[i] >= holm[i] - tol
                assert holm[i] >= bh[i] - tol


def test_criterion_9_plot_contracts(criterion, stance_small):
    with criterion(9, "plot contracts"):
        spec = ScoreSpec.macro_f1(STANCE_SUBSET)
        plan = BootstrapPlan(replicates=4000, seed=31)
        dists = distributions(stance_small, spec, plan)

        winner = "alpha.01"
        diffs = []
        for comp in ("alpha.02", "bravo.01", "charlie.01", "bravo.02"):
            entry, _ = delta_from_distributions(
                winner, comp, dists[winner], dists[comp], spec, 0.95
            )
            diffs.append((comp, entry.ci))
        fig = render_difference_plot(diffs, reference=winner)
        root = ET.fromstring(fig.svg)
        straddlers = set()
        for gnode in root.iter(f"{SVG}g"):
            if gnode.get("class") != "comparison":
                continue
            line = next(
                l for l in gnode.iter(f"{SVG}line") if "interval" in (l.get("class") or "")
            )
            is_red = line.get("stroke") == "#c0392b"
            expected = gnode.get("data-contains-zero") == "true"
            assert is_red == expected
            if is_red:
                straddlers.add(gnode.get("data-name"))
        assert straddlers == {n for n, ci in diffs if ci.contains_zero}
        assert "alpha.02" in straddlers  # the near-tied runner-up
        assert "charlie.01" not in straddlers

        entry, deltas = delta_from_distributions(
            winner, "charlie.01", dists[winner], dists["charlie.01"], spec, 0.95
        )
        hist = render_delta_histogram(entry, deltas)
        edges = np.asarray(hist.data["bin_edges"])
        counts = np.asarray(hist.data["counts"])
        mass = counts[edges[:-1] >= 2 * entry.delta].sum() / plan.replicates
        assert abs(mass - entry.p) <= 1 / plan.replicates + 1e-12
