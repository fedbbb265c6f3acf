import numpy as np
import pytest

from boardstats.bootstrap import distributions
from boardstats.corrections import adjust_all, build_families
from boardstats.errors import ConfigError
from boardstats.inference import matrix_from_distributions
from boardstats.report import build_report, cv, ppi, tie_counts, win_med_gap
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec

SMALL_SCORES = [0.5734, 0.5465, 0.5024, 0.4256, 0.3428]
LARGE_SCORES = [0.8092, 0.7906, 0.7410, 0.6738, 0.6404]


def test_cv_reference_values():
    assert cv(SMALL_SCORES) == pytest.approx(19.680, abs=0.01)
    assert cv(LARGE_SCORES) == pytest.approx(9.970, abs=0.01)


def test_cv_uses_sample_standard_deviation():
    # the population-sd variant would give ~17.60 for the first vector
    arr = np.asarray(SMALL_SCORES)
    population = 100 * arr.std(ddof=0) / arr.mean()
    assert abs(cv(SMALL_SCORES) - population) > 1.5


def test_cv_degenerate_cases():
    assert cv([0.4, 0.4, 0.4]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        cv([0.4])
    with pytest.raises(ValueError):
        cv([0.5, -0.5])


def test_cv_scale_invariance():
    scores = [0.3, 0.5, 0.9, 0.4]
    assert cv(scores) == pytest.approx(cv([3 * s for s in scores]), abs=1e-9)


def test_cv_power_of_two_scale_keeps_every_bit(stance_small, stance_large):
    spec = ScoreSpec.macro_f1(["favor", "against"])
    for table in (stance_small, stance_large):
        rep = build_report(table, spec, BootstrapPlan(replicates=50, seed=1))
        scores = np.array([rep.observed_scores[s] for s in rep.ranking])
        assert cv(scores) == 100.0 * scores.std(ddof=1) / scores.mean()
        for k in (-600, -7, 1, 9, 600):
            assert cv(np.ldexp(scores, k)) == cv(scores)
    # the plain sum overflows here
    assert cv([1.25e308, 1.6e308, 1.7e308]) == pytest.approx(cv([1.25, 1.6, 1.7]), rel=1e-15)
    # the plain sum overflows, but the scores' mean is exactly 0
    with pytest.raises(ValueError, match="zero mean"):
        cv([1.7e308, 1.7e308, -1.7e308, -1.7e308])


def test_ppi_values():
    spec = ScoreSpec.macro_f1(["favor", "against"])
    assert ppi(0.5734, spec) == pytest.approx(42.66, abs=0.005)
    assert ppi(0.8092, spec) == pytest.approx(19.08, abs=0.005)
    assert ppi(1.0, spec) == 0.0
    assert ppi(0.31, ScoreSpec.mae()) is None
    uncapped = ScoreSpec.custom("swing", lambda g, p: 0.0, capped_at_one=False)
    assert ppi(0.5, uncapped) is None


def test_win_med_gap():
    assert round(win_med_gap(SMALL_SCORES), 3) == 0.071
    assert round(win_med_gap(LARGE_SCORES), 3) == 0.068
    assert win_med_gap([0.9, 0.7]) == pytest.approx(0.2)
    assert win_med_gap([0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.2)  # even m: rank 3
    with pytest.raises(ValueError):
        win_med_gap([0.5])


TABLE5_RAW = {
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


def test_tie_counts_reference_case():
    ranked = ["r1", "r2", "r3", "r4", "r5"]
    adjusted = adjust_all(build_families(ranked, TABLE5_RAW, "per_reference"))
    with_winner, all_pairs = tie_counts(TABLE5_RAW, adjusted, "r1", alpha=0.05)
    assert with_winner == {"none": 2, "bonferroni": 2, "holm": 2, "bh": 2}
    assert all_pairs == {"none": 3, "bonferroni": 4, "holm": 3, "bh": 3}


def test_tie_counts_all_significant():
    pairs = [("a", "b"), ("a", "c")]
    raw = {p: 0.0 for p in pairs}
    adjusted = {p: {"bonferroni": 0.0, "holm": 0.0, "bh": 0.0} for p in pairs}
    with_winner, all_pairs = tie_counts(raw, adjusted, "a", alpha=0.05)
    assert set(with_winner.values()) == {0}
    assert set(all_pairs.values()) == {0}


def _three_system_table(seed=17, n=150):
    g = np.random.default_rng(seed)
    gold = g.choice(["u", "v"], size=n)
    systems = {}
    for name, noise in (("best", 0.1), ("mid", 0.2), ("worst", 0.4)):
        pred = gold.copy()
        flips = g.random(n) < noise
        pred[flips] = np.where(gold[flips] == "u", "v", "u")
        systems[name] = pred
    return PredictionTable.build(gold, systems)


def test_build_report_matches_component_recomputation():
    table = _three_system_table()
    spec = ScoreSpec.accuracy()
    plan = BootstrapPlan(replicates=1500, seed=23)
    rep = build_report(table, spec, plan)

    observed = {
        name: float(np.mean(table.systems[name] == table.gold))
        for name in table.names
    }
    ranked = sorted(observed, key=observed.get, reverse=True)
    scores = [observed[s] for s in ranked]

    assert rep.n == table.n
    assert rep.m == 3
    assert rep.possible_comparisons == 3
    assert rep.ranking == tuple(ranked)
    assert rep.cv == pytest.approx(cv(scores))
    assert rep.ppi == pytest.approx(ppi(scores[0], spec))
    assert rep.win_med_gap == pytest.approx(win_med_gap(scores))
    assert rep.plan is plan
    assert rep.panel()["alpha"] == plan.alpha and "workers" not in rep.run_record()
    assert (rep.run_record()["replicates"], rep.run_record()["seed"]) == (1500, 23)
    assert rep.metric == "accuracy"
    assert rep.quantile_rule == "linear"
    for method in ("none", "bonferroni", "holm", "bh"):
        assert 0 <= rep.ties_with_winner[method] <= rep.m - 1
        assert 0 <= rep.ties_all_pairs[method] <= rep.possible_comparisons
    # adjusted p-values only grow, so corrected ties can never drop
    assert rep.ties_with_winner["bonferroni"] >= rep.ties_with_winner["none"]
    assert rep.ties_all_pairs["bonferroni"] >= rep.ties_all_pairs["holm"] >= rep.ties_all_pairs["bh"] - 1
    # the pairwise comparisons and corrections the panel was counted from
    dists = distributions(table, spec, plan)
    assert rep.matrix == matrix_from_distributions(dists, spec, plan.confidence)
    raw = {(e.reference, e.competitor): e.p for e in rep.matrix.entries.values()}
    assert rep.adjusted == adjust_all(build_families(ranked, raw, "per_reference"))


def test_gold_alias_exclusion():
    gold = ["x", "y"] * 40
    table = PredictionTable.build(
        gold,
        {"Gold_Standard": gold, "a": gold, "b": ["x", "x"] * 40},
    )
    rep = build_report(table, ScoreSpec.accuracy(), BootstrapPlan(replicates=300, seed=5))
    assert rep.m == 2
    assert rep.excluded_systems == ("Gold_Standard",)
    assert "Gold_Standard" not in rep.ranking
    assert list(rep.distributions) == ["a", "b"]
    # "a" is a legitimately perfect competitor and must stay
    assert rep.ranking[0] == "a"


def test_vs_winner_policy_omits_all_pairs_counts():
    table = _three_system_table()
    rep = build_report(
        table, ScoreSpec.accuracy(), BootstrapPlan(replicates=300, seed=9),
        family_policy="vs_winner",
    )
    assert rep.ties_all_pairs is None
    assert set(rep.ties_with_winner) == {"none", "bonferroni", "holm", "bh"}
    assert set(rep.adjusted) == {(rep.ranking[0], s) for s in rep.ranking[1:]}


def test_single_competitor_is_an_error():
    gold = ["x", "y"] * 5
    table = PredictionTable.build(gold, {"only": gold})
    with pytest.raises(ConfigError):
        build_report(table, ScoreSpec.accuracy(), BootstrapPlan(replicates=50, seed=1))
    with_gold = PredictionTable.build(gold, {"Gold_Standard": gold, "only": gold})
    with pytest.raises(ConfigError):
        build_report(with_gold, ScoreSpec.accuracy(), BootstrapPlan(replicates=50, seed=1))


def test_ranking_tie_is_recorded_and_column_order_breaks_it():
    gold = ["x", "y"] * 30
    same = ["x", "x"] * 30
    table = PredictionTable.build(gold, {"second": same, "first": same})
    rep = build_report(table, ScoreSpec.accuracy(), BootstrapPlan(replicates=200, seed=2))
    assert rep.ranking == ("second", "first")
    assert set(rep.ranking_ties) == {"second", "first"}


def test_three_way_mae_tie_keeps_column_order():
    gold = np.arange(12, dtype=float)
    table = PredictionTable.build(
        gold,
        {
            "zeta": gold + 1.0,
            "best": gold,
            "alpha": gold - 1.0,
            "worst": gold + 2.0,
            "mid": gold + np.array([1.0, -1.0] * 6),
        },
        "regression",
    )
    plan = BootstrapPlan(replicates=100, seed=5)
    rep = build_report(table, ScoreSpec.mae(), plan)
    assert rep.ranking == ("best", "zeta", "alpha", "mid", "worst")
    assert rep.ranking_ties == ("zeta", "alpha", "mid")
    dists = distributions(table, ScoreSpec.mae(), plan)
    assert matrix_from_distributions(dists, ScoreSpec.mae(), plan.confidence).systems == rep.ranking


def test_mae_report_flags_cv_and_omits_ppi():
    g = np.random.default_rng(31)
    gold = g.normal(3.0, 1.0, size=80)
    table = PredictionTable.build(
        gold,
        {"close": gold + g.normal(0, 0.3, 80), "far": gold + g.normal(0, 1.0, 80)},
        "regression",
    )
    rep = build_report(table, ScoreSpec.mae(), BootstrapPlan(replicates=400, seed=3))
    assert rep.ppi is None
    assert not rep.cv_comparable
    assert rep.cv > 0
    # lower error ranks first
    assert rep.ranking[0] == "close"
