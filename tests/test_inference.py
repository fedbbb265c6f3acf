import tracemalloc

import numpy as np
import pytest

from boardstats import inference
from boardstats.bootstrap import SamplingDistribution, distributions
from boardstats.errors import MetricError
from boardstats.inference import (
    PairedDelta,
    delta_from_distributions,
    difference_ci,
    difference_matrix,
    matrix_from_distributions,
    p_value,
    paired_difference,
    significance_stars,
)
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec


def make_pd(values, observed, reference="a", competitor="b"):
    return PairedDelta(
        reference=reference,
        competitor=competitor,
        delta_values=np.asarray(values, dtype=float),
        observed_delta=float(observed),
    )


def test_self_comparison_is_all_zero():
    table = PredictionTable.build(["x", "y"] * 10, {"a": ["x", "y"] * 10})
    pd = paired_difference(
        table, ScoreSpec.accuracy(), BootstrapPlan(replicates=200, seed=1), "a", "a"
    )
    assert pd.observed_delta == 0.0
    assert np.all(pd.delta_values == 0.0)
    ci = difference_ci(pd, 0.95)
    assert (ci.lci, ci.mean, ci.uci) == (0.0, 0.0, 0.0)
    assert ci.contains_zero
    # equal performance can never be rejected for identical predictions
    assert p_value(pd) == 1.0


def test_p_value_hand_count():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.35, 0.31, 0.29, 0.05, 0.6]
    pd = make_pd(values, 0.15)
    # threshold 2*0.15 = 0.30, strict: 0.4, 0.5, 0.35, 0.31, 0.6 exceed it
    assert p_value(pd) == 0.5


def test_p_value_strictness_at_exact_double():
    pd = make_pd([0.2, 0.2, 0.2, 0.2], 0.1)
    assert p_value(pd) == 0.0


def test_all_values_at_observed_delta_give_zero():
    pd = make_pd([0.15] * 20, 0.15)
    assert p_value(pd) == 0.0


def test_zero_observed_delta_counts_strictly_positive():
    pd = make_pd([-0.1, 0.0, 0.05, 0.2], 0.0)
    assert p_value(pd) == 0.5


def test_significance_stars():
    assert significance_stars(0.0005) == "***"
    assert significance_stars(0.0012) == "**"
    assert significance_stars(0.03) == "*"
    assert significance_stars(0.0551) == "†"
    assert significance_stars(0.5) == ""
    # thresholds are strict
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.05) == "†"
    assert significance_stars(0.1) == ""
    with pytest.raises(ValueError):
        significance_stars(1.2)


def _two_dists(obs_a, obs_b, vals_a, vals_b):
    return (
        SamplingDistribution(values=np.asarray(vals_a, float), observed=obs_a),
        SamplingDistribution(values=np.asarray(vals_b, float), observed=obs_b),
    )


def test_a_pair_keeps_the_callers_orientation():
    da, db = _two_dists(0.4, 0.6, [0.41, 0.39], [0.61, 0.59])
    pd = delta_from_distributions("a", "b", da, db, ScoreSpec.accuracy())
    assert (pd.reference, pd.competitor) == ("a", "b")
    assert pd.observed_delta == pytest.approx(-0.2)
    assert np.allclose(pd.delta_values, [-0.2, -0.2])


def test_antisymmetry_of_fixed_orientation():
    da, db = _two_dists(0.7, 0.5, [0.72, 0.68, 0.71], [0.52, 0.48, 0.51])
    spec = ScoreSpec.accuracy()
    ab = delta_from_distributions("a", "b", da, db, spec)
    ba = delta_from_distributions("b", "a", db, da, spec)
    assert ab.observed_delta == -ba.observed_delta
    assert np.array_equal(ab.delta_values, -ba.delta_values)


def test_lower_better_sign_flip():
    # reference has the smaller error, so it is better: delta must be positive
    da, db = _two_dists(1.0, 3.0, [1.1, 0.9], [3.1, 2.9])
    pd = delta_from_distributions("a", "b", da, db, ScoreSpec.mae())
    assert pd.observed_delta == pytest.approx(2.0)
    assert np.all(pd.delta_values > 0)


def test_p_value_monotone_in_shift():
    g = np.random.default_rng(4)
    base = g.normal(0.2, 0.05, size=500)
    previous = 1.0
    for shift in (-0.1, -0.05, 0.0, 0.05, 0.1):
        pd = make_pd(base + shift, 0.2 + shift)
        current = p_value(pd)
        assert current <= previous + 1e-12
        previous = current


def test_difference_ci_straddle_flag():
    pd = make_pd(np.linspace(-0.05, 0.1, 100), 0.02)
    ci = difference_ci(pd, 0.95)
    assert ci.contains_zero
    pd2 = make_pd(np.linspace(0.01, 0.2, 100), 0.1)
    assert not difference_ci(pd2, 0.95).contains_zero


def test_difference_matrix_two_identical_systems():
    table = PredictionTable.build(
        ["x", "y"] * 8, {"a": ["x", "y"] * 8, "b": ["x", "y"] * 8}
    )
    dm = difference_matrix(table, ScoreSpec.accuracy(), BootstrapPlan(replicates=100, seed=2))
    assert dm.systems == ("a", "b")
    entry = dm.entry(1, 0)
    assert entry.delta == 0.0
    assert entry.stars == ""


@pytest.mark.parametrize("metric", ["accuracy", "mae"])
def test_difference_matrix_matches_pairwise_recomputation(metric, monkeypatch):
    # two competitors per kernel call, so the winner's three span a 2-row call
    # and a 1-row call that leaves a stale row in the reused delta buffer
    monkeypatch.setattr(inference, "_PAIR_BLOCK_BYTES", 2 * 8 * 800)
    g = np.random.default_rng(11)
    if metric == "accuracy":
        spec, kind = ScoreSpec.accuracy(), "classification"
        gold = g.choice(["p", "q", "r"], size=90)
    else:
        spec, kind = ScoreSpec.mae(), "regression"
        gold = g.normal(size=90)
    systems = {}
    for k, noise in enumerate((0.1, 0.25, 0.45)):
        pred = gold.copy()
        flips = g.random(90) < noise
        if metric == "accuracy":
            pred[flips] = g.choice(["p", "q", "r"], size=int(flips.sum()))
        else:
            pred[flips] += g.normal(size=int(flips.sum()))
        systems[f"s{k}"] = pred
    systems["s1_copy"] = systems["s1"].copy()  # identical pair: the guard gives p = 1
    table = PredictionTable.build(gold, systems, task_kind=kind)
    plan = BootstrapPlan(replicates=800, seed=3)

    dm = difference_matrix(table, spec, plan)
    dists = distributions(table, spec, plan)
    sign = 1.0 if metric == "accuracy" else -1.0
    assert len(dm.entries) == 6
    for (i, j), entry in dm.entries.items():
        assert j < i
        pd = paired_difference(table, spec, plan, dm.systems[j], dm.systems[i])
        # bit for bit: MAE's identical pair has deltas of -0.0, which == cannot
        # tell from +0.0; the plain signed difference is the reference
        ref, comp = dists[dm.systems[j]], dists[dm.systems[i]]
        assert pd.delta_values.tobytes() == (sign * (ref.values - comp.values)).tobytes()
        assert float.hex(pd.observed_delta) == float.hex(sign * (ref.observed - comp.observed))
        expected = (pd.observed_delta, p_value(pd), *difference_ci(pd, plan.confidence))
        assert [float.hex(x) for x in (entry.delta, entry.p, *entry.ci)] == [
            float.hex(x) for x in expected
        ]
    copy = dm.entry(dm.systems.index("s1_copy"), dm.systems.index("s1"))
    assert (copy.delta, copy.p, copy.stars) == (0.0, 1.0, "")
    # ranked best first
    observed = [
        float(np.mean(table.systems[name] == table.gold)) if metric == "accuracy"
        else -float(np.mean(np.abs(table.systems[name] - table.gold)))
        for name in dm.systems
    ]
    assert observed == sorted(observed, reverse=True)


def test_difference_matrix_needs_two_systems():
    table = PredictionTable.build(["x"], {"only": ["x"]})
    with pytest.raises(ValueError):
        difference_matrix(table, ScoreSpec.accuracy(), BootstrapPlan(replicates=10, seed=0))


def test_matrix_pass_memory_is_bounded_by_its_delta_buffer():
    g = np.random.default_rng(4)
    dists = {
        f"s{k}": SamplingDistribution(g.normal(0.5 + 1e-3 * k, 0.01, 10_000), 0.5 + 1e-3 * k)
        for k in range(40)
    }
    tracemalloc.start()
    try:
        matrix_from_distributions(dists, ScoreSpec.accuracy(), 0.95)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one reused delta buffer and the endpoints' copy of it, plus the entries
    assert peak < 2 * inference._PAIR_BLOCK_BYTES + (512 << 10)


@pytest.mark.parametrize("short", [1, 99])
def test_mismatched_replicate_counts_name_the_system(short):
    g = np.random.default_rng(6)
    dists = {
        "a": SamplingDistribution(g.random(100), 0.9),
        "b": SamplingDistribution(g.random(100), 0.8),
        "c": SamplingDistribution(g.random(short), 0.7),
    }
    with pytest.raises(ValueError, match="'c' has %d bootstrap values, but 'a' has 100" % short):
        matrix_from_distributions(dists, ScoreSpec.accuracy(), 0.95)
    with pytest.raises(ValueError, match="'c' has %d bootstrap values, but 'b' has 100" % short):
        delta_from_distributions("b", "c", dists["b"], dists["c"], ScoreSpec.accuracy())



def test_a_single_pair_near_the_float_maximum_behaves_as_the_matrix_does():
    values = np.array([1.7e308, 1.6e308, 1.5e308])
    a = SamplingDistribution(values, 1.6e308)
    b = SamplingDistribution(-values, -1.6e308)
    message = "the accuracy difference of 'a' and 'b' or its CI is not finite"
    with pytest.raises(MetricError, match=message) as single:
        delta_from_distributions("a", "b", a, b, ScoreSpec.accuracy())
    with pytest.raises(MetricError, match=message):
        matrix_from_distributions({"a": a, "b": b}, ScoreSpec.accuracy(), 0.95)
    assert single.value.stage == "bootstrap"
    # finite observed scores, a replicate delta past the maximum
    with pytest.raises(MetricError, match="difference of 'a' and 'c'"):
        delta_from_distributions("a", "c", SamplingDistribution(values, 0.0),
                                 SamplingDistribution(-values, 0.0), ScoreSpec.accuracy())
    # finite deltas whose double, the p-value's threshold, is past it
    a = SamplingDistribution(np.array([1.0e308, 1.1e308, 0.9e308]), 1.0e308)
    b = SamplingDistribution(np.zeros(3), 0.0)
    pd = delta_from_distributions("a", "b", a, b, ScoreSpec.accuracy())
    entry = matrix_from_distributions({"a": a, "b": b}, ScoreSpec.accuracy(), 0.95).entry(1, 0)
    assert p_value(pd) == entry.p == 0.0
    assert difference_ci(pd, 0.95) == entry.ci
