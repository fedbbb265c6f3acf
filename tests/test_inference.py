import tracemalloc

import numpy as np
import pytest

from boardstats import inference
from boardstats.bootstrap import SamplingDistribution, distributions
from boardstats.errors import MetricError
from boardstats.inference import (
    delta_from_distributions,
    difference_ci,
    matrix_from_distributions,
    significance_stars,
)
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec


def compare(values, observed):
    """The entry and delta row of a pair whose deltas are exactly ``values``:
    a distribution holding them against an all-zero one."""
    values = np.asarray(values, dtype=float)
    return delta_from_distributions(
        "a", "b", SamplingDistribution(values, float(observed)),
        SamplingDistribution(np.zeros_like(values), 0.0), ScoreSpec(metric="accuracy"), 0.95,
    )


def test_self_comparison_is_all_zero():
    table = PredictionTable.build(["x", "y"] * 10, {"a": ["x", "y"] * 10})
    spec = ScoreSpec(metric="accuracy")
    (dist,) = distributions(table, spec, BootstrapPlan(replicates=200, seed=1)).values()
    entry, deltas = delta_from_distributions("a", "a", dist, dist, spec, 0.95)
    assert entry.delta == 0.0
    assert np.all(deltas == 0.0)
    assert (entry.ci.lci, entry.ci.mean, entry.ci.uci) == (0.0, 0.0, 0.0)
    assert entry.ci.contains_zero
    assert difference_ci(deltas, 0.95) == entry.ci
    # equal performance can never be rejected for identical predictions
    assert (entry.p, entry.stars) == (1.0, "")


def test_p_value_hand_count():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.35, 0.31, 0.29, 0.05, 0.6]
    entry, deltas = compare(values, 0.15)
    assert deltas.tolist() == values
    # threshold 2*0.15 = 0.30, strict: 0.4, 0.5, 0.35, 0.31, 0.6 exceed it
    assert entry.p == 0.5


def test_p_value_strictness_at_exact_double():
    assert compare([0.2, 0.2, 0.2, 0.2], 0.1)[0].p == 0.0


def test_all_values_at_observed_delta_give_zero():
    assert compare([0.15] * 20, 0.15)[0].p == 0.0


def test_zero_observed_delta_counts_strictly_positive():
    assert compare([-0.1, 0.0, 0.05, 0.2], 0.0)[0].p == 0.5


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
    entry, deltas = delta_from_distributions("a", "b", da, db, ScoreSpec(metric="accuracy"), 0.95)
    assert (entry.reference, entry.competitor) == ("a", "b")
    assert entry.delta == pytest.approx(-0.2)
    assert np.allclose(deltas, [-0.2, -0.2])


def test_antisymmetry_of_fixed_orientation():
    da, db = _two_dists(0.7, 0.5, [0.72, 0.68, 0.71], [0.52, 0.48, 0.51])
    spec = ScoreSpec(metric="accuracy")
    ab, ab_deltas = delta_from_distributions("a", "b", da, db, spec, 0.95)
    ba, ba_deltas = delta_from_distributions("b", "a", db, da, spec, 0.95)
    assert ab.delta == -ba.delta
    assert np.array_equal(ab_deltas, -ba_deltas)


def test_lower_better_sign_flip():
    # reference has the smaller error, so it is better: delta must be positive
    da, db = _two_dists(1.0, 3.0, [1.1, 0.9], [3.1, 2.9])
    entry, deltas = delta_from_distributions("a", "b", da, db, ScoreSpec(metric="mae"), 0.95)
    assert entry.delta == pytest.approx(2.0)
    assert np.all(deltas > 0)


def test_p_value_monotone_in_shift():
    g = np.random.default_rng(4)
    base = g.normal(0.2, 0.05, size=500)
    previous = 1.0
    for shift in (-0.1, -0.05, 0.0, 0.05, 0.1):
        current = compare(base + shift, 0.2 + shift)[0].p
        assert current <= previous + 1e-12
        previous = current


def test_difference_ci_straddle_flag():
    entry, deltas = compare(np.linspace(-0.05, 0.1, 100), 0.02)
    assert entry.ci.contains_zero
    assert difference_ci(deltas, 0.95) == entry.ci
    entry, deltas = compare(np.linspace(0.01, 0.2, 100), 0.1)
    assert not entry.ci.contains_zero
    assert difference_ci(deltas, 0.95) == entry.ci


def test_difference_matrix_two_identical_systems():
    table = PredictionTable.build(
        ["x", "y"] * 8, {"a": ["x", "y"] * 8, "b": ["x", "y"] * 8}
    )
    spec = ScoreSpec(metric="accuracy")
    dists = distributions(table, spec, BootstrapPlan(replicates=100, seed=2))
    dm = matrix_from_distributions(dists, spec, 0.95)
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
        spec, kind = ScoreSpec(metric="accuracy"), "classification"
        gold = g.choice(["p", "q", "r"], size=90)
    else:
        spec, kind = ScoreSpec(metric="mae"), "regression"
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

    dists = distributions(table, spec, plan)
    dm = matrix_from_distributions(dists, spec, plan.confidence)
    sign = 1.0 if metric == "accuracy" else -1.0
    assert len(dm.entries) == 6
    for (i, j), entry in dm.entries.items():
        assert j < i
        # the reference: the pair bootstrapped on its own
        reference, competitor = dm.systems[j], dm.systems[i]
        pair = distributions(table, spec, plan, systems=[reference, competitor])
        single, deltas = delta_from_distributions(
            reference, competitor, pair[reference], pair[competitor], spec, plan.confidence
        )
        assert not deltas.flags.writeable
        # bit for bit: MAE's identical pair has deltas of -0.0, which == cannot
        # tell from +0.0; the plain signed difference is the reference
        ref, comp = dists[dm.systems[j]], dists[dm.systems[i]]
        assert deltas.tobytes() == (sign * (ref.values - comp.values)).tobytes()
        assert float.hex(single.delta) == float.hex(sign * (ref.observed - comp.observed))
        assert single == entry
        assert [float.hex(x) for x in (entry.delta, entry.p, *entry.ci)] == [
            float.hex(x) for x in (single.delta, single.p, *single.ci)
        ]
        assert difference_ci(deltas, plan.confidence) == entry.ci
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
    spec = ScoreSpec(metric="accuracy")
    dists = distributions(table, spec, BootstrapPlan(replicates=10, seed=0))
    with pytest.raises(ValueError):
        matrix_from_distributions(dists, spec, 0.95)


def test_matrix_pass_memory_is_bounded_by_its_delta_buffer():
    g = np.random.default_rng(4)
    dists = {
        f"s{k}": SamplingDistribution(g.normal(0.5 + 1e-3 * k, 0.01, 10_000), 0.5 + 1e-3 * k)
        for k in range(40)
    }
    tracemalloc.start()
    try:
        matrix_from_distributions(dists, ScoreSpec(metric="accuracy"), 0.95)
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
        matrix_from_distributions(dists, ScoreSpec(metric="accuracy"), 0.95)
    with pytest.raises(ValueError, match="'c' has %d bootstrap values, but 'b' has 100" % short):
        delta_from_distributions("b", "c", dists["b"], dists["c"], ScoreSpec(metric="accuracy"), 0.95)


def test_a_single_pair_near_the_float_maximum_behaves_as_the_matrix_does():
    values = np.array([1.7e308, 1.6e308, 1.5e308])
    a = SamplingDistribution(values, 1.6e308)
    b = SamplingDistribution(-values, -1.6e308)
    message = "the accuracy difference of 'a' and 'b' or its CI is not finite"
    with pytest.raises(MetricError, match=message) as single:
        delta_from_distributions("a", "b", a, b, ScoreSpec(metric="accuracy"), 0.95)
    with pytest.raises(MetricError, match=message):
        matrix_from_distributions({"a": a, "b": b}, ScoreSpec(metric="accuracy"), 0.95)
    assert single.value.stage == "bootstrap"
    # finite observed scores, a replicate delta past the maximum
    with pytest.raises(MetricError, match="difference of 'a' and 'c'"):
        delta_from_distributions("a", "c", SamplingDistribution(values, 0.0),
                                 SamplingDistribution(-values, 0.0), ScoreSpec(metric="accuracy"), 0.95)
    # finite deltas whose double, the p-value's threshold, is past it
    a = SamplingDistribution(np.array([1.0e308, 1.1e308, 0.9e308]), 1.0e308)
    b = SamplingDistribution(np.zeros(3), 0.0)
    pair, _ = delta_from_distributions("a", "b", a, b, ScoreSpec(metric="accuracy"), 0.95)
    entry = matrix_from_distributions({"a": a, "b": b}, ScoreSpec(metric="accuracy"), 0.95).entry(1, 0)
    assert pair == entry
    assert entry.p == 0.0


def _spread(*extremes, size=100):
    """``size`` values of 1.0 with ``extremes`` at the end."""
    return np.concatenate([np.ones(size - len(extremes)), extremes])


# (reference values, observed) against the negated competitor; whether the
# pair's delta or CI is not finite
NEAR_THE_MAXIMUM = {
    "observed past it": (_spread(), 1.6e308, True),
    # the endpoints stay finite; the CI's mean does not
    "one replicate past it": (_spread(1.7e308), 1.0, True),
    "every replicate past it": (np.full(100, 1.7e308), 1.0, True),
    # twice the delta overflows, the delta does not
    "double past it": (_spread(0.6e308), 0.6e308, False),
    # the float sum of the deltas overflows; the mean is taken scaled
    "sum past it": (np.full(100, 0.8e308), 0.8e308, False),
}


@pytest.mark.parametrize("values, observed, raises", NEAR_THE_MAXIMUM.values(),
                         ids=list(NEAR_THE_MAXIMUM))
@pytest.mark.parametrize("metric", ["accuracy", "mae"])
def test_one_pair_raises_exactly_when_the_matrix_does(values, observed, raises, metric):
    spec = ScoreSpec(metric="accuracy") if metric == "accuracy" else ScoreSpec(metric="mae")
    sign = 1.0 if metric == "accuracy" else -1.0
    better = SamplingDistribution(sign * values, sign * observed)
    worse = SamplingDistribution(-sign * values, -sign * observed)

    def single():
        return delta_from_distributions("a", "b", better, worse, spec, 0.95)[0]

    def matrix():
        return matrix_from_distributions({"b": worse, "a": better}, spec, 0.95).entry(1, 0)

    if raises:
        message = f"the {spec.display_name} difference of 'a' and 'b' or its CI is not finite"
        for compare_pair in (single, matrix):
            with pytest.raises(MetricError, match=message):
                compare_pair()
    else:
        assert single() == matrix()
        assert np.isfinite([single().delta, *single().ci]).all()
