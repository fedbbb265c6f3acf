import numpy as np
import pytest

from boardstats import rng
from boardstats.bootstrap import (
    ResamplePlan,
    SamplingDistribution,
    distribution,
    distributions,
    percentile_ci,
    resample_indices,
    summarize,
)
from boardstats.metrics import score_on_indices
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec


def make_table(n=60, seed=3):
    g = np.random.default_rng(seed)
    gold = g.choice(["a", "b", "c"], size=n)
    noisy = gold.copy()
    flips = g.random(n) < 0.3
    noisy[flips] = g.choice(["a", "b", "c"], size=int(flips.sum()))
    return PredictionTable.build(gold, {"noisy": noisy, "perfect": gold})


def test_single_replicate_is_slice_of_stream():
    plan = ResamplePlan(n=37, replicates=50, seed=99)
    block = rng.index_block(99, 37, 0, 50)
    for r in (0, 1, 17, 49):
        assert np.array_equal(resample_indices(plan, r), block[r])


def test_indices_deterministic_and_in_range():
    plan = ResamplePlan(n=11, replicates=5, seed=123)
    a = resample_indices(plan, 3)
    b = resample_indices(plan, 3)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 11 and len(a) == 11


def test_n_one_always_yields_zero():
    plan = ResamplePlan(n=1, replicates=10, seed=1)
    for r in range(10):
        assert resample_indices(plan, r).tolist() == [0]


def test_replicate_id_out_of_range():
    plan = ResamplePlan(n=5, replicates=3, seed=0)
    with pytest.raises(ValueError):
        resample_indices(plan, 3)
    with pytest.raises(ValueError):
        resample_indices(plan, -1)


def test_index_frequencies_are_uniform():
    # 100k replicates of n=10: each index should fill 10% +- 0.5%
    idx = rng.index_block(2024, 10, 0, 100_000)
    freq = np.bincount(idx.ravel(), minlength=10) / idx.size
    assert np.all(np.abs(freq - 0.1) < 0.005)


def test_perfect_system_is_perfect_on_every_resample():
    table = make_table()
    plan = BootstrapPlan(replicates=500, seed=5)
    dist = distribution(table, "perfect", ScoreSpec.accuracy(), plan)
    assert np.all(dist.values == 1.0)
    assert dist.observed == 1.0


def test_b_one_with_single_row_is_identity():
    table = PredictionTable.build(["a"], {"s": ["a"]})
    plan = BootstrapPlan(replicates=2, seed=8)
    dist = distribution(table, "s", ScoreSpec.accuracy(), plan)
    assert dist.values.tolist() == [dist.observed] * 2 == [1.0, 1.0]


def test_distribution_matches_per_replicate_scoring_exactly():
    # the batched engine must agree bit for bit with scoring one replicate
    # at a time, for integer-count and float metrics alike
    table = make_table()
    plan = BootstrapPlan(replicates=64, seed=21)
    rplan = ResamplePlan(n=table.n, replicates=64, seed=21)
    for spec in (ScoreSpec.accuracy(), ScoreSpec.macro_f1(["a", "b"])):
        dist = distribution(table, "noisy", spec, plan)
        for r in range(64):
            manual = score_on_indices(
                table.gold, table.systems["noisy"], spec, resample_indices(rplan, r)
            )
            assert dist.values[r] == manual

    reg = PredictionTable.build(
        np.linspace(0, 5, 40), {"s": np.linspace(0.3, 4.6, 40)}, "regression"
    )
    rplan = ResamplePlan(n=40, replicates=64, seed=21)
    dist = distribution(reg, "s", ScoreSpec.mae(), plan)
    for r in range(64):
        manual = score_on_indices(
            reg.gold, reg.systems["s"], ScoreSpec.mae(), resample_indices(rplan, r)
        )
        assert dist.values[r] == manual


def test_worker_count_never_changes_values():
    table = make_table(n=200)
    spec = ScoreSpec.macro_f1(["a", "c"])
    base = distributions(table, spec, BootstrapPlan(replicates=3000, seed=77))
    for workers in (4, 8):
        par = distributions(
            table, spec, BootstrapPlan(replicates=3000, seed=77, workers=workers)
        )
        for name in table.names:
            assert np.array_equal(base[name].values, par[name].values)


def test_agreement_rate_against_binomial_oracle():
    # accuracy of a Bernoulli(0.8) agreement vector: the bootstrap mean and
    # CI width must track the analytic binomial-proportion interval
    g = np.random.default_rng(42)
    n = 200
    agree = g.random(n) < 0.8
    gold = np.array(["y"] * n, dtype=object)
    pred = np.where(agree, "y", "n").astype(object)
    table = PredictionTable.build(gold, {"s": pred})
    rate = float(agree.mean())

    dist = distribution(table, "s", ScoreSpec.accuracy(), BootstrapPlan(replicates=10_000, seed=1))
    ci = percentile_ci(dist, 0.95)
    assert abs(ci.mean - rate) < 0.01
    wald = 2 * 1.959964 * np.sqrt(rate * (1 - rate) / n)
    width = ci.uci - ci.lci
    assert abs(width - wald) / wald < 0.15


def test_percentile_ci_of_constant_distribution():
    dist = SamplingDistribution(values=np.full(50, 0.42), observed=0.42)
    ci = percentile_ci(dist, 0.95)
    assert ci.lci == 0.42 and ci.uci == 0.42
    assert ci.mean == pytest.approx(0.42, abs=1e-12)


def test_percentile_ci_linear_interpolation_oracle():
    # independent implementation of the interpolated order-statistic rule
    values = np.arange(1.0, 101.0)

    def interp_quantile(sorted_values, q):
        h = (len(sorted_values) - 1) * q
        i = int(np.floor(h))
        if i == len(sorted_values) - 1:
            return sorted_values[-1]
        return sorted_values[i] + (h - i) * (sorted_values[i + 1] - sorted_values[i])

    dist = SamplingDistribution(values=values.copy(), observed=50.0)
    ci = percentile_ci(dist, 0.95)
    assert ci.lci == pytest.approx(interp_quantile(values, 0.025), abs=1e-12)
    assert ci.uci == pytest.approx(interp_quantile(values, 0.975), abs=1e-12)
    assert ci.lci == pytest.approx(3.475, abs=1e-12)
    assert ci.uci == pytest.approx(97.525, abs=1e-12)
    assert ci.mean == pytest.approx(50.5)


def test_ci_nesting():
    g = np.random.default_rng(9)
    dist = SamplingDistribution(values=g.normal(size=999), observed=0.0)
    inner = percentile_ci(dist, 0.5)
    outer = percentile_ci(dist, 0.95)
    assert outer.lci <= inner.lci <= inner.uci <= outer.uci


def test_percentile_ci_rejects_degenerate_input():
    dist = SamplingDistribution(values=np.array([1.0]), observed=1.0)
    with pytest.raises(ValueError):
        percentile_ci(dist, 0.95)
    two = SamplingDistribution(values=np.array([1.0, 2.0]), observed=1.5)
    with pytest.raises(ValueError):
        percentile_ci(two, 1.0)


def test_unknown_system():
    table = make_table()
    with pytest.raises(KeyError):
        distribution(table, "ghost", ScoreSpec.accuracy(), BootstrapPlan(replicates=10, seed=0))


def test_summarize_invariants():
    table = make_table(n=120)
    plan = BootstrapPlan(replicates=2000, seed=13)
    summaries = summarize(table, ScoreSpec.accuracy(), plan, keep_samples=True)
    for s in summaries.values():
        assert s.lci <= s.boot_mean <= s.uci
        assert s.lci <= s.observed <= s.uci
        assert s.boot_samples is not None and len(s.boot_samples) == 2000
    light = summarize(table, ScoreSpec.accuracy(), plan)
    assert all(s.boot_samples is None for s in light.values())
