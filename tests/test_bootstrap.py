import numpy as np
import pytest

from boardstats import rng
from boardstats.bootstrap import (
    SamplingDistribution,
    distribution,
    distributions,
    percentile_ci,
    resample_indices,
    summarize,
)
from boardstats.errors import MetricError
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec
from helpers import score_on_indices


def make_table(n=60, seed=3):
    g = np.random.default_rng(seed)
    gold = g.choice(["a", "b", "c"], size=n)
    noisy = gold.copy()
    flips = g.random(n) < 0.3
    noisy[flips] = g.choice(["a", "b", "c"], size=int(flips.sum()))
    return PredictionTable.build(gold, {"noisy": noisy, "perfect": gold})


def test_single_replicate_is_slice_of_stream():
    plan = BootstrapPlan(replicates=50, seed=99)
    block = rng.index_block(99, 37, 0, 50)
    for r in (0, 1, 17, 49):
        assert np.array_equal(resample_indices(plan, 37, r), block[r])


@pytest.mark.parametrize("n", [1, 3, 4, 5, 37, 64, 1001])
def test_index_block_is_raw_stream_modulo_n(n):
    start, stop = 7, 19
    bpr = (n + 3) // 4
    raw = rng._raw_words(5, start * bpr, 0, (stop - start) * bpr * 4)
    raw = raw.reshape(stop - start, bpr * 4)[:, :n]
    block = rng.index_block(5, n, start, stop)
    assert block.dtype == np.int64 and block.flags.c_contiguous
    assert np.array_equal(block, (raw % np.uint64(n)).astype(np.int64))


def test_indices_deterministic_and_in_range():
    plan = BootstrapPlan(replicates=5, seed=123)
    a = resample_indices(plan, 11, 3)
    b = resample_indices(plan, 11, 3)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 11 and len(a) == 11


def test_n_one_always_yields_zero():
    plan = BootstrapPlan(replicates=10, seed=1)
    for r in range(10):
        assert resample_indices(plan, 1, r).tolist() == [0]


def test_replicate_id_out_of_range():
    plan = BootstrapPlan(replicates=3, seed=0)
    with pytest.raises(ValueError):
        resample_indices(plan, 5, 3)
    with pytest.raises(ValueError):
        resample_indices(plan, 5, -1)


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
    for spec in (ScoreSpec.accuracy(), ScoreSpec.macro_f1(["a", "b"])):
        dist = distribution(table, "noisy", spec, plan)
        for r in range(64):
            manual = score_on_indices(
                table.gold, table.systems["noisy"], spec, resample_indices(plan, table.n, r)
            )
            assert dist.values[r] == manual

    reg = PredictionTable.build(
        np.linspace(0, 5, 40), {"s": np.linspace(0.3, 4.6, 40)}, "regression"
    )
    dist = distribution(reg, "s", ScoreSpec.mae(), plan)
    for r in range(64):
        manual = score_on_indices(
            reg.gold, reg.systems["s"], ScoreSpec.mae(), resample_indices(plan, 40, r)
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


def test_non_finite_scores_raise_metric_error():
    table = make_table(n=30)
    plan = BootstrapPlan(replicates=50, seed=2)
    always_nan = ScoreSpec.custom("nan", lambda g, p: float("nan"))
    with pytest.raises(MetricError, match="'noisy' on the original data"):
        distributions(table, always_nan, plan)
    first_row = table.gold[0]
    resampled_inf = ScoreSpec.custom(
        "inf", lambda g, p: 1.0 if g[0] == first_row else float("inf")
    )
    with pytest.raises(MetricError, match=r"inf is not finite for system 'noisy' on replicate \d+"):
        distributions(table, resampled_inf, plan)


def test_summarize_invariants():
    table = make_table(n=120)
    plan = BootstrapPlan(replicates=2000, seed=13)
    summaries = summarize(table, ScoreSpec.accuracy(), plan)
    assert list(summaries) == list(table.names)
    for observed, ci in summaries.values():
        assert ci.lci <= ci.mean <= ci.uci
        assert ci.lci <= observed <= ci.uci
