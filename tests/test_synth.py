import dataclasses

import numpy as np
import pytest

from boardstats import synth
from boardstats.bootstrap import distributions
from boardstats.metrics import score
from boardstats.synth import (
    LabelNoise,
    SynthConfig,
    ValueNoise,
    calibrate,
    expected_score,
    generate,
)
from confusion_layouts import (
    bootstrap_sd,
    fit_confusion_matrix,
    fit_pair_coupling,
    paired_f1_delta_stat,
    subset_f1_stat,
    table_from_confusions,
)
from boardstats.table import BootstrapPlan, ScoreSpec, TaskKind


def config(n=400, seed=123, **systems):
    systems = systems or {"sys": LabelNoise(rate=0.2)}
    return SynthConfig(
        n=n,
        seed=seed,
        labels=("a", "b", "c"),
        label_probs=(0.3, 0.45, 0.25),
        systems=systems,
    )


def test_zero_corruption_copies_gold():
    table = generate(config(clean=LabelNoise(rate=0.0)))
    assert np.array_equal(table.systems["clean"], table.gold)
    assert score(table.gold, table.systems["clean"], ScoreSpec.accuracy()) == 1.0


def test_generate_is_deterministic_in_seed():
    a = generate(config(seed=9))
    b = generate(config(seed=9))
    c = generate(config(seed=10))
    assert np.array_equal(a.gold, b.gold)
    assert np.array_equal(a.systems["sys"], b.systems["sys"])
    assert not np.array_equal(a.systems["sys"], c.systems["sys"])


def test_expected_accuracy_closed_form():
    cfg = config(n=5000, seed=77, sys=LabelNoise(rate=0.2))
    assert expected_score(cfg, "sys") == pytest.approx(0.8)
    table = generate(cfg)
    got = score(table.gold, table.systems["sys"], ScoreSpec.accuracy())
    assert got == pytest.approx(0.8, abs=0.02)


def test_expected_accuracy_with_kernel_self_mass():
    kernel = {
        "a": {"a": 0.5, "b": 0.5},
        "b": {"c": 1.0},
        "c": {"a": 1.0},
    }
    cfg = config(sys=LabelNoise(rate=0.4, kernel=kernel))
    # only gold "a" draws can stay correct: rate * P(a) * 0.5 is recovered
    assert expected_score(cfg, "sys") == pytest.approx(1 - 0.4 + 0.4 * 0.3 * 0.5)


def test_generate_draws_replacements_from_the_kernel():
    cyclic = {"a": {"b": 1}, "b": {"c": 1}, "c": {"a": 1}}
    cfg = config(n=300, seed=5, plain=LabelNoise(rate=0.2),
                 skewed=LabelNoise(rate=0.3, kernel=cyclic))
    table = generate(cfg)
    assert table.n == 300
    assert table.names == ("plain", "skewed")
    pred = table.systems["skewed"]
    changed = pred != table.gold
    assert changed.any()
    target = {gold: next(iter(row)) for gold, row in cyclic.items()}
    assert all(p == target[g] for g, p in zip(table.gold[changed], pred[changed]))


def test_scores_converge_to_expectation():
    for n in (100, 1000, 10000):
        cfg = config(n=n, seed=50 + n, sys=LabelNoise(rate=0.3))
        table = generate(cfg)
        got = score(table.gold, table.systems["sys"], ScoreSpec.accuracy())
        tolerance = 4 * np.sqrt(0.7 * 0.3 / n)
        assert abs(got - 0.7) < tolerance


def test_regression_generation_and_closed_form():
    cfg = SynthConfig(
        n=4000,
        seed=3,
        systems={"sys": ValueNoise(rate=0.5, sd=0.8)},
        task_kind=TaskKind.REGRESSION,
    )
    expected = 0.5 * 0.8 * np.sqrt(2 / np.pi)
    assert expected_score(cfg, "sys") == pytest.approx(expected)
    table = generate(cfg)
    got = score(table.gold, table.systems["sys"], ScoreSpec.mae())
    assert got == pytest.approx(expected, abs=0.05)


def test_identical_models_have_equal_expected_scores():
    cfg = config(first=LabelNoise(rate=0.25), second=LabelNoise(rate=0.25))
    assert expected_score(cfg, "first") == expected_score(cfg, "second")


def test_config_validation():
    with pytest.raises(ValueError):
        LabelNoise(rate=1.5)
    with pytest.raises(ValueError):
        ValueNoise(rate=0.5, sd=-1)
    with pytest.raises(ValueError):
        SynthConfig(n=0, seed=1, systems={}, labels=("a", "b"), label_probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        SynthConfig(n=5, seed=1, systems={}, labels=("a",), label_probs=(1.0,))
    with pytest.raises(ValueError):
        SynthConfig(n=5, seed=1, systems={}, labels=("a", "b"), label_probs=(0.9, 0.2))


def test_calibrate_single_trial_smoke():
    cfg = config(
        n=150, a=LabelNoise(rate=0.2), b=LabelNoise(rate=0.2), c=LabelNoise(rate=0.4)
    )
    out = calibrate(cfg, BootstrapPlan(replicates=200, seed=4), trials=1)
    assert out.trials == 1
    assert out.coverage in (0.0, 1.0)
    assert out.p_values is not None and len(out.p_values) == 1
    assert out.ks_distance is not None


def test_calibrate_without_null_pair():
    cfg = config(n=100, a=LabelNoise(rate=0.1), b=LabelNoise(rate=0.3))
    out = calibrate(cfg, BootstrapPlan(replicates=150, seed=4), trials=2)
    assert out.p_values is None and out.ks_distance is None
    assert 0.0 <= out.coverage <= 1.0


def test_calibrate_worker_hint_changes_nothing():
    cfg = config(n=120, a=LabelNoise(rate=0.2), b=LabelNoise(rate=0.2))
    seq = calibrate(cfg, BootstrapPlan(replicates=200, seed=6), trials=6)
    par = calibrate(cfg, BootstrapPlan(replicates=200, seed=6, workers=4), trials=6)
    assert seq.coverage == par.coverage
    assert np.array_equal(seq.p_values, par.p_values)


def test_calibrate_runs_trials_in_parallel_and_bootstraps_each_on_one_thread(monkeypatch):
    # workers go to the trials; a trial's own bootstrap opens no nested pool
    cfg = config(n=120, a=LabelNoise(rate=0.2), b=LabelNoise(rate=0.2))
    plan = BootstrapPlan(replicates=200, seed=6)
    seq = calibrate(cfg, plan, trials=4)
    workers = []

    def recording(table, spec, plan, systems=None):
        workers.append(plan.workers)
        return distributions(table, spec, plan, systems=systems)

    monkeypatch.setattr(synth, "distributions", recording)
    par = calibrate(cfg, dataclasses.replace(plan, workers=3), trials=4)
    assert workers == [1] * 4
    assert (par.coverage, par.observed_in_ci) == (seq.coverage, seq.observed_in_ci)
    assert np.array_equal(par.p_values, seq.p_values)


COUNTS = {"favor": 40, "none": 55, "against": 45}
SUBSET = ("favor", "against")


def test_fit_confusion_matrix_hits_score():
    mat = fit_confusion_matrix(COUNTS, SUBSET, 0.6123)
    stat = subset_f1_stat(tuple(COUNTS), SUBSET)
    assert stat(mat.astype(float)) == pytest.approx(0.6123, abs=2e-5)
    assert np.array_equal(mat.sum(axis=1), np.array([40, 55, 45]))


def test_fit_confusion_matrix_sd_target():
    stat = subset_f1_stat(tuple(COUNTS), SUBSET)
    loose = fit_confusion_matrix(COUNTS, SUBSET, 0.55, target_sd=0.055)
    tight = fit_confusion_matrix(COUNTS, SUBSET, 0.55, target_sd=0.040)
    assert bootstrap_sd(loose, stat) > bootstrap_sd(tight, stat)
    assert bootstrap_sd(loose, stat) == pytest.approx(0.055, abs=0.004)
    assert bootstrap_sd(tight, stat) == pytest.approx(0.040, abs=0.004)


def test_fit_confusion_matrix_unreachable_target():
    with pytest.raises(ValueError):
        fit_confusion_matrix({"a": 2, "b": 2}, ("a", "b"), 0.1111)


def test_table_from_confusions_reproduces_counts_exactly():
    mats = {
        "one": fit_confusion_matrix(COUNTS, SUBSET, 0.61),
        "two": fit_confusion_matrix(COUNTS, SUBSET, 0.52),
    }
    table = table_from_confusions(COUNTS, mats, seed=19)
    labels = tuple(COUNTS)
    for name, want in mats.items():
        got = np.zeros((3, 3), dtype=int)
        for g, gl in enumerate(labels):
            for p, pl in enumerate(labels):
                got[g, p] = int(
                    np.sum((table.gold == gl) & (table.systems[name] == pl))
                )
        assert np.array_equal(got, want)


def test_table_from_confusions_deterministic_and_seed_sensitive():
    mats = {"one": fit_confusion_matrix(COUNTS, SUBSET, 0.61)}
    a = table_from_confusions(COUNTS, mats, seed=19)
    b = table_from_confusions(COUNTS, mats, seed=19)
    c = table_from_confusions(COUNTS, mats, seed=20)
    assert np.array_equal(a.gold, b.gold)
    assert np.array_equal(a.systems["one"], b.systems["one"])
    assert not np.array_equal(a.systems["one"], c.systems["one"])


def test_coupling_margins_and_effect_on_delta_spread():
    ref = fit_confusion_matrix(COUNTS, SUBSET, 0.61)
    other = fit_confusion_matrix(COUNTS, SUBSET, 0.55)
    delta_stat = paired_f1_delta_stat(tuple(COUNTS), SUBSET)
    tight = fit_pair_coupling(COUNTS, ref, other, SUBSET, target_sd_delta=0.02)
    loose = fit_pair_coupling(COUNTS, ref, other, SUBSET, target_sd_delta=0.09)
    assert np.array_equal(tight.sum(axis=2), ref)
    assert np.array_equal(tight.sum(axis=1), other)
    assert bootstrap_sd(tight, delta_stat) < bootstrap_sd(loose, delta_stat)

    table = table_from_confusions(
        COUNTS, {"ref": ref, "other": other}, seed=2,
        reference="ref", couplings={"other": tight},
    )
    got = np.zeros((3, 3, 3), dtype=int)
    labels = tuple(COUNTS)
    for g, gl in enumerate(labels):
        for v, vl in enumerate(labels):
            for w, wl in enumerate(labels):
                got[g, v, w] = int(np.sum(
                    (table.gold == gl)
                    & (table.systems["ref"] == vl)
                    & (table.systems["other"] == wl)
                ))
    assert np.array_equal(got, tight)


def test_bootstrap_sd_against_engine():
    # the delta-method estimate must track the empirical bootstrap sd
    mats = {"sys": fit_confusion_matrix(COUNTS, SUBSET, 0.58)}
    table = table_from_confusions(COUNTS, mats, seed=5)
    spec = ScoreSpec.macro_f1(SUBSET)
    dist = distributions(table, spec, BootstrapPlan(replicates=6000, seed=8))["sys"]
    analytic = bootstrap_sd(mats["sys"], subset_f1_stat(tuple(COUNTS), SUBSET))
    empirical = float(np.std(dist.values))
    assert analytic == pytest.approx(empirical, rel=0.1)


def test_table_from_confusions_validation():
    good = fit_confusion_matrix(COUNTS, SUBSET, 0.6)
    bad = good.copy()
    bad[0, 0] += 1
    with pytest.raises(ValueError):
        table_from_confusions(COUNTS, {"s": bad}, seed=1)
    with pytest.raises(ValueError):
        table_from_confusions(
            COUNTS, {"s": good}, seed=1, couplings={"s": np.zeros((3, 3, 3), int)}
        )
