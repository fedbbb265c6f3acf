import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boardstats.errors import MetricError
from boardstats.metrics import ResampleScorer, score
from boardstats.table import ScoreSpec
from helpers import score_on_indices


def naive_subset_macro_f1(gold, pred, subset):
    """Independent oracle: plain-python confusion count enumeration."""
    f1s = []
    for c in subset:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(f1s) / len(f1s)


def naive_accuracy(gold, pred):
    return sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def naive_mae(gold, pred):
    return math.fsum(abs(g - p) for g, p in zip(gold, pred)) / len(gold)


def test_perfect_predictor_scores_one():
    gold = ["F", "N", "A", "F", "A"]
    assert score(gold, gold, ScoreSpec.accuracy()) == 1.0
    assert score(gold, gold, ScoreSpec.f1("F")) == 1.0
    assert score(gold, gold, ScoreSpec.macro_f1(["F", "A"])) == 1.0
    assert score(gold, gold, ScoreSpec.macro_f1(["F", "N", "A"])) == 1.0


def test_fully_inverted_predictions_score_zero():
    assert score(["A", "A", "B", "B"], ["B", "B", "A", "A"],
                 ScoreSpec.macro_f1(["A", "B"])) == 0.0


def test_two_class_subset_macro_f1_hand_example():
    gold = ["F", "F", "F", "N", "A", "A"]
    pred = ["F", "F", "A", "F", "A", "N"]
    got = score(gold, pred, ScoreSpec.macro_f1(["F", "A"]))
    # F1_F = 2*2/(2*2+1+1) = 2/3, F1_A = 2*1/(2*1+1+1) = 1/2
    assert got == pytest.approx(7 / 12, abs=1e-12)
    assert round(got, 4) == 0.5833


def test_mae():
    assert score([1, 2, 3], [1, 3, 5], ScoreSpec.mae()) == pytest.approx(1.0)


def test_accuracy():
    assert score(["a", "b", "c", "d"], ["a", "b", "x", "y"],
                 ScoreSpec.accuracy()) == 0.5


def test_identity_resample_equals_plain_score():
    gold = ["F", "F", "F", "N", "A", "A"]
    pred = ["F", "F", "A", "F", "A", "N"]
    spec = ScoreSpec.macro_f1(["F", "A"])
    idx = list(range(6))
    assert score_on_indices(gold, pred, spec, idx) == score(gold, pred, spec)


def test_all_zero_indices_accuracy():
    gold, pred = ["a", "b"], ["a", "a"]
    spec = ScoreSpec.accuracy()
    assert score_on_indices(gold, pred, spec, [0, 0]) == 1.0
    assert score_on_indices(gold, pred, spec, [1, 1]) == 0.0


def test_resample_matches_bruteforce_enumeration():
    gold = np.array(["F", "F", "N", "A"], dtype=object)
    pred = np.array(["F", "A", "N", "F"], dtype=object)
    spec = ScoreSpec.macro_f1(["F", "A"])
    for idx in ([0, 0, 2, 3], [3, 3, 3, 3], [1, 0, 0, 2], [2, 2, 1, 1]):
        expected = naive_subset_macro_f1(gold[idx], pred[idx], ["F", "A"])
        assert score_on_indices(gold, pred, spec, idx) == pytest.approx(expected, abs=1e-12)


def test_empty_class_conventions():
    # an empty class scores 0 and stays in the average
    assert score(["A", "A"], ["A", "A"], ScoreSpec.macro_f1(["A", "B"])) == 0.5


def test_custom_metric_receives_resampled_vectors():
    spec = ScoreSpec.custom("frac_b", lambda g, p: float(np.mean(p == "b")))
    gold = ["a", "b", "a"]
    pred = ["b", "b", "a"]
    assert score(gold, pred, spec) == pytest.approx(2 / 3)
    assert score_on_indices(gold, pred, spec, [2, 2, 2]) == 0.0


def test_errors():
    with pytest.raises(MetricError):
        score([], [], ScoreSpec.accuracy())
    with pytest.raises(MetricError):
        score(["a", "b"], ["a"], ScoreSpec.accuracy())
    with pytest.raises(MetricError):
        score(["a", "b"], ["a", "b"], ScoreSpec.mae())
    with pytest.raises(MetricError):
        score([1.0, 2.0], [1.0, 2.0], ScoreSpec.macro_f1(["a"]))
    with pytest.raises(MetricError):
        score_on_indices(["a", "b"], ["a", "b"], ScoreSpec.accuracy(), [0, 2])
    with pytest.raises(MetricError):
        score_on_indices(["a", "b"], ["a", "b"], ScoreSpec.accuracy(), [-1, 0])


labels3 = st.sampled_from(["x", "y", "z"])
vectors = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(labels3, min_size=n, max_size=n),
        st.lists(labels3, min_size=n, max_size=n),
    )
)


@given(vectors)
@settings(max_examples=150, deadline=None)
def test_f1_bounds_and_full_set_mean(pair):
    gold, pred = pair
    spec = ScoreSpec.macro_f1(["x", "y", "z"])
    macro = score(gold, pred, spec)
    assert 0.0 <= macro <= 1.0
    per_class = [score(gold, pred, ScoreSpec.f1(c)) for c in ["x", "y", "z"]]
    assert macro == pytest.approx(float(np.mean(per_class)), abs=1e-12)


def resampled_tables(values):
    """(gold, pred, idx): two length-n columns and a (k, n) index matrix."""
    return st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(values, min_size=n, max_size=n),
            st.lists(values, min_size=n, max_size=n),
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=1, max_size=6,
            ),
        )
    )


# "w" never occurs in the data, so it always has tp = fp = fn = 0.
subsets = st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=4, unique=True)


@given(resampled_tables(labels3), subsets)
@settings(max_examples=150, deadline=None)
def test_scorer_rows_match_row_by_row_oracle(table, subset):
    gold, pred, idx = table
    g, p = np.array(gold, dtype=object), np.array(pred, dtype=object)
    cases = [
        (ScoreSpec.accuracy(), naive_accuracy),
        (ScoreSpec.macro_f1(subset), lambda a, b: naive_subset_macro_f1(a, b, subset)),
    ]
    for spec, oracle in cases:
        scorer = ResampleScorer(g, p, spec)
        got = scorer.scores(np.array(idx))
        for r, row in enumerate(idx):
            want = oracle([gold[i] for i in row], [pred[i] for i in row])
            assert got[r] == pytest.approx(want, abs=1e-12)
        assert scorer.observed() == pytest.approx(oracle(gold, pred), abs=1e-12)


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(resampled_tables(finite))
@settings(max_examples=100, deadline=None)
def test_scorer_rows_match_row_by_row_oracle_for_mae(table):
    gold, pred, idx = table
    scorer = ResampleScorer(np.array(gold), np.array(pred), ScoreSpec.mae())
    got = scorer.scores(np.array(idx))
    for r, row in enumerate(idx):
        want = naive_mae([gold[i] for i in row], [pred[i] for i in row])
        assert got[r] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert scorer.observed() == pytest.approx(naive_mae(gold, pred), rel=1e-12, abs=1e-12)


@given(vectors, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_accuracy_invariant_under_shared_permutation(pair, rnd):
    gold, pred = pair
    order = list(range(len(gold)))
    rnd.shuffle(order)
    spec = ScoreSpec.accuracy()
    assert score(gold, pred, spec) == score(
        [gold[i] for i in order], [pred[i] for i in order], spec
    )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_mae_zero_iff_identical(values):
    spec = ScoreSpec.mae()
    assert score(values, values, spec) == 0.0
    shifted = [v + 1.5 for v in values]
    assert score(values, shifted, spec) > 0.0


def test_against_sklearn_oracle():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    labels = np.array(["u", "v", "w"], dtype=object)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        gold = rng.choice(labels, size=n)
        pred = rng.choice(labels, size=n)
        ours = score(gold, pred, ScoreSpec.macro_f1(["u", "w"]))
        ref = sklearn_metrics.f1_score(
            gold, pred, labels=["u", "w"], average="macro", zero_division=0
        )
        assert ours == pytest.approx(ref, abs=1e-12)
