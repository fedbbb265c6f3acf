import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boardstats.errors import MetricError
from boardstats import metrics
from boardstats.metrics import ResampleScorer, resample_counts, score
from boardstats.table import ScoreSpec
from helpers import garbage, score_on_indices


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
    assert score(gold, gold, ScoreSpec(metric="accuracy")) == 1.0
    assert score(gold, gold, ScoreSpec(metric="f1", labels=("F",))) == 1.0
    assert score(gold, gold, ScoreSpec(metric="macro_f1", labels=("F", "A"))) == 1.0
    assert score(gold, gold, ScoreSpec(metric="macro_f1", labels=("F", "N", "A"))) == 1.0


def test_fully_inverted_predictions_score_zero():
    assert score(["A", "A", "B", "B"], ["B", "B", "A", "A"],
                 ScoreSpec(metric="macro_f1", labels=("A", "B"))) == 0.0


def test_two_class_subset_macro_f1_hand_example():
    gold = ["F", "F", "F", "N", "A", "A"]
    pred = ["F", "F", "A", "F", "A", "N"]
    got = score(gold, pred, ScoreSpec(metric="macro_f1", labels=("F", "A")))
    # F1_F = 2*2/(2*2+1+1) = 2/3, F1_A = 2*1/(2*1+1+1) = 1/2
    assert got == pytest.approx(7 / 12, abs=1e-12)
    assert round(got, 4) == 0.5833


def test_mae():
    assert score([1, 2, 3], [1, 3, 5], ScoreSpec(metric="mae")) == pytest.approx(1.0)


def test_accuracy():
    assert score(["a", "b", "c", "d"], ["a", "b", "x", "y"],
                 ScoreSpec(metric="accuracy")) == 0.5


def test_identity_resample_equals_plain_score():
    gold = ["F", "F", "F", "N", "A", "A"]
    pred = ["F", "F", "A", "F", "A", "N"]
    spec = ScoreSpec(metric="macro_f1", labels=("F", "A"))
    idx = list(range(6))
    assert score_on_indices(gold, pred, spec, idx) == score(gold, pred, spec)


def test_all_zero_indices_accuracy():
    gold, pred = ["a", "b"], ["a", "a"]
    spec = ScoreSpec(metric="accuracy")
    assert score_on_indices(gold, pred, spec, [0, 0]) == 1.0
    assert score_on_indices(gold, pred, spec, [1, 1]) == 0.0


def test_resample_matches_bruteforce_enumeration():
    gold = np.array(["F", "F", "N", "A"], dtype=object)
    pred = np.array(["F", "A", "N", "F"], dtype=object)
    spec = ScoreSpec(metric="macro_f1", labels=("F", "A"))
    for idx in ([0, 0, 2, 3], [3, 3, 3, 3], [1, 0, 0, 2], [2, 2, 1, 1]):
        expected = naive_subset_macro_f1(gold[idx], pred[idx], ["F", "A"])
        assert score_on_indices(gold, pred, spec, idx) == pytest.approx(expected, abs=1e-12)


def test_empty_class_conventions():
    # an empty class scores 0 and stays in the average
    assert score(["A", "A"], ["A", "A"], ScoreSpec(metric="macro_f1", labels=("A", "B"))) == 0.5


def test_custom_metric_receives_resampled_vectors():
    spec = ScoreSpec(metric="custom", name="frac_b", fn=lambda g, p: float(np.mean(p == "b")))
    gold = ["a", "b", "a"]
    pred = ["b", "b", "a"]
    assert score(gold, pred, spec) == pytest.approx(2 / 3)
    assert score_on_indices(gold, pred, spec, [2, 2, 2]) == 0.0


def test_errors():
    with pytest.raises(MetricError):
        score([], [], ScoreSpec(metric="accuracy"))
    with pytest.raises(MetricError):
        score(["a", "b"], ["a"], ScoreSpec(metric="accuracy"))
    with pytest.raises(MetricError):
        score(["a", "b"], ["a", "b"], ScoreSpec(metric="mae"))
    with pytest.raises(MetricError):
        score([1.0, 2.0], [1.0, 2.0], ScoreSpec(metric="macro_f1", labels=("a",)))
    with pytest.raises(MetricError):
        score_on_indices(["a", "b"], ["a", "b"], ScoreSpec(metric="accuracy"), [0, 2])
    with pytest.raises(MetricError):
        score_on_indices(["a", "b"], ["a", "b"], ScoreSpec(metric="accuracy"), [-1, 0])
    acc = ResampleScorer(np.array(["a", "b"]), np.array(["a", "b"]), ScoreSpec(metric="accuracy"))
    mae = ResampleScorer(np.array([1.0, 2.0]), np.array([1.0, 3.0]), ScoreSpec(metric="mae"))
    for dtype in (np.int32, np.int64):
        for bad in ([0, 2], [-1, 0], [[0, 1], [1, 2]], [[0, 1], [-1, 1]]):
            bad = np.array(bad, dtype=dtype)
            for scorer in (acc, mae):
                with pytest.raises(MetricError, match=r"outside \[0, 2\)"):
                    scorer.scores(bad)
            with pytest.raises(MetricError, match=r"outside \[0, 2\)"):
                resample_counts(bad, 2)
        ok = np.array([1, 1], dtype=dtype)
        assert acc.scores(ok).tolist() == [1.0]
        assert acc.scores(ok, resample_counts(ok, 2)).tolist() == [1.0]
        assert mae.scores(ok).tolist() == [1.0]
    with pytest.raises(ValueError, match="do not match"):
        acc.scores(np.array([[0, 1]]), resample_counts(np.array([[0, 1], [1, 1]]), 2))


# rows per bincount group, and the group boundaries around it
@pytest.mark.parametrize("n", [1, 2, 125, 1000, 5000])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_resample_counts_equal_per_row_bincount(n, dtype):
    rows = metrics._COUNT_CELLS // n
    g = np.random.default_rng(n)
    # square (k, n) blocks at the group boundaries, a narrower and a wider
    # block (rows need not hold n indices), and no rows at all
    shapes = [(k, n) for k in sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows + 1} - {0})]
    shapes += [(rows + 1, max(n // 2, 1)), (3, 2 * n), (0, n)]
    for k, width in shapes:
        idx = g.integers(0, n, size=(k, width)).astype(dtype)
        counts = resample_counts(idx, n)
        assert counts.dtype == np.float64 and counts.flags.c_contiguous
        want = np.array([np.bincount(row, minlength=n) for row in idx]).reshape(k, n)
        assert np.array_equal(counts, want)
        # into a reused buffer taller than the block, as a short last block is
        buf = garbage((k + 2, n), np.float64)
        into = resample_counts(idx, n, out=buf)
        assert into.base is buf and np.array_equal(into, want)
        assert np.isnan(buf[k:]).all()
        assert np.array_equal(counts.sum(axis=1), np.full(k, width))
    row = g.integers(0, n, size=n).astype(dtype)
    assert np.array_equal(resample_counts(row, n), [np.bincount(row, minlength=n)])


def unpacked_f1_sums(gold, pred, labels, idx):
    """(tp, pred + gold) sums per class, gathered and reduced column by column."""
    sums = []
    for c in labels:
        g, p = gold == c, pred == c
        for col in ((g & p).astype(np.int64), p.astype(np.int64) + g):
            sums.append(np.add.reduce(col[idx], axis=1))
    return sums


def gathered_f1_scores(sums):
    """Class mean of 2 tp / max(pred + gold, 1) over (classes, k) stacked sums."""
    tp, denom = np.stack(sums[0::2]), np.stack(sums[1::2])
    return (2.0 * tp / np.maximum(denom, 1)).mean(axis=0)


def assert_scores_equal(scorer, idx, want):
    """Both entry points, gathering and counting, give ``want``."""
    assert np.array_equal(scorer.scores(idx), want)
    assert np.array_equal(scorer.scores(idx, resample_counts(idx, scorer.n)), want)


def both_sums(scorer, idx):
    """``_sums`` gathered through ``idx`` and weighted by its counts: (W, k)
    float64 rows."""
    sums = scorer._sums(idx, None), scorer._sums(idx, resample_counts(idx, scorer.n))
    for got in sums:
        assert got.dtype == np.float64
        assert got.shape == (scorer._columns.shape[1], len(idx))
    return sums


# n on both sides of the steps in bits = (2n).bit_length(), the bits of the
# largest f1 sum 2n (14 -> 15 at n = 8192, 15 -> 16 at 16384); each id reads
# n-bits-(63 // bits), the number of such sums one int64 could hold
@pytest.mark.parametrize(
    "n", [50, 8191, 8192, 16383, 16384],
    ids=["50-7-9", "8191-14-4", "8192-15-4", "16383-15-4", "16384-16-3"],
)
@pytest.mark.parametrize("labels", [["a"], ["a", "b"], ["a", "b", "c"]])
def test_packed_tally_sums_equal_unpacked_sums(n, labels):
    g = np.random.default_rng(n)
    gold = g.choice(list("abcd"), size=n)
    pred = np.where(g.random(n) < 0.4, g.choice(list("abcd"), size=n), gold)
    idx = np.vstack([np.arange(n), g.integers(0, n, size=(3, n))])
    for spec in (ScoreSpec(metric="f1", labels=labels[:1]), ScoreSpec(metric="macro_f1", labels=labels)):
        scorer = ResampleScorer(gold, pred, spec)
        assert scorer.gathers == len(spec.labels)
        want = unpacked_f1_sums(gold, pred, spec.labels, idx)
        for got in both_sums(scorer, idx):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert_scores_equal(scorer, idx, gathered_f1_scores(want))
    acc = ResampleScorer(gold, pred, ScoreSpec(metric="accuracy"))
    correct = np.add.reduce((gold == pred)[idx], axis=1)
    for got in both_sums(acc, idx):
        assert np.array_equal(got[0], correct)
    assert_scores_equal(acc, idx, correct / n)


@pytest.mark.parametrize("n", [1, 7, 8191, 16383])
def test_packed_lanes_hold_their_largest_sums(n):
    # gold = pred = c on every row and every index 0: each column of class c
    # reaches its largest sum, tp = n and pred + gold = 2n
    labels = ["a", "b", "c", "d"]
    gold = pred = np.full(n, "c")
    idx = np.zeros((2, n), dtype=np.int64)
    for shift in range(len(labels)):
        order = labels[shift:] + labels[:shift]
        scorer = ResampleScorer(gold, pred, ScoreSpec(metric="macro_f1", labels=order))
        pos = order.index("c")
        want = [np.zeros(2, dtype=np.int64)] * (2 * len(order))
        want[2 * pos] = np.full(2, n)
        want[2 * pos + 1] = np.full(2, 2 * n)
        for got in both_sums(scorer, idx):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)
        assert_scores_equal(scorer, idx, gathered_f1_scores(want))
        assert np.array_equal(scorer.scores(idx), np.full(2, 1 / len(order)))
    acc = ResampleScorer(gold, pred, ScoreSpec(metric="accuracy"))
    for got in both_sums(acc, idx):
        assert np.array_equal(got[0], np.full(2, n))
    assert_scores_equal(acc, idx, np.full(2, 1.0))


def test_macro_f1_over_many_classes_adds_class_scores_in_order():
    # numpy sums a contiguous axis of 8 or more values pairwise, so the class
    # mean must add nine classes' rows in order on the gather and count paths
    # alike; 200 resamples make an order-dependent rounding show
    g = np.random.default_rng(9)
    labels = list("abcdefghi")
    n = 300
    gold = g.choice(labels, size=n)
    pred = np.where(g.random(n) < 0.5, g.choice(labels, size=n), gold)
    idx = g.integers(0, n, size=(200, n))
    scorer = ResampleScorer(gold, pred, ScoreSpec(metric="macro_f1", labels=labels))
    assert_scores_equal(scorer, idx, gathered_f1_scores(unpacked_f1_sums(gold, pred, labels, idx)))


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
    spec = ScoreSpec(metric="macro_f1", labels=("x", "y", "z"))
    macro = score(gold, pred, spec)
    assert 0.0 <= macro <= 1.0
    per_class = [score(gold, pred, ScoreSpec(metric="f1", labels=(c,))) for c in ["x", "y", "z"]]
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
        (ScoreSpec(metric="accuracy"), naive_accuracy),
        (ScoreSpec(metric="macro_f1", labels=subset), lambda a, b: naive_subset_macro_f1(a, b, subset)),
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
    scorer = ResampleScorer(np.array(gold), np.array(pred), ScoreSpec(metric="mae"))
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
    spec = ScoreSpec(metric="accuracy")
    assert score(gold, pred, spec) == score(
        [gold[i] for i in order], [pred[i] for i in order], spec
    )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_mae_zero_iff_identical(values):
    spec = ScoreSpec(metric="mae")
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
        ours = score(gold, pred, ScoreSpec(metric="macro_f1", labels=("u", "w")))
        ref = sklearn_metrics.f1_score(
            gold, pred, labels=["u", "w"], average="macro", zero_division=0
        )
        assert ours == pytest.approx(ref, abs=1e-12)


def _f1_from_confusion(gold, pred, c):
    """F1 of class c from its confusion counts; 0 when c never occurs."""
    tp = sum(g == c and p == c for g, p in zip(gold, pred))
    fp = sum(g != c and p == c for g, p in zip(gold, pred))
    fn = sum(g == c and p != c for g, p in zip(gold, pred))
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def test_f1_against_confusion_counts():
    # the inputs of test_against_sklearn_oracle, checked without scikit-learn
    rng = np.random.default_rng(5)
    labels = np.array(["u", "v", "w"], dtype=object)
    for _ in range(25):
        n = int(rng.integers(3, 60))
        gold = rng.choice(labels, size=n)
        pred = rng.choice(labels, size=n)
        f1 = {c: _f1_from_confusion(gold, pred, c) for c in labels}
        for c in labels:
            ours = score(gold, pred, ScoreSpec(metric="f1", labels=(c,)))
            assert ours == pytest.approx(f1[c], abs=1e-12)
        ours = score(gold, pred, ScoreSpec(metric="macro_f1", labels=("u", "w")))
        assert ours == pytest.approx((f1["u"] + f1["w"]) / 2, abs=1e-12)


# abs_err columns for the fixed-point MAE: scored as |column - 0|, so the
# absolute errors are the column itself
MAE_COLUMNS = {
    "normal": np.abs(np.random.default_rng(8).normal(size=37)),
    "wide": np.array([1e12, 1e-6, 3.5, 1e-6, 2e12, 0.0, 7.25e-3]),
    "zeros": np.zeros(6),
    "subnormal_beside_normal": np.array([1.0, 5e-324, 1e-310, 0.5, 2.5e-320]),
    "subnormal": np.array([5e-324, 1e-310, 2.5e-320, 0.0, 4e-315]),
    "near_max": np.array([1.5e308, 0.0, 1.0, 1.7e308]),
}


def mae_scorer(column):
    return ResampleScorer(column, np.zeros_like(column), ScoreSpec(metric="mae"))


def oracle_limbs(column):
    """(b, top, [(hi, lo)]) of a column as Python ints, from exact fractions."""
    b = 53 - len(column).bit_length()
    top = 0 if not column.max() else math.frexp(column.max())[1]
    assert Fraction(2) ** (top - 1) <= Fraction(column.max()) < Fraction(2) ** top or top == 0
    limbs = []
    for v in column.tolist():
        value = math.floor(Fraction(v) * Fraction(2) ** (2 * b - top))
        assert 0 <= value < 2 ** (2 * b)
        # truncated below 2**(top - 2b), never by more
        assert 0 <= Fraction(v) - value * Fraction(2) ** (top - 2 * b) < Fraction(2) ** (top - 2 * b)
        limbs.append((value >> b, value & (2**b - 1)))
    return b, top, limbs


def resample_rows(n, seed=0):
    g = np.random.default_rng(seed)
    return np.vstack([np.arange(n), np.zeros(n, dtype=np.int64), g.integers(0, n, size=(5, n))])


@pytest.mark.parametrize("name", MAE_COLUMNS)
def test_mae_limb_sums_equal_exact_fraction_sums(name):
    column = MAE_COLUMNS[name]
    scorer = mae_scorer(column)
    b, top, limbs = oracle_limbs(column)
    assert scorer._columns.tolist() == [[float(hi), float(lo)] for hi, lo in limbs]
    idx = resample_rows(len(column))
    want_hi = [sum(limbs[i][0] for i in row) for row in idx.tolist()]
    want_lo = [sum(limbs[i][1] for i in row) for row in idx.tolist()]
    for counts in (None, resample_counts(idx, len(column))):
        hi, lo = scorer._sums(idx, counts)
        assert [int(v) for v in hi] == want_hi and [int(v) for v in lo] == want_lo
        assert all(float(v) == v for v in want_hi + want_lo)  # below 2**53: exact floats


def fsum_mean(values):
    """math.fsum(values) / n, or the exact fraction's mean where fsum overflows."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return float(sum(map(Fraction, values.tolist())) / len(values))


@pytest.mark.parametrize("name", MAE_COLUMNS)
def test_mae_rows_match_fsum(name):
    column = MAE_COLUMNS[name]
    n = len(column)
    scorer = mae_scorer(column)
    # values are truncated below 2**(top - 2b), so a resample drawing only
    # values far below the column maximum may lose them; a subnormal mean
    # rounds to a grid of 2**-1074
    b, top, _ = oracle_limbs(column)
    tol = max(2.0 ** (top - 2 * b), math.ulp(0.0))
    idx = resample_rows(n, seed=1)
    want = [fsum_mean(column[row]) for row in idx]
    for got in (scorer.scores(idx), scorer.scores(idx, resample_counts(idx, n))):
        assert np.isfinite(got).all()
        for g, w in zip(got.tolist(), want):
            assert math.isclose(g, w, rel_tol=1e-15, abs_tol=tol)
    observed = scorer.observed()
    assert observed == scorer.scores(idx[:1])[0]
    if name == "zeros":
        assert observed == 0.0 and not scorer.scores(idx).any()
    elif name == "subnormal":
        assert abs(observed - fsum_mean(column)) <= math.ulp(0.0)
    else:
        assert math.isclose(observed, fsum_mean(column), rel_tol=1e-15)


def test_mae_keeps_a_non_finite_column_non_finite():
    # an absolute error overflowing to inf has no fixed-point form
    scorer = ResampleScorer(np.array([1e308, 2.0]), np.array([-1e308, 2.0]), ScoreSpec(metric="mae"))
    assert scorer.gathers == 0
    assert scorer.observed() == math.inf
    assert np.isinf(scorer.scores(np.array([[1, 1], [0, 1]]))).all()
    assert math.isnan(score([np.nan, 1.0], [0.0, 1.0], ScoreSpec(metric="mae")))
