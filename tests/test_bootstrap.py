import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boardstats
from boardstats import bootstrap, metrics, rng
from boardstats.bootstrap import SamplingDistribution, distributions, percentile_ci
from boardstats.errors import ConfigError, MetricError
from boardstats.metrics import ResampleScorer
from boardstats.report import build_report
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec
from helpers import PATTERN_SPECS, garbage, patterned_table, score_on_indices


def make_table(n=60, seed=3):
    g = np.random.default_rng(seed)
    gold = g.choice(["a", "b", "c"], size=n)
    noisy = gold.copy()
    flips = g.random(n) < 0.3
    noisy[flips] = g.choice(["a", "b", "c"], size=int(flips.sum()))
    return PredictionTable.build(gold, {"noisy": noisy, "perfect": gold})


def replicate_indices(plan, n, r):
    """The n resample indices of replicate r of the plan."""
    return rng.index_block(plan.seed, n, r, r + 1)[0]


def system_distribution(table, system, spec, plan):
    return distributions(table, spec, plan, systems=[system])[system]


def test_single_replicate_is_slice_of_stream():
    plan = BootstrapPlan(replicates=50, seed=99)
    block = rng.index_block(99, 37, 0, 50)
    for r in (0, 1, 17, 49):
        assert np.array_equal(replicate_indices(plan, 37, r), block[r])


def _python_draws(seed, offset, lane, count):
    """32-bit draws of one lane from word ``offset`` as Python ints: each
    word's low half, then its high half."""
    draws = []
    for word in rng._raw_words(seed, offset, lane, (count + 1) // 2).tolist():
        draws += [word & 0xFFFFFFFF, word >> 32]
    return draws[:count]


def _python_index_row(seed, n, replicate):
    """Replicate's indices by multiply-shift with rejection, in plain Python ints.

    Lane 0 gives one draw per slot; each later lane refills the slots the
    previous one rejected, in slot order, from the replicate's first word.
    """
    offset = replicate * ((n + 1) // 2)
    threshold = 2**32 % n
    row = [None] * n
    pending, lane = list(range(n)), 0
    while pending:
        rejected = []
        for slot, x in zip(pending, _python_draws(seed, offset, lane, len(pending))):
            if (x * n) % 2**32 < threshold:
                rejected.append(slot)
            else:
                row[slot] = (x * n) >> 32
        pending, lane = rejected, lane + 1
    return row


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 37, 64, 1001])
def test_index_block_is_multiply_shift_of_raw_stream(n):
    start, stop = 7, 19
    block = rng.index_block(5, n, start, stop)
    assert block.dtype == np.int64 and block.flags.c_contiguous
    expected = [_python_index_row(5, n, r) for r in range(start, stop)]
    assert np.array_equal(block, np.array(expected, dtype=np.int64))
    # into a reused buffer taller than the block, as a short last block is
    buf = garbage((stop - start + 3, n), np.int64)
    into = rng.index_block(5, n, start, stop, out=buf)
    assert into.base is buf and into.shape == block.shape
    assert np.array_equal(into, block)
    assert (buf[stop - start:] == -1).all()


def test_rejected_draws_are_redrawn_from_later_lanes(monkeypatch):
    # n = 3: the threshold 2**32 % 3 is 1, so exactly the draw x = 0 is
    # rejected.  Each replicate owns two words, four draws.  A kept x = 0
    # would give index 0, so the draws that refill the rejected slots are
    # planted too, as indices 1 and 2, and no stream can make them 0.
    seed, n, start, stop = 11, 3, 7, 10
    before = rng.index_block(seed, n, start, stop)
    planted = {(0, 8 * 4 + 0): 0, (0, 8 * 4 + 2): 0, (0, 9 * 4 + 1): 0, (1, 8 * 4 + 0): 0,
               (2, 8 * 4 + 0): 2**31, (1, 8 * 4 + 1): 2**32 - 1, (1, 9 * 4 + 0): 2**31}
    raw_words = rng._raw_words

    def planting(seed_, offset, lane, count):
        words = raw_words(seed_, offset, lane, count)
        for (plant_lane, draw), x in planted.items():
            i = draw - 2 * offset
            if plant_lane == lane and 0 <= i < 2 * count:
                shift = 32 * (i % 2)
                words[i // 2] &= np.uint64(0xFFFFFFFF << (32 - shift))
                words[i // 2] |= np.uint64(x << shift)
        return words

    monkeypatch.setattr(rng, "_raw_words", planting)
    after = rng.index_block(seed, n, start, stop)
    into = rng.index_block(seed, n, start, stop, out=garbage((4, n), np.int64))
    assert np.array_equal(into, after)

    def redraw(replicate, lane, i):
        return (_python_draws(seed, 2 * replicate, lane, i + 1)[i] * n) >> 32

    # replicate 8: slot 0 takes lane-1 draw 0, which is rejected too, so lane-2
    # draw 0; slot 2 takes lane-1 draw 1.  replicate 9: slot 1 takes lane-1 draw 0.
    expected = {(1, 0): redraw(8, 2, 0), (1, 2): redraw(8, 1, 1), (2, 1): redraw(9, 1, 0)}
    assert all(expected.values())  # a kept x = 0 would give index 0 and fail below
    for (row, slot), index in expected.items():
        assert after[row, slot] == index
        after[row, slot] = before[row, slot]
    assert np.array_equal(after, before)


@pytest.mark.parametrize("lane", [0, 1, 2])
def test_raw_words_are_the_lanes_pcg64dxsm_stream_from_the_offset(lane):
    seed, count = 5, 7
    stream = np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(3)[lane])
    ahead = 10**6 + 3
    words = stream.random_raw(ahead + count)
    for offset in (0, 1, (50_000 + 1) // 2, ahead):
        assert np.array_equal(rng._raw_words(seed, offset, lane, count),
                              words[offset:offset + count])


def test_seeds_and_lanes_draw_different_words():
    streams = {(seed, lane): tuple(rng._raw_words(seed, 0, lane, 4).tolist())
               for seed in (0, 1, 5, 2**64 - 1) for lane in (0, 1, 2)}
    assert len(set(streams.values())) == len(streams)


def _lane0_rejections(seed, n, start, stop):
    draws = rng._draws(seed, start * ((n + 1) // 2), 0, (stop - start) * 2 * ((n + 1) // 2))
    low = (draws.reshape(stop - start, -1)[:, :n].astype(np.uint64) * np.uint64(n)) % 2**32
    return int((low < 2**32 % n).sum())


@pytest.mark.parametrize("n, start, stop, rejections, digest", [
    (1001, 0, 64, 0, "262324fa3b81113ba3be748eb2d222fdc6a60a3b6ae6eced7a36152f415fe53b"),
    (50_000, 0, 8, 0, "ab94e5d759e789cadd0de5b70a70a42de8641cf5d8dfd6d1fcc15ecdf0e44233"),
    (50_000, 8, 16, 2, "62c5c7757db5d418ecb634449643511bb24551b14c053e8950f9717a7d827d95"),
], ids=["n1001", "n50000", "n50000-redrawn"])
def test_index_blocks_are_pinned(n, start, stop, rejections, digest):
    # A change to numpy's PCG64DXSM, SeedSequence or advance moves these
    # bytes, and with them every bootstrap-derived artifact byte.  The last
    # block refills draws rejected at their real rate from lane 1.
    block = rng.index_block(5, n, start, stop)
    assert _lane0_rejections(5, n, start, stop) == rejections
    if rejections:
        expected = [_python_index_row(5, n, r) for r in range(start, stop)]
        assert np.array_equal(block, np.array(expected, dtype=np.int64))
    assert hashlib.sha256(block.astype("<i8").tobytes()).hexdigest() == digest


def test_index_block_rejects_sample_size_beyond_32_bits(monkeypatch):
    def unreachable(*args):
        raise AssertionError("no words may be drawn")

    monkeypatch.setattr(rng, "_raw_words", unreachable)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rng.index_block(0, 2**32, 0, 1)


def test_out_of_wrong_shape_or_dtype_is_rejected():
    n, k = 5, 3
    for buf in (garbage((k - 1, n), np.int64), garbage((k, n + 1), np.int64),
                garbage((k * n,), np.int64), garbage((k, n), np.float64),
                garbage((n, k), np.int64).T, garbage((k, n), np.int64).tolist()):
        with pytest.raises(ValueError, match="out must be"):
            rng.index_block(0, n, 0, k, out=buf)
    assert rng.index_block(0, n, 0, k, out=garbage((k, n), np.int64)).shape == (k, n)


def test_indices_deterministic_and_in_range():
    plan = BootstrapPlan(replicates=5, seed=123)
    a = replicate_indices(plan, 11, 3)
    b = replicate_indices(plan, 11, 3)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 11 and len(a) == 11


def test_n_one_always_yields_zero():
    plan = BootstrapPlan(replicates=10, seed=1)
    for r in range(10):
        assert replicate_indices(plan, 1, r).tolist() == [0]


def test_index_frequencies_are_uniform():
    # 100k replicates of n=10: each index should fill 10% +- 0.5%
    idx = rng.index_block(2024, 10, 0, 100_000)
    freq = np.bincount(idx.ravel(), minlength=10) / idx.size
    assert np.all(np.abs(freq - 0.1) < 0.005)


def test_perfect_system_is_perfect_on_every_resample():
    table = make_table()
    plan = BootstrapPlan(replicates=500, seed=5)
    dist = system_distribution(table, "perfect", ScoreSpec(metric="accuracy"), plan)
    assert np.all(dist.values == 1.0)
    assert dist.observed == 1.0


def test_b_one_with_single_row_is_identity():
    table = PredictionTable.build(["a"], {"s": ["a"]})
    plan = BootstrapPlan(replicates=2, seed=8)
    dist = system_distribution(table, "s", ScoreSpec(metric="accuracy"), plan)
    assert dist.values.tolist() == [dist.observed] * 2 == [1.0, 1.0]


def test_distribution_matches_per_replicate_scoring_exactly():
    # the batched engine must agree bit for bit with scoring one replicate
    # at a time, for integer-count and float metrics alike
    table = make_table()
    plan = BootstrapPlan(replicates=64, seed=21)
    for spec in (ScoreSpec(metric="accuracy"), ScoreSpec(metric="macro_f1", labels=("a", "b"))):
        dist = system_distribution(table, "noisy", spec, plan)
        for r in range(64):
            manual = score_on_indices(
                table.gold, table.systems["noisy"], spec, replicate_indices(plan, table.n, r)
            )
            assert dist.values[r] == manual

    reg = PredictionTable.build(
        np.linspace(0, 5, 40), {"s": np.linspace(0.3, 4.6, 40)}, "regression"
    )
    dist = system_distribution(reg, "s", ScoreSpec(metric="mae"), plan)
    for r in range(64):
        manual = score_on_indices(
            reg.gold, reg.systems["s"], ScoreSpec(metric="mae"), replicate_indices(plan, 40, r)
        )
        assert dist.values[r] == manual


def test_worker_count_never_changes_values():
    table = make_table(n=200)
    spec = ScoreSpec(metric="macro_f1", labels=("a", "c"))
    base = distributions(table, spec, BootstrapPlan(replicates=3000, seed=77))
    for workers in (4, 8):
        par = distributions(
            table, spec, BootstrapPlan(replicates=3000, seed=77, workers=workers)
        )
        for name in table.names:
            assert np.array_equal(base[name].values, par[name].values)


@pytest.mark.parametrize(
    "spec",
    [
        ScoreSpec(metric="accuracy"),
        ScoreSpec(metric="macro_f1", labels=("a", "c")),
        ScoreSpec(metric="mae"),
        ScoreSpec(metric="custom", name="agree", fn=lambda g, p: float(np.mean(g == p))),
    ],
    ids=["accuracy", "macro_f1", "mae", "custom"],
)
def test_block_budget_and_workers_never_change_values(monkeypatch, spec):
    n, B = 90, 50
    if spec.metric == "mae":
        g = np.random.default_rng(5)
        gold = g.normal(size=n)
        table = PredictionTable.build(
            gold, {"near": gold + g.normal(scale=0.3, size=n), "far": gold + 1.0}, "regression"
        )
    else:
        table = make_table(n=n)
    plan = BootstrapPlan(replicates=B, seed=13)
    base = distributions(table, spec, plan)

    spans, buffers = [], set()
    index_block = rng.index_block

    def recording_block(seed, size, start, stop, out=None):
        spans.append((start, stop))
        buffers.add((out.ctypes.data, out.shape))
        return index_block(seed, size, start, stop, out=out)

    monkeypatch.setattr(rng, "index_block", recording_block)
    for budget, rows in [(8 * n - 1, 1), (8 * n, 1), (8 * n * 3, 3), (8 * n * 7, 7)]:
        monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", budget)
        for workers in (1, 3):
            spans.clear()
            buffers.clear()
            got = distributions(table, spec, BootstrapPlan(replicates=B, seed=13, workers=workers))
            for name in table.names:
                assert np.array_equal(got[name].values, base[name].values)
            # each worker thread writes all its blocks into one (rows, n) buffer
            assert 1 <= len(buffers) <= workers
            assert {shape for _, shape in buffers} == {(rows, n)}
            # the blocks tile [0, B), each within the budget or one row
            spans.sort()
            assert [s for s, _ in spans] == list(range(0, B, rows))
            assert [e for _, e in spans] == [min(s + rows, B) for s, _ in spans]
            assert all((e - s) * 8 * n <= budget or e - s == 1 for s, e in spans)


@pytest.mark.parametrize(
    "spec,gathers",
    [(ScoreSpec(metric="accuracy"), 1), (ScoreSpec(metric="macro_f1", labels=("a", "c")), 2)],
    ids=["accuracy", "macro_f1"],
)
def test_counts_are_shared_from_enough_words_and_never_change_values(monkeypatch, spec, gathers):
    # two systems of one accuracy column or two f1 column pairs each: at the
    # default threshold of 4 gathers, two accuracy systems gather and two
    # 2-class macro-F1 systems already share one count matrix per block.
    # Their 90 rows hold at most 9 tally patterns, one per (gold, noisy)
    # label pair, within the cap of 90 // 8, so the counts are per pattern
    # unless the cap is patched down to 0.
    table = make_table(n=90)
    plan = BootstrapPlan(replicates=50, seed=13)
    assert [ResampleScorer(table.gold, table.systems[name], spec).gathers
            for name in table.names] == [gathers, gathers]
    assert metrics._COUNT_MIN_GATHERS == 4 and metrics._ROWS_PER_PATTERN == 8
    if spec.metric == "accuracy":
        patterns = 2  # noisy right or wrong; perfect always right
    else:
        patterns = len(set(zip(table.gold, table.systems["noisy"])))
    assert 1 < patterns <= 90 // 8
    counted = []  # (rows, bins, per pattern) of each counted group
    count_rows = metrics._count_rows

    def recording_count_rows(idx, counts, ids):
        counted.append((len(idx), counts.shape[1], ids is not None))
        # 90 rows times the largest tally, 1 or 2, lie far below 2**24
        assert counts.dtype == np.float32
        count_rows(idx, counts, ids)

    monkeypatch.setattr(metrics, "_count_rows", recording_count_rows)
    monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", 2 * gathers + 1)
    gathered = distributions(table, spec, plan)
    assert counted == []
    monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", 4)
    monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * 90 * 7)
    blocks = [7] * 7 + [1]
    per_pattern = [(rows, patterns, True) for rows in blocks]
    by_default = distributions(table, spec, plan)
    assert counted == (per_pattern if spec.metric == "macro_f1" else [])
    counted.clear()
    monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", 2 * gathers)
    in_patterns = distributions(table, spec, plan)
    assert counted == per_pattern
    counted.clear()
    monkeypatch.setattr(metrics, "_ROWS_PER_PATTERN", 91)
    in_rows = distributions(table, spec, plan)
    assert counted == [(rows, 90, False) for rows in blocks]
    for name in table.names:
        for got in (in_patterns, in_rows, by_default):
            assert np.array_equal(got[name].values, gathered[name].values)
            assert got[name].observed == gathered[name].observed
    counted.clear()
    assert np.array_equal(
        system_distribution(table, "noisy", spec, plan).values, gathered["noisy"].values
    )
    assert counted == []


@pytest.mark.parametrize("metric", sorted(PATTERN_SPECS))
def test_pattern_counts_equal_row_counts_and_gathers_bit_for_bit(monkeypatch, metric):
    # G distinct tally patterns in n = 96 rows, around the cap of 96 // 8;
    # every path, block size and worker count gives the gathered bits
    n, B = 96, 30
    default = metrics._ROWS_PER_PATTERN
    cap = n // default
    counted = set()  # (bins, per pattern) of every counted group
    count_rows = metrics._count_rows

    def recording_count_rows(idx, counts, ids):
        counted.add((counts.shape[1], ids is not None))
        count_rows(idx, counts, ids)

    monkeypatch.setattr(metrics, "_count_rows", recording_count_rows)
    for patterns in (1, 3, cap - 1, cap, cap + 1, n):
        table, spec = patterned_table(metric, patterns, n)
        monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", 1000)
        gathered = distributions(table, spec, BootstrapPlan(replicates=B, seed=5))
        assert counted == set()
        monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", 4)
        # rows per pattern: the default, every G in pattern space, none
        for per_pattern in (default, 1, n + 1):
            monkeypatch.setattr(metrics, "_ROWS_PER_PATTERN", per_pattern)
            in_patterns = patterns <= n // per_pattern
            for rows in (1, 7):
                monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
                for workers in (1, 3):
                    counted.clear()
                    got = distributions(
                        table, spec, BootstrapPlan(replicates=B, seed=5, workers=workers)
                    )
                    assert counted == {(patterns if in_patterns else n, in_patterns)}
                    for name in table.names:
                        assert got[name].values.tobytes() == gathered[name].values.tobytes()
                        assert got[name].observed == gathered[name].observed
        counted.clear()


@pytest.mark.parametrize("metric", ["accuracy", "f1", "macro_f1"])
def test_float32_counts_equal_float64_counts_bit_for_bit(monkeypatch, metric):
    # n = 96 rows times the largest tally (2 for f1's pred + gold) lie below
    # 2**24, so the shared counts are float32 unless the bound is patched to
    # 0; in row and pattern space, in 1- and 7-row blocks, on 1 and 3
    # workers, both give the same bytes
    n, B = 96, 30
    table, spec = patterned_table(metric, 5, n)
    dtypes = set()  # dtype of every counted group
    count_rows = metrics._count_rows

    def recording_count_rows(idx, counts, ids):
        dtypes.add(counts.dtype)
        count_rows(idx, counts, ids)

    monkeypatch.setattr(metrics, "_count_rows", recording_count_rows)
    for per_pattern in (1, n + 1):
        monkeypatch.setattr(metrics, "_ROWS_PER_PATTERN", per_pattern)
        for rows in (1, 7):
            monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
            for workers in (1, 3):
                plan = BootstrapPlan(replicates=B, seed=9, workers=workers)
                got = {}
                for bound, dtype in ((metrics._FLOAT32_EXACT, np.float32), (0, np.float64)):
                    with monkeypatch.context() as patch:
                        patch.setattr(metrics, "_FLOAT32_EXACT", bound)
                        dtypes.clear()
                        got[dtype] = distributions(table, spec, plan)
                        assert dtypes == {np.dtype(dtype)}
                for name in table.names:
                    narrowed, wide = got[np.float32][name], got[np.float64][name]
                    assert narrowed.values.tobytes() == wide.values.tobytes()
                    assert narrowed.observed == wide.observed


def test_mae_values_are_equal_on_every_path_budget_and_worker_count(monkeypatch):
    # two MAE systems gather below the default threshold; at a threshold of
    # one gather they share float64 counts and take one limb product each
    n, B = 90, 60
    g = np.random.default_rng(17)
    gold = g.normal(size=n) * 1e6
    table = PredictionTable.build(
        gold, {"near": gold + g.normal(scale=0.3, size=n), "far": gold + 1e-3}, "regression"
    )
    spec, plan = ScoreSpec(metric="mae"), BootstrapPlan(replicates=B, seed=13)
    built = []  # (dtype, per row) of every counted block
    count_rows = metrics._count_rows

    def recording_count_rows(idx, counts, ids):
        built.append((counts.dtype, ids is None))
        count_rows(idx, counts, ids)

    monkeypatch.setattr(metrics, "_count_rows", recording_count_rows)
    base = distributions(table, spec, plan)
    assert built == []
    for threshold in (metrics._COUNT_MIN_GATHERS, 1):
        monkeypatch.setattr(metrics, "_COUNT_MIN_GATHERS", threshold)
        for rows in (1, 3, 7):
            monkeypatch.setattr(bootstrap, "_BLOCK_BYTES", 8 * n * rows)
            for workers in (1, 3):
                built.clear()
                got = distributions(
                    table, spec, BootstrapPlan(replicates=B, seed=13, workers=workers)
                )
                want = [(np.dtype(np.float64), True)] * -(-B // rows)
                assert built == (want if threshold == 1 else [])
                for name in table.names:
                    assert got[name].values.tobytes() == base[name].values.tobytes()
                    assert got[name].observed == base[name].observed


# Prints one sha256 over every system's bootstrap values and observed score,
# for accuracy, macro-F1 and MAE on small seeded tables.  Four systems of at
# least one column pair each put every metric on the shared-count path:
# accuracy counts per pattern (8 patterns in 400 rows, within the cap of 50),
# macro-F1 (54 patterns) and MAE (400) per row.  Accuracy and macro-F1 count
# in float32 (n times a tally of at most 2 lies below 2**24), MAE in float64.
# 3-class macro-F1 and MAE run again in 8 MiB blocks: the float32 product of
# 1024 x 400 row counts with 6 columns and the float64 one of 2000 x 400 with
# 2 limbs exceed OpenBLAS's one-thread size (10**6 multiply-adds), so 2
# threads split them.  At n = 2**17 + 1 each 1 MiB block holds one
# replicate.  There accuracy's 16 patterns make a (1, 16) x (16, 1) product,
# and MAE stays per row: its (1, n) x (n, 2) product OpenBLAS runs on 2
# threads as well.
_DISTRIBUTION_DIGEST = """
import hashlib
import numpy as np
from boardstats import bootstrap, metrics
from boardstats.bootstrap import distributions
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec

g = np.random.default_rng(21)
n = 400
gold = g.choice(["a", "b", "c"], size=n)
labels = {f"s{i}": np.where(g.random(n) < 0.2 * i, g.choice(["a", "b", "c"], size=n), gold)
          for i in range(4)}
real = g.normal(size=n)
values = {f"s{i}": real + g.normal(scale=0.5 * i + 0.1, size=n) for i in range(4)}
classes = PredictionTable.build(gold, labels)
regression = PredictionTable.build(real, values, "regression")
wide_n = 2**17 + 1
wide_gold = g.choice(["a", "b", "c"], size=wide_n)
wide = PredictionTable.build(wide_gold, {
    f"s{i}": np.where(g.random(wide_n) < 0.2 * i + 0.1, g.choice(["a", "b", "c"], size=wide_n),
                      wide_gold)
    for i in range(4)
})
wide_real = g.normal(size=wide_n)
wide_regression = PredictionTable.build(
    wide_real, {f"s{i}": wide_real + g.normal(scale=i + 1.0, size=wide_n) for i in range(4)},
    "regression",
)
# (table, spec, log2 of the block bytes, replicates)
cases = [
    (classes, ScoreSpec(metric="accuracy"), 20, 300),
    (classes, ScoreSpec(metric="macro_f1", labels=("a", "c")), 20, 300),
    (regression, ScoreSpec(metric="mae"), 20, 300),
    (classes, ScoreSpec(metric="macro_f1", labels=("a", "b", "c")), 23, 1024),
    (regression, ScoreSpec(metric="mae"), 23, 2000),
    (wide, ScoreSpec(metric="accuracy"), 20, 20),
    (wide_regression, ScoreSpec(metric="mae"), 20, 20),
]
# (k, G) pattern counts or (k, n) row counts of each case, as above, float32
# but for MAE
for table, spec, _, _ in cases:
    scorers = [metrics.ResampleScorer(table.gold, pred, spec) for pred in table.systems.values()]
    counting = metrics.share_patterns(scorers, table.n)
    zeros = np.zeros((1, table.n), dtype=np.int64)
    out = np.empty((1, counting.width), counting.dtype)
    counts = metrics.shared_counts(counting, zeros, table.n, out)
    assert counts.shape[1] == {"accuracy": 8 if table is classes else 16}.get(spec.metric, table.n)
    assert counts.dtype == (np.float64 if spec.metric == "mae" else np.float32)
digest = hashlib.sha256()
for table, spec, block_bits, replicates in cases:
    bootstrap._BLOCK_BYTES = 1 << block_bits
    plan = BootstrapPlan(replicates=replicates, seed=4)
    for name, dist in distributions(table, spec, plan).items():
        digest.update(name.encode() + dist.values.tobytes() + np.float64(dist.observed).tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_never_changes_values():
    src = str(Path(boardstats.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _DISTRIBUTION_DIGEST],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


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

    plan = BootstrapPlan(replicates=10_000, seed=1)
    dist = system_distribution(table, "s", ScoreSpec(metric="accuracy"), plan)
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
        distributions(
            table, ScoreSpec(metric="accuracy"), BootstrapPlan(replicates=10, seed=0), systems=["ghost"]
        )


def test_non_finite_scores_raise_metric_error():
    table = make_table(n=30)
    plan = BootstrapPlan(replicates=50, seed=2)
    always_nan = ScoreSpec(metric="custom", name="nan", fn=lambda g, p: float("nan"))
    with pytest.raises(MetricError, match="'noisy' on the original data"):
        distributions(table, always_nan, plan)
    first_row = table.gold[0]
    resampled_inf = ScoreSpec(
        metric="custom", name="inf", fn=lambda g, p: 1.0 if g[0] == first_row else float("inf")
    )
    with pytest.raises(MetricError, match=r"inf is not finite for system 'noisy' on replicate \d+"):
        distributions(table, resampled_inf, plan)


def test_non_finite_error_names_first_system_in_caller_order():
    # each system carries one sentinel row; the metric turns infinite on a
    # replicate that draws its own sentinel row twice or more
    n, plan = 30, BootstrapPlan(replicates=60, seed=4)
    gold = ["a"] * n
    table = PredictionTable.build(
        gold,
        {
            "early": ["E" if i == 0 else "a" for i in range(n)],
            "late": ["L" if i == 1 else "a" for i in range(n)],
        },
    )
    sentinel_twice = ScoreSpec(
        metric="custom",
        name="sentinel",
        fn=lambda g, p: float("inf") if np.count_nonzero(np.isin(p, ["E", "L"])) > 1 else 1.0,
    )
    draws = [np.bincount(replicate_indices(plan, n, r), minlength=n) for r in range(plan.replicates)]
    first_bad = {
        name: next(r for r, c in enumerate(draws) if c[row] > 1)
        for name, row in (("early", 0), ("late", 1))
    }
    assert first_bad["early"] < first_bad["late"]
    for order in (["late", "early"], ["early", "late"]):
        with pytest.raises(MetricError) as exc:
            distributions(table, sentinel_twice, plan, systems=order)
        assert str(exc.value) == (
            f"sentinel is not finite for system {order[0]!r} "
            f"on replicate {first_bad[order[0]]}"
        )


def test_metric_classes_absent_from_the_data_are_a_config_error():
    table = PredictionTable.build(
        ["a", "b"] * 10, {"one": ["a", "b"] * 10, "two": ["a", "a"] * 9 + ["only", "b"]}
    )
    plan = BootstrapPlan(replicates=20, seed=1)
    absent = ScoreSpec(metric="macro_f1", labels=("a", "zzz"))
    entries = (
        lambda spec: distributions(table, spec, plan),
        lambda spec: build_report(table, spec, plan),
    )
    for entry in entries:
        with pytest.raises(ConfigError, match=r"metric classes absent from the data: \['zzz'\]"):
            entry(absent)
        with pytest.raises(ConfigError, match="absent"):
            entry(ScoreSpec(metric="f1", labels=("zzz",)))
        # a class that only one system predicts is part of the data
        entry(ScoreSpec(metric="macro_f1", labels=("a", "only")))
        entry(ScoreSpec(metric="f1", labels=("only",)))


def test_summarize_invariants():
    table = make_table(n=120)
    plan = BootstrapPlan(replicates=2000, seed=13)
    dists = distributions(table, ScoreSpec(metric="accuracy"), plan)
    assert list(dists) == list(table.names)
    for dist in dists.values():
        ci = percentile_ci(dist, plan.confidence)
        assert ci.lci <= ci.mean <= ci.uci
        assert ci.lci <= dist.observed <= ci.uci
