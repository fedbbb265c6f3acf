"""``bootstrap.percentile_rows`` against numpy's own linear quantile rule.

The endpoints are selected by partitions rather than taken from
``np.quantile``; these tests hold them to ``np.quantile(..., method="linear")``
byte for byte, including signed zeros, non-finite rows and rows whose mean
overflows, and pin the values on a fixed vector so that a change of numpy's
rule cannot pass unnoticed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boardstats.bootstrap import distributions, percentile_ci, percentile_rows
from boardstats.inference import matrix_from_distributions
from boardstats.table import BootstrapPlan, PredictionTable, ScoreSpec


def reference(values, confidence):
    """(lci, mean, uci) by ``np.quantile`` and the mean rule of ``percentile_rows``."""
    values = np.asarray(values, dtype=float)
    tail = (1.0 - confidence) / 2.0
    lci, uci = np.quantile(values, [tail, 1.0 - tail], axis=-1, method="linear")
    with np.errstate(over="ignore"):
        mean = values.mean(axis=-1)
    if np.isinf(mean).any():
        overflowed = np.isinf(mean) & np.isfinite(values).all(axis=-1)
        scaled = np.add.reduce(values / values.shape[-1], axis=-1)
        mean = np.where(overflowed, scaled, mean)[()]
    return lci, mean, uci


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def rows_of(kind, shape, g):
    """Replicate values of one ``kind`` with the given shape."""
    if kind == "continuous":
        return g.normal(size=shape)
    if kind == "rounded":  # ties, and -0.0 beside +0.0 where small values round
        return np.round(g.normal(size=shape), 1)
    if kind == "all equal":
        return np.full(shape, g.choice([0.25, -0.0, 0.0]))
    if kind == "signed zeros":  # mostly zeros of both signs, so ranks land on them
        return g.choice([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0], size=shape)
    values = g.normal(size=shape)
    flat = values.reshape(-1, shape[-1])
    row = g.integers(len(flat))
    if kind == "nan":
        flat[row, g.integers(shape[-1])] = np.nan
    elif kind == "inf":
        flat[row, g.integers(shape[-1])] = np.inf
    elif kind == "overflow":  # finite values whose float sum overflows
        flat[row] = 1.5e308 + flat[row] * 1e300
    return values


KINDS = ("continuous", "rounded", "all equal", "signed zeros", "nan", "inf", "overflow")
confidences = st.one_of(
    st.sampled_from([1e-300, 1e-16, 1e-9, 0.5, 0.9, 0.95, 1 - 1e-9, 1 - 1e-16,
                     math.nextafter(1.0, 0.0)]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@given(
    kind=st.sampled_from(KINDS),
    lead=st.sampled_from([(), (1,), (5,), (2, 3)]),
    B=st.sampled_from([2, 3, 4, 7, 40, 1001, 10_000]),
    confidence=confidences,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
# rows of zeros of both signs and a few ones: each endpoint is a zero whose
# sign np.quantile's own selection decides
@example(kind="signed zeros", lead=(64,), B=2, confidence=0.95, seed=1)
@example(kind="signed zeros", lead=(64,), B=3, confidence=0.5, seed=2)
@example(kind="signed zeros", lead=(64,), B=10_000, confidence=0.5, seed=3)
@example(kind="signed zeros", lead=(64,), B=10_000, confidence=1e-9, seed=4)
def test_percentile_rows_is_np_quantile_byte_for_byte(kind, lead, B, confidence, seed):
    values = rows_of(kind, lead + (B,), np.random.default_rng(seed))
    values.flags.writeable = False
    before = values.tobytes()
    # np.quantile warns (invalid value) on rows holding inf, as it always has
    with np.errstate(invalid="ignore"):
        got = percentile_rows(values, confidence)
        want = reference(values, confidence)
    assert_same_bytes(got, want)
    assert values.tobytes() == before


def fixed_vector(B):
    """Values on a 1/10007 grid from integer arithmetic alone, identical on
    every platform."""
    k = np.arange(B)
    return ((k * 7919 + 13) % 10007) / 10007 - 0.5


# float.hex of (lci, mean, uci), as numpy's linear rule gives them
PINNED = {
    (2, 0.95): ("-0x1.ea6949210428dp-2", "-0x1.a60090140e6d8p-4", "0x1.17690116fcf21p-2"),
    (2, 0.5): ("-0x1.3415cbc2e8f35p-2", "-0x1.a60090140e6d8p-4", "0x1.84560ee386f24p-4"),
    (3, 0.95): ("-0x1.e0d5fd34d8f4ep-2", "-0x1.4d514ef472070p-5", "0x1.20fc4d0328261p-2"),
    (3, 0.5): ("-0x1.a8a9a91271d72p-3", "-0x1.4d514ef472070p-5", "0x1.81acf5e52388ap-3"),
    (10_000, 0.95): ("-0x1.e66ba3a36f0aap-2", "0x1.f29afa304373fp-17", "0x1.e651717243d56p-2"),
    (10_000, 0.5): ("-0x1.0000000000000p-2", "0x1.f29afa304373fp-17", "0x1.fffffffffffffp-3"),
}


@pytest.mark.parametrize("B, confidence", sorted(PINNED))
def test_pinned_values_of_the_linear_rule(B, confidence):
    values = fixed_vector(B)
    assert tuple(float(v).hex() for v in percentile_rows(values, confidence)) == PINNED[B, confidence]
    # the pins are numpy's rule: if numpy changes it, this fails here too
    assert tuple(float(v).hex() for v in reference(values, confidence)) == PINNED[B, confidence]


def test_signed_zero_scores_give_np_quantile_bytes_at_the_public_boundary():
    # a custom metric scoring -0.0 on some replicates and +0.0 on others
    g = np.random.default_rng(5)
    gold = g.choice(["x", "y"], size=40)
    preds = {
        name: np.where(g.random(40) < rate, gold, np.where(gold == "x", "y", "x"))
        for name, rate in (("a", 0.5), ("b", 0.5), ("c", 0.55))
    }
    table = PredictionTable.build(gold, preds)
    spec = ScoreSpec(
        metric="custom", name="signed zero",
        fn=lambda gold, pred: -0.0 if np.mean(gold == pred) < 0.5 else 0.0,
    )
    plan = BootstrapPlan(replicates=400, seed=9)
    tail = (1.0 - plan.confidence) / 2.0

    def quantile_hex(values):
        return [float(v).hex() for v in np.quantile(values, [tail, 1.0 - tail])]

    dists = distributions(table, spec, plan)
    for dist in dists.values():
        values, ci = dist.values, percentile_ci(dist, plan.confidence)
        assert np.signbit(values).any() and not np.signbit(values).all()
        assert [ci.lci.hex(), ci.uci.hex()] == quantile_hex(values)

    matrix = matrix_from_distributions(dists, spec, plan.confidence)
    mixed = 0
    for entry in matrix.entries.values():
        deltas = dists[entry.reference].values - dists[entry.competitor].values
        mixed += bool(np.signbit(deltas).any() and not np.signbit(deltas).all())
        assert [entry.ci.lci.hex(), entry.ci.uci.hex()] == quantile_hex(deltas)
    assert mixed  # at least one pair's deltas mix -0.0 and +0.0
