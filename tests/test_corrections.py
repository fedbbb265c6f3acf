import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boardstats.corrections import PValueFamily, adjust, adjust_all, build_families

# the four per-reference families of a five-system ranking, raw p-values
# paired with their published adjusted values at four decimals
FAMILY_CASES = [
    (
        [0.2030, 0.0551, 0.0012, 0.0000],
        {
            "bonferroni": [0.8120, 0.2204, 0.0048, 0.0000],
            "holm": [0.2030, 0.1102, 0.0036, 0.0000],
            "bh": [0.2030, 0.0735, 0.0024, 0.0000],
        },
    ),
    (
        [0.1490, 0.0039, 0.0000],
        {
            "bonferroni": [0.4470, 0.0117, 0.0000],
            "holm": [0.1490, 0.0078, 0.0000],
            "bh": [0.1490, 0.0058, 0.0000],
        },
    ),
    (
        [0.0330, 0.0003],
        {
            "bonferroni": [0.0660, 0.0006],
            "holm": [0.0330, 0.0006],
            "bh": [0.0330, 0.0006],
        },
    ),
    (
        [0.0427],
        {"bonferroni": [0.0427], "holm": [0.0427], "bh": [0.0427]},
    ),
]


@pytest.mark.parametrize("raw,expected", FAMILY_CASES)
@pytest.mark.parametrize("method", ["bonferroni", "holm", "bh"])
def test_published_families_to_four_decimals(raw, expected, method):
    family = PValueFamily(tuple(enumerate(raw)))
    adjusted = adjust(family, method)
    got = [round(adjusted[i], 4) for i in range(len(raw))]
    assert got == expected[method]


def test_singleton_family_is_unchanged():
    family = PValueFamily((("only", 0.37),))
    for method in ("bonferroni", "holm", "bh"):
        assert adjust(family, method) == {"only": 0.37}


def test_bh_on_equal_pvalues_is_identity():
    family = PValueFamily(tuple(enumerate([0.2] * 7)))
    adjusted = adjust(family, "bh")
    assert all(v == pytest.approx(0.2, abs=1e-15) for v in adjusted.values())


def test_ties_get_equal_adjusted_values():
    family = PValueFamily(tuple(enumerate([0.05, 0.01, 0.05, 0.2])))
    for method in ("bonferroni", "holm", "bh"):
        adjusted = adjust(family, method)
        assert adjusted[0] == adjusted[2]


def test_errors():
    with pytest.raises(ValueError):
        adjust(PValueFamily(()), "holm")
    with pytest.raises(ValueError):
        adjust(PValueFamily((("a", 0.1),)), "sidak")
    with pytest.raises(ValueError):
        PValueFamily((("a", 0.1), ("a", 0.2)))
    with pytest.raises(ValueError):
        PValueFamily((("a", 1.5),))


def test_family_policies():
    ranked = ["r1", "r2", "r3", "r4", "r5"]
    p = {
        (ranked[i], ranked[j]): 0.01 * (i + j)
        for i in range(4)
        for j in range(i + 1, 5)
    }
    per_ref = build_families(ranked, p, "per_reference")
    assert [len(f.entries) for f in per_ref] == [4, 3, 2, 1]
    assert per_ref[0].entries[0][0] == ("r1", "r2")

    winner = build_families(ranked, p, "vs_winner")
    assert len(winner) == 1 and len(winner[0].entries) == 4
    assert all(pair[0] == "r1" for pair, _ in winner[0].entries)

    whole = build_families(ranked, p, "global")
    assert len(whole) == 1 and len(whole[0].entries) == 10

    two = build_families(["a", "b"], {("a", "b"): 0.5}, "vs_winner")
    assert len(two) == 1 and len(two[0].entries) == 1

    with pytest.raises(ValueError):
        build_families(["a"], {}, "global")
    with pytest.raises(ValueError):
        build_families(ranked, p, "bogus")


def test_adjust_all_covers_every_pair():
    ranked = ["x", "y", "z"]
    p = {("x", "y"): 0.2, ("x", "z"): 0.01, ("y", "z"): 0.03}
    out = adjust_all(build_families(ranked, p, "per_reference"))
    assert set(out) == set(p)
    assert set(out[("x", "y")]) == {"bonferroni", "holm", "bh"}


families = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


@given(families)
@settings(max_examples=200, deadline=None)
def test_adjustment_properties(raw):
    family = PValueFamily(tuple(enumerate(raw)))
    bonf = adjust(family, "bonferroni")
    holm = adjust(family, "holm")
    bh = adjust(family, "bh")
    order = np.argsort(raw, kind="stable")
    for out in (bonf, holm, bh):
        for i, p in enumerate(raw):
            assert out[i] >= p - 1e-12
            assert 0.0 <= out[i] <= 1.0
        ranked = [out[i] for i in order]
        assert all(a <= b + 1e-12 for a, b in zip(ranked, ranked[1:]))
    for i in range(len(raw)):
        assert bonf[i] >= holm[i] - 1e-12 >= bh[i] - 2e-12


@given(families)
@settings(max_examples=60, deadline=None)
def test_against_statsmodels_oracle(raw):
    multipletests = pytest.importorskip("statsmodels.stats.multitest").multipletests
    family = PValueFamily(tuple(enumerate(raw)))
    for ours, theirs in (("bonferroni", "bonferroni"), ("holm", "holm"), ("bh", "fdr_bh")):
        got = adjust(family, ours)
        ref = multipletests(raw, method=theirs)[1]
        for i in range(len(raw)):
            assert got[i] == pytest.approx(ref[i], abs=1e-12)


def _holm_step_down(raw):
    """Holm by hand: walk the p-values from the smallest up, multiply the
    i-th (from 0) by k - i, cap at 1 and never let the result fall."""
    k = len(raw)
    out = [0.0] * k
    running = 0.0
    for i, pos in enumerate(sorted(range(k), key=lambda j: raw[j])):
        running = max(running, min(1.0, (k - i) * raw[pos]))
        out[pos] = running
    return out


@given(families)
@settings(max_examples=60, deadline=None)
def test_bonferroni_and_holm_against_plain_loops(raw):
    family = PValueFamily(tuple(enumerate(raw)))
    bonf, holm = adjust(family, "bonferroni"), adjust(family, "holm")
    for i, ref in enumerate(_holm_step_down(raw)):
        assert bonf[i] == pytest.approx(min(1.0, len(raw) * raw[i]), abs=1e-12)
        assert holm[i] == pytest.approx(ref, abs=1e-12)


@given(families)
@settings(max_examples=60, deadline=None)
def test_bh_against_scipy_oracle(raw):
    false_discovery_control = pytest.importorskip("scipy.stats").false_discovery_control
    got = adjust(PValueFamily(tuple(enumerate(raw))), "bh")
    ref = false_discovery_control(raw, method="bh")
    for i in range(len(raw)):
        assert got[i] == pytest.approx(ref[i], abs=1e-12)
