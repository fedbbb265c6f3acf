import xml.etree.ElementTree as ET

import numpy as np
import pytest

from boardstats.bootstrap import CI, SamplingDistribution
from boardstats.inference import MatrixEntry, delta_from_distributions, rank_systems
from boardstats.plots import render_delta_histogram, render_difference_plot, render_forest_plot
from boardstats.table import ScoreSpec

SVG = "{http://www.w3.org/2000/svg}"


def groups(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [g for g in root.iter(f"{SVG}g") if g.get("class") == cls]


def summary(name, observed, lci, uci):
    return name, observed, CI(lci=lci, mean=(lci + uci) / 2, uci=uci)


def test_forest_plot_keeps_the_given_order():
    # the caller's ranking decides the order, whichever way the metric points
    summaries = [
        summary("mid", 0.5, 0.4, 0.6),
        summary("best", 0.8, 0.7, 0.9),
        summary("worst", 0.2, 0.1, 0.3),
        summary("good", 0.7, 0.6, 0.8),
        summary("bad", 0.3, 0.2, 0.4),
    ]
    fig = render_forest_plot(summaries)
    rows = groups(fig.svg, "system")
    assert [g.get("data-name") for g in rows] == ["mid", "best", "worst", "good", "bad"]
    assert [row["system"] for row in fig.data["systems"]] == ["mid", "best", "worst", "good", "bad"]


def ranked_forest(summaries, spec):
    # the pipeline draws the forest plot in the order rank_systems gives
    by_name = {name: (name, observed, ci) for name, observed, ci in summaries}
    order = rank_systems({name: observed for name, observed, _ in summaries}, spec)
    return render_forest_plot([by_name[name] for name in order])


def test_forest_plot_orders_best_first():
    summaries = [
        summary("mid", 0.5, 0.4, 0.6),
        summary("best", 0.8, 0.7, 0.9),
        summary("worst", 0.2, 0.1, 0.3),
        summary("good", 0.7, 0.6, 0.8),
        summary("bad", 0.3, 0.2, 0.4),
    ]
    fig = ranked_forest(summaries, ScoreSpec(metric="accuracy"))
    rows = groups(fig.svg, "system")
    assert [g.get("data-name") for g in rows] == ["best", "good", "mid", "bad", "worst"]


def test_forest_plot_lower_better_orders_ascending():
    summaries = [summary("late", 2.0, 1.8, 2.2), summary("early", 1.0, 0.9, 1.1)]
    spec = ScoreSpec(metric="mae")
    fig = ranked_forest(summaries, spec)
    rows = groups(fig.svg, "system")
    assert [g.get("data-name") for g in rows] == ["early", "late"]


def test_forest_plot_single_and_degenerate():
    fig = render_forest_plot([summary("only", 0.5, 0.5, 0.5)])
    rows = groups(fig.svg, "system")
    assert len(rows) == 1
    assert rows[0].get("data-lci") == rows[0].get("data-uci")
    with pytest.raises(ValueError):
        render_forest_plot([])


def test_forest_sidecar_matches_svg():
    summaries = [summary("a", 0.6, 0.5, 0.7), summary("b", 0.4, 0.3, 0.5)]
    fig = render_forest_plot(summaries)
    assert [row["system"] for row in fig.data["systems"]] == ["a", "b"]
    assert fig.data["systems"][0]["lci"] == 0.5


def test_difference_plot_colors_by_zero_straddle():
    diffs = [
        ("straddles", CI(lci=-0.0371, mean=0.0269, uci=0.0910)),
        ("clear", CI(lci=0.0211, mean=0.0680, uci=0.1149)),
        ("self", CI(lci=0.0, mean=0.0, uci=0.0)),
    ]
    fig = render_difference_plot(diffs, reference="winner")
    rows = groups(fig.svg, "comparison")
    flags = {g.get("data-name"): g.get("data-contains-zero") for g in rows}
    assert flags == {"straddles": "true", "clear": "false", "self": "true"}
    for g in rows:
        line = next(l for l in g.iter(f"{SVG}line") if "interval" in (l.get("class") or ""))
        wants_red = g.get("data-contains-zero") == "true"
        assert line.get("stroke") == ("#c0392b" if wants_red else "#1e8449")
        assert ("contains-zero" in line.get("class")) == wants_red
    with pytest.raises(ValueError):
        render_difference_plot([], reference="winner")


def compare(values, observed):
    """The entry and delta row of a pair whose deltas are exactly ``values``:
    a distribution holding them against an all-zero one."""
    values = np.asarray(values, float)
    return delta_from_distributions(
        "ref", "comp", SamplingDistribution(values, observed),
        SamplingDistribution(np.zeros_like(values), 0.0), ScoreSpec(metric="accuracy"), 0.95,
    )


def test_histogram_reference_lines_and_bins():
    g = np.random.default_rng(3)
    fig = render_delta_histogram(*compare(g.normal(0.15, 0.05, 4000), 0.15))
    root = ET.fromstring(fig.svg)
    marks = [l for l in root.iter(f"{SVG}line") if "mark" in (l.get("class") or "")]
    assert len(marks) == 3
    labels = {l.get("class").split()[-1] for l in marks}
    assert labels == {"zero", "delta", "two_delta"}
    assert 0.3 in fig.data["bin_edges"]  # 2*delta is a bin boundary
    assert sum(fig.data["counts"]) == 4000


def test_histogram_mass_right_of_two_delta_equals_p_value():
    g = np.random.default_rng(9)
    for loc in (0.02, 0.05, 0.1):
        entry, deltas = compare(g.normal(loc, 0.04, 3000), loc)
        fig = render_delta_histogram(entry, deltas)
        edges = np.asarray(fig.data["bin_edges"])
        counts = np.asarray(fig.data["counts"])
        mass = counts[edges[:-1] >= 2 * entry.delta].sum() / len(deltas)
        assert abs(mass - fig.data["p_value"]) <= 1 / len(deltas) + 1e-12
        assert fig.data["p_value"] == entry.p


def test_histogram_reads_names_delta_and_p_from_the_entry():
    entry = MatrixEntry("x<y", "z", 0.125, 0.375, "", CI(0.0, 0.1, 0.2))
    fig = render_delta_histogram(entry, np.linspace(-0.1, 0.3, 40))
    assert (fig.data["reference"], fig.data["competitor"]) == ("x<y", "z")
    assert (fig.data["observed_delta"], fig.data["p_value"]) == (0.125, 0.375)
    title = next(t for t in ET.fromstring(fig.svg).iter(f"{SVG}text") if t.get("class") == "title")
    assert title.text == "Bootstrap differences: x<y vs z"


def test_histogram_degenerate_all_equal():
    fig = render_delta_histogram(*compare([0.0] * 50, 0.0))
    root = ET.fromstring(fig.svg)
    bars = [r for r in root.iter(f"{SVG}rect") if (r.get("class") or "") == "bar"]
    assert len(bars) == 1
    marks = [l for l in root.iter(f"{SVG}line") if "mark" in (l.get("class") or "")]
    assert len(marks) == 3  # the three lines coincide at zero
    xs = {l.get("x1") for l in marks}
    assert len(xs) == 1


def test_render_is_deterministic():
    g = np.random.default_rng(1)
    pair = compare(g.normal(0.1, 0.03, 500), 0.1)
    assert render_delta_histogram(*pair).svg == render_delta_histogram(*pair).svg
