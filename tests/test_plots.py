import xml.etree.ElementTree as ET

import numpy as np
import pytest

from boardstats.bootstrap import CI
from boardstats.inference import PairedDelta, p_value
from boardstats.plots import render_delta_histogram, render_difference_plot, render_forest_plot

SVG = "{http://www.w3.org/2000/svg}"


def groups(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [g for g in root.iter(f"{SVG}g") if g.get("class") == cls]


def summary(name, observed, lci, uci):
    return name, observed, CI(lci=lci, mean=(lci + uci) / 2, uci=uci)


def test_forest_plot_orders_best_first():
    summaries = [
        summary("mid", 0.5, 0.4, 0.6),
        summary("best", 0.8, 0.7, 0.9),
        summary("worst", 0.2, 0.1, 0.3),
        summary("good", 0.7, 0.6, 0.8),
        summary("bad", 0.3, 0.2, 0.4),
    ]
    fig = render_forest_plot(summaries)
    rows = groups(fig.svg, "system")
    assert [g.get("data-name") for g in rows] == ["best", "good", "mid", "bad", "worst"]


def test_forest_plot_lower_better_orders_ascending():
    summaries = [summary("late", 2.0, 1.8, 2.2), summary("early", 1.0, 0.9, 1.1)]
    fig = render_forest_plot(summaries, higher_better=False)
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
        render_difference_plot([])


def make_pd(values, observed):
    return PairedDelta(
        reference="ref", competitor="comp",
        delta_values=np.asarray(values, float), observed_delta=observed,
    )


def test_histogram_reference_lines_and_bins():
    g = np.random.default_rng(3)
    pd = make_pd(g.normal(0.15, 0.05, 4000), 0.15)
    fig = render_delta_histogram(pd)
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
        pd = make_pd(g.normal(loc, 0.04, 3000), loc)
        fig = render_delta_histogram(pd)
        edges = np.asarray(fig.data["bin_edges"])
        counts = np.asarray(fig.data["counts"])
        two_delta = 2 * pd.observed_delta
        mass = counts[edges[:-1] >= two_delta].sum() / len(pd.delta_values)
        assert abs(mass - fig.data["p_value"]) <= 1 / len(pd.delta_values) + 1e-12
        assert fig.data["p_value"] == p_value(pd)


def test_histogram_degenerate_all_equal():
    pd = make_pd([0.0] * 50, 0.0)
    fig = render_delta_histogram(pd)
    root = ET.fromstring(fig.svg)
    bars = [r for r in root.iter(f"{SVG}rect") if (r.get("class") or "") == "bar"]
    assert len(bars) == 1
    marks = [l for l in root.iter(f"{SVG}line") if "mark" in (l.get("class") or "")]
    assert len(marks) == 3  # the three lines coincide at zero
    xs = {l.get("x1") for l in marks}
    assert len(xs) == 1


def test_histogram_explicit_bin_count():
    pd = make_pd(np.linspace(-1, 1, 100), 0.2)
    fig = render_delta_histogram(pd, bins=10)
    # 10 requested plus inserted reference boundaries
    assert 10 <= len(fig.data["counts"]) <= 13


def test_render_is_deterministic():
    g = np.random.default_rng(1)
    pd = make_pd(g.normal(0.1, 0.03, 500), 0.1)
    assert render_delta_histogram(pd).svg == render_delta_histogram(pd).svg
