"""Static SVG renderings of the standard analysis figures.

Three figures: a forest plot of per-system confidence intervals, an interval
plot of differences against the best system (red when the interval straddles
zero, green when it does not), and a histogram of one pair's bootstrap
difference distribution with reference lines at zero, the observed delta and
twice the observed delta.

Every renderer returns an ``SvgFigure`` carrying the SVG markup plus a plain
data dictionary (the JSON sidecar) from which the figure can be re-rendered.
The markup is deterministic: fixed canvas, every number written by
``dataio.fmt_float``, no timestamps or random ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bootstrap import CI
from .dataio import fmt_float
from .inference import MatrixEntry

RED = "#c0392b"
GREEN = "#1e8449"
INK = "#2c3e50"

_WIDTH = 640
_MARGIN_LEFT = 150
_MARGIN_RIGHT = 30
_ROW_H = 26
_TOP = 34
_BOTTOM = 30


def _coords(**values: float) -> str:
    """Coordinate attributes, each at 2 places."""
    return " ".join(f'{name}="{fmt_float(v, 2)}"' for name, v in values.items())


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="sans-serif" font-size="11">'
        ]

    def line(self, x1, y1, x2, y2, width, stroke=INK, cls="", dash=""):
        attrs = f'class="{cls}" ' if cls else ""
        attrs += f'stroke-dasharray="{dash}" ' if dash else ""
        self.parts.append(
            f'<line {attrs}{_coords(x1=x1, y1=y1, x2=x2, y2=y2)} '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, cx, cy, r, fill, cls):
        self.parts.append(
            f'<circle class="{cls}" {_coords(cx=cx, cy=cy)} r="{r}" fill="{fill}"/>'
        )

    def rect(self, x, y, w, h, fill, cls):
        self.parts.append(
            f'<rect class="{cls}" {_coords(x=x, y=y, width=w, height=h)} fill="{fill}"/>'
        )

    def text(self, x, y, content, anchor="start", cls=""):
        attrs = f'class="{cls}" ' if cls else ""
        self.parts.append(
            f'<text {attrs}{_coords(x=x, y=y)} text-anchor="{anchor}" '
            f'fill="{INK}">{_escape(content)}</text>'
        )

    def group_open(self, cls: str, **data):
        attrs = "".join(f' data-{k.replace("_", "-")}="{_escape(v)}"' for k, v in data.items())
        self.parts.append(f'<g class="{cls}"{attrs}>')

    def group_close(self):
        self.parts.append("</g>")

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


@dataclass(frozen=True)
class SvgFigure:
    svg: str
    data: dict

    def __str__(self) -> str:
        return self.svg


def _x_scale(lo: float, hi: float):
    if hi <= lo:
        pad = abs(lo) * 0.05 + 0.01
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    lo -= 0.04 * span
    hi += 0.04 * span
    inner = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT

    def to_x(v: float) -> float:
        return _MARGIN_LEFT + (v - lo) / (hi - lo) * inner

    return to_x, lo, hi


def _axis(canvas: _Canvas, to_x, lo: float, hi: float, y: float):
    canvas.line(_MARGIN_LEFT, y, _WIDTH - _MARGIN_RIGHT, y, width=1)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        canvas.line(to_x(v), y, to_x(v), y + 4, width=1)
        canvas.text(to_x(v), y + 16, fmt_float(v, 3), anchor="middle")


def _interval_row(canvas: _Canvas, to_x, y: float, name: str, ci: CI,
                  color: str = INK, cls: str = "interval", width: float = 1.5):
    """One labelled interval: the name, a bar from lci to uci, end caps and a
    dot at the mean."""
    canvas.text(_MARGIN_LEFT - 8, y + 4, name, anchor="end")
    canvas.line(to_x(ci.lci), y, to_x(ci.uci), y, stroke=color, cls=cls, width=width)
    for end in (ci.lci, ci.uci):
        canvas.line(to_x(end), y - 5, to_x(end), y + 5, stroke=color, width=1)
    canvas.circle(to_x(ci.mean), y, 3.5, fill=color, cls="mean")


def render_forest_plot(systems: Sequence[tuple[str, float, CI]]) -> SvgFigure:
    """Forest plot of (name, observed score, CI), one row each in the order given."""
    if not systems:
        raise ValueError("need at least one system to plot")
    height = _TOP + _ROW_H * len(systems) + _BOTTOM
    canvas = _Canvas(_WIDTH, height)
    canvas.text(_MARGIN_LEFT, 18, "Bootstrap confidence intervals", cls="title")
    to_x, lo, hi = _x_scale(
        min(ci.lci for _, _, ci in systems), max(ci.uci for _, _, ci in systems)
    )
    rows = []
    for k, (name, observed, ci) in enumerate(systems):
        y = _TOP + _ROW_H * (k + 0.5)
        canvas.group_open(
            "system", name=name, observed=fmt_float(observed, 6),
            lci=fmt_float(ci.lci, 6), mean=fmt_float(ci.mean, 6), uci=fmt_float(ci.uci, 6),
        )
        _interval_row(canvas, to_x, y, name, ci)
        canvas.group_close()
        rows.append({"system": name, "observed": observed, **ci._asdict()})
    _axis(canvas, to_x, lo, hi, _TOP + _ROW_H * len(systems) + 6)
    return SvgFigure(svg=canvas.render(), data={"kind": "forest", "systems": rows})


def render_difference_plot(diffs: Sequence[tuple[str, CI]], reference: str) -> SvgFigure:
    """Differences from ``reference``, the best; red straddles zero, green does not."""
    if not diffs:
        raise ValueError("need at least one comparison to plot")
    height = _TOP + _ROW_H * len(diffs) + _BOTTOM
    canvas = _Canvas(_WIDTH, height)
    canvas.text(_MARGIN_LEFT, 18, f"Differences from the best ({reference})", cls="title")
    to_x, lo, hi = _x_scale(
        min(min(ci.lci for _, ci in diffs), 0.0),
        max(max(ci.uci for _, ci in diffs), 0.0),
    )
    rows = []
    for k, (name, ci) in enumerate(diffs):
        y = _TOP + _ROW_H * (k + 0.5)
        color = RED if ci.contains_zero else GREEN
        cls = "interval contains-zero" if ci.contains_zero else "interval excludes-zero"
        canvas.group_open(
            "comparison", name=name, lci=fmt_float(ci.lci, 6), mean=fmt_float(ci.mean, 6),
            uci=fmt_float(ci.uci, 6), contains_zero=str(ci.contains_zero).lower(),
        )
        _interval_row(canvas, to_x, y, name, ci, color, cls, width=2)
        canvas.group_close()
        rows.append({"competitor": name, **ci._asdict(), "contains_zero": ci.contains_zero})
    zero_x = to_x(0.0)
    canvas.line(zero_x, _TOP - 6, zero_x, height - _BOTTOM + 2, width=1, dash="4 3")
    _axis(canvas, to_x, lo, hi, _TOP + _ROW_H * len(diffs) + 6)
    return SvgFigure(
        svg=canvas.render(),
        data={"kind": "differences", "reference": reference, "comparisons": rows},
    )


def render_delta_histogram(entry: MatrixEntry, deltas: np.ndarray) -> SvgFigure:
    """Histogram of ``deltas``, the bootstrap difference distribution of the
    pair that ``entry`` compares; names, observed delta and p-value are the
    entry's.

    Vertical reference lines mark zero, the observed delta and twice the
    observed delta; the doubled delta is always a bin boundary when it falls
    inside the data range, so the mass drawn to its right matches the
    exceedance fraction behind the p-value.
    """
    values = np.asarray(deltas, dtype=float)
    B = len(values)
    if B < 1:
        raise ValueError("need at least one replicate to plot")
    nbins = max(1, math.ceil(math.sqrt(B)))
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, nbins + 1)
    marks = {
        "zero": 0.0,
        "delta": entry.delta,
        "two_delta": 2.0 * entry.delta,
    }
    for v in marks.values():
        if lo < v < hi and not np.any(np.isclose(edges, v, rtol=0, atol=1e-12)):
            edges = np.sort(np.append(edges, v))
    counts, edges = np.histogram(values, bins=edges)

    height = 260
    plot_top = 30
    plot_bottom = height - 40
    canvas = _Canvas(_WIDTH, height)
    canvas.text(
        _MARGIN_LEFT, 18,
        f"Bootstrap differences: {entry.reference} vs {entry.competitor}", cls="title",
    )
    to_x, axis_lo, axis_hi = _x_scale(float(edges[0]), float(edges[-1]))
    peak = max(int(counts.max()), 1)
    for k in range(len(counts)):
        if counts[k] == 0:
            continue
        x0, x1 = to_x(float(edges[k])), to_x(float(edges[k + 1]))
        h = (plot_bottom - plot_top) * counts[k] / peak
        canvas.rect(x0, plot_bottom - h, max(x1 - x0 - 0.5, 0.5), h,
                    fill="#7f8fa6", cls="bar")
    for label, v in marks.items():
        x = to_x(min(max(v, axis_lo), axis_hi))
        canvas.line(x, plot_top - 6, x, plot_bottom, stroke=INK, width=1,
                    cls=f"mark {label}", dash="5 3")
        canvas.text(x, plot_top - 10, {"zero": "0", "delta": "δ", "two_delta": "2δ"}[label],
                    anchor="middle", cls=f"mark-label {label}")
    _axis(canvas, to_x, axis_lo, axis_hi, plot_bottom + 6)

    return SvgFigure(
        svg=canvas.render(),
        data={
            "kind": "delta_histogram",
            "reference": entry.reference,
            "competitor": entry.competitor,
            "observed_delta": entry.delta,
            "bin_edges": edges.tolist(),
            "counts": counts.tolist(),
            "p_value": entry.p,
            "replicates": B,
        },
    )
