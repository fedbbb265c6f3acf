"""Static SVG renderings of the standard analysis figures.

Three figures: a forest plot of per-system confidence intervals, an interval
plot of differences against the best system (red when the interval straddles
zero, green when it does not), and a histogram of one pair's bootstrap
difference distribution with reference lines at zero, the observed delta and
twice the observed delta.

Every renderer returns an ``SvgFigure`` carrying the SVG markup plus a plain
data dictionary (the JSON sidecar) from which the figure can be re-rendered.
The markup is deterministic: fixed canvas, fixed number formatting, no
timestamps or random ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bootstrap import CI
from .inference import PairedDelta, p_value

RED = "#c0392b"
GREEN = "#1e8449"
INK = "#2c3e50"

_WIDTH = 640
_MARGIN_LEFT = 150
_MARGIN_RIGHT = 30
_ROW_H = 26
_TOP = 34
_BOTTOM = 30


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="sans-serif" font-size="11">'
        ]

    def line(self, x1, y1, x2, y2, stroke=INK, width=1.5, cls="", dash=""):
        attrs = f'class="{cls}" ' if cls else ""
        attrs += f'stroke-dasharray="{dash}" ' if dash else ""
        self.parts.append(
            f'<line {attrs}x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, cx, cy, r, fill=INK, cls=""):
        attrs = f'class="{cls}" ' if cls else ""
        self.parts.append(
            f'<circle {attrs}cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" fill="{fill}"/>'
        )

    def rect(self, x, y, w, h, fill, cls=""):
        attrs = f'class="{cls}" ' if cls else ""
        self.parts.append(
            f'<rect {attrs}x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"/>'
        )

    def text(self, x, y, content, anchor="start", fill=INK, cls=""):
        attrs = f'class="{cls}" ' if cls else ""
        self.parts.append(
            f'<text {attrs}x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'fill="{fill}">{_escape(content)}</text>'
        )

    def group_open(self, cls: str, **data):
        attrs = "".join(f' data-{k.replace("_", "-")}="{v}"' for k, v in data.items())
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
        canvas.text(to_x(v), y + 16, f"{v:.3f}", anchor="middle")


def render_forest_plot(
    systems: Sequence[tuple[str, float, CI]], higher_better: bool = True
) -> SvgFigure:
    """Interval-per-system forest plot of (name, observed score, CI), best
    system on top."""
    if not systems:
        raise ValueError("need at least one system to plot")
    ordered = sorted(systems, key=lambda s: s[1], reverse=higher_better)
    height = _TOP + _ROW_H * len(ordered) + _BOTTOM
    canvas = _Canvas(_WIDTH, height)
    canvas.text(_MARGIN_LEFT, 18, "Bootstrap confidence intervals", cls="title")
    to_x, lo, hi = _x_scale(
        min(ci.lci for _, _, ci in ordered), max(ci.uci for _, _, ci in ordered)
    )
    rows = []
    for k, (name, observed, ci) in enumerate(ordered):
        y = _TOP + _ROW_H * (k + 0.5)
        canvas.group_open(
            "system", name=name, observed=f"{observed:.6f}",
            lci=f"{ci.lci:.6f}", mean=f"{ci.mean:.6f}", uci=f"{ci.uci:.6f}",
        )
        canvas.text(_MARGIN_LEFT - 8, y + 4, name, anchor="end")
        canvas.line(to_x(ci.lci), y, to_x(ci.uci), y, cls="interval")
        canvas.line(to_x(ci.lci), y - 5, to_x(ci.lci), y + 5, width=1)
        canvas.line(to_x(ci.uci), y - 5, to_x(ci.uci), y + 5, width=1)
        canvas.circle(to_x(ci.mean), y, 3.5, cls="mean")
        canvas.group_close()
        rows.append({"system": name, "observed": observed, **ci._asdict()})
    _axis(canvas, to_x, lo, hi, _TOP + _ROW_H * len(ordered) + 6)
    return SvgFigure(svg=canvas.render(), data={"kind": "forest", "systems": rows})


def render_difference_plot(
    diffs: Sequence[tuple[str, CI]], reference: str = ""
) -> SvgFigure:
    """Difference-to-best intervals; red straddles zero, green does not."""
    if not diffs:
        raise ValueError("need at least one comparison to plot")
    height = _TOP + _ROW_H * len(diffs) + _BOTTOM
    canvas = _Canvas(_WIDTH, height)
    title = "Differences from the best"
    if reference:
        title += f" ({reference})"
    canvas.text(_MARGIN_LEFT, 18, title, cls="title")
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
            "comparison", name=name, lci=f"{ci.lci:.6f}", mean=f"{ci.mean:.6f}",
            uci=f"{ci.uci:.6f}", contains_zero=str(ci.contains_zero).lower(),
        )
        canvas.text(_MARGIN_LEFT - 8, y + 4, name, anchor="end")
        canvas.line(to_x(ci.lci), y, to_x(ci.uci), y, stroke=color, cls=cls, width=2)
        canvas.line(to_x(ci.lci), y - 5, to_x(ci.lci), y + 5, stroke=color, width=1)
        canvas.line(to_x(ci.uci), y - 5, to_x(ci.uci), y + 5, stroke=color, width=1)
        canvas.circle(to_x(ci.mean), y, 3.5, fill=color, cls="mean")
        canvas.group_close()
        rows.append(
            {
                "competitor": name,
                "lci": ci.lci,
                "mean": ci.mean,
                "uci": ci.uci,
                "contains_zero": ci.contains_zero,
            }
        )
    zero_x = to_x(0.0)
    canvas.line(zero_x, _TOP - 6, zero_x, height - _BOTTOM + 2, width=1, dash="4 3")
    _axis(canvas, to_x, lo, hi, _TOP + _ROW_H * len(diffs) + 6)
    return SvgFigure(
        svg=canvas.render(),
        data={"kind": "differences", "reference": reference, "comparisons": rows},
    )


def render_delta_histogram(pd: PairedDelta, bins: Optional[int] = None) -> SvgFigure:
    """Histogram of the bootstrap difference distribution of one pair.

    Vertical reference lines mark zero, the observed delta and twice the
    observed delta; the doubled delta is always a bin boundary when it falls
    inside the data range, so the mass drawn to its right matches the
    exceedance fraction behind the p-value.
    """
    values = np.asarray(pd.delta_values, dtype=float)
    B = len(values)
    if B < 1:
        raise ValueError("need at least one replicate to plot")
    nbins = bins if bins is not None else max(1, math.ceil(math.sqrt(B)))
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, nbins + 1)
    marks = {
        "zero": 0.0,
        "delta": pd.observed_delta,
        "two_delta": 2.0 * pd.observed_delta,
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
        f"Bootstrap differences: {pd.reference} vs {pd.competitor}", cls="title",
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
            "reference": pd.reference,
            "competitor": pd.competitor,
            "observed_delta": pd.observed_delta,
            "bin_edges": edges.tolist(),
            "counts": counts.tolist(),
            "p_value": p_value(pd),
            "replicates": B,
        },
    )
