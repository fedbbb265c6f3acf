"""Span tracing of boardstats from outside the package.

``Tracer.install`` wraps the package's public functions in place, in every
module that holds a reference to them: callers bind names at import
(``from .bootstrap import distributions``), so patching only the defining
module would miss most call sites.  Each call records a span (name, start,
end, parent) plus counts taken from its arguments or result; ``restore``
puts every original object back.  Spans are kept in memory and reduced to
per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _index_block_counts(call: dict, result) -> dict:
    k = max(call["stop"] - call["start"], 0)
    # One 64-bit Philox word per index, in four-word counter blocks per replicate.
    return {"words": k * 4 * ((call["n"] + 3) // 4), "bytes": int(result.nbytes)}


def _scores_counts(call: dict, result) -> dict:
    idx = call["idx"]
    return {"indices": int(idx.size) if isinstance(idx, np.ndarray) else 0}


def _write_counts(call: dict, result) -> dict:
    return {"bytes": os.path.getsize(call["path"])}


# (span name, module, attribute path, counts from (bound arguments, result))
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("rng.index_block", "boardstats.rng", "index_block", _index_block_counts),
    ("metrics.scorer_init", "boardstats.metrics", "ResampleScorer.__init__", None),
    ("metrics.scores", "boardstats.metrics", "ResampleScorer.scores", _scores_counts),
    ("bootstrap.distributions", "boardstats.bootstrap", "distributions", None),
    ("bootstrap.percentile_ci", "boardstats.bootstrap", "percentile_ci", None),
    ("inference.matrix_from_distributions", "boardstats.inference", "matrix_from_distributions", None),
    ("inference.delta_from_distributions", "boardstats.inference", "delta_from_distributions", None),
    ("inference.difference_ci", "boardstats.inference", "difference_ci", None),
    ("report.build_report", "boardstats.report", "build_report", None),
    ("corrections.adjust_all", "boardstats.corrections", "adjust_all", None),
    ("corrections.adjust", "boardstats.corrections", "adjust", None),
    ("plots.render_forest_plot", "boardstats.plots", "render_forest_plot", None),
    ("plots.render_difference_plot", "boardstats.plots", "render_difference_plot", None),
    ("plots.render_delta_histogram", "boardstats.plots", "render_delta_histogram", None),
    ("dataio.load_table", "boardstats.dataio", "load_table", None),
    ("table.build", "boardstats.table", "PredictionTable.build", None),
    ("dataio.write_json", "boardstats.dataio", "write_json", _write_counts),
    ("dataio.write_csv", "boardstats.dataio", "write_csv", _write_counts),
    ("dataio.write_md", "boardstats.dataio", "write_md", _write_counts),
)

PACKAGE = "boardstats"


class Tracer:
    """Records spans for calls into boardstats; single-threaded runs only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # targets absent from the package
        self.uncounted: set[str] = set()  # targets whose counts could not be taken
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    try:
                        call = signature.bind(*args, **kwargs).arguments
                        self.spans[sid].counts = counts(call, result)
                    except (TypeError, KeyError, AttributeError, OSError):
                        self.uncounted.add(name)
                return result
            finally:
                self._close(sid)

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target wherever boardstats holds a reference to it."""
        for name, module_name, path, counts in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, counts)))
                continue
            wrapper = self._wrap(name, raw, counts)
            if owner is not module:  # method: the class is shared by every caller
                self._set(owner, attr, wrapper)
                continue
            for mod in _package_modules():
                if mod.__dict__.get(attr) is raw:
                    self._set(mod, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _package_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


# -- reduction to per-layer metrics --------------------------------------

def _has_ancestor(spans: list[Span], span: Span, names: set) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def _total(spans: list[Span], *names: str) -> float:
    """Wall time in spans named ``names``, counting nested ones once."""
    group = set(names)
    return sum(
        s.duration for s in spans
        if s.name in group and not _has_ancestor(spans, s, group)
    )


def _self_time(spans: list[Span], names: set) -> float:
    """Duration of the named spans minus the time of their direct children."""
    ids = {i for i, s in enumerate(spans) if s.name in names}
    child = sum(s.duration for s in spans if s.parent in ids)
    return sum(spans[i].duration for i in ids) - child


def _calls(spans: list[Span], *names: str) -> int:
    return sum(1 for s in spans if s.name in names)


def _count(spans: list[Span], name: str, key: str) -> list[int]:
    return [s.counts.get(key, 0) for s in spans if s.name == name]


ROOT = "pipeline"

PLOTS = ("plots.render_forest_plot", "plots.render_difference_plot", "plots.render_delta_histogram")
WRITES = ("dataio.write_json", "dataio.write_csv", "dataio.write_md")
INFERENCE = (
    "inference.matrix_from_distributions",
    "inference.delta_from_distributions",
    "inference.difference_ci",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced run rooted at ``ROOT``."""
    indices = sum(_count(spans, "metrics.scores", "indices"))
    scores_s = _total(spans, "metrics.scores")
    return {
        "rng.index_block.s": _total(spans, "rng.index_block"),
        "rng.index_block.calls": _calls(spans, "rng.index_block"),
        "rng.words": sum(_count(spans, "rng.index_block", "words")),
        "rng.block_bytes_max": max(_count(spans, "rng.index_block", "bytes"), default=0),
        "metrics.scores.s": scores_s,
        "metrics.scores.calls": _calls(spans, "metrics.scores"),
        "metrics.indices": indices,
        "metrics.ns_per_index": 1e9 * scores_s / indices if indices else 0.0,
        "metrics.scorer_init.s": _total(spans, "metrics.scorer_init"),
        "bootstrap.distributions.s": _total(spans, "bootstrap.distributions"),
        "bootstrap.self_s": _self_time(spans, {"bootstrap.distributions"}),
        "bootstrap.percentile_ci.s": _total(spans, "bootstrap.percentile_ci"),
        "bootstrap.blocks": sum(
            1 for s in spans
            if s.name == "rng.index_block"
            and _has_ancestor(spans, s, {"bootstrap.distributions"})
        ),
        "inference.s": _total(spans, *INFERENCE),
        "inference.pairs": _calls(spans, "inference.delta_from_distributions"),
        "report.build_report.s": _total(spans, "report.build_report"),
        "corrections.adjust_all.s": _total(spans, "corrections.adjust_all"),
        "corrections.calls": _calls(spans, "corrections.adjust"),
        "plots.render.s": _total(spans, *PLOTS),
        "dataio.load_table.s": _total(spans, "dataio.load_table"),
        "table.build.s": _total(spans, "table.build"),
        "dataio.write.s": _total(spans, *WRITES),
        "dataio.write.calls": _calls(spans, *WRITES),
        "dataio.bytes_written": sum(sum(_count(spans, w, "bytes")) for w in WRITES),
        "pipeline.self_s": _self_time(spans, {ROOT}),
    }
