"""End-to-end analysis: CSV in, tables, plots and manifest out.

One bootstrap pass feeds every artifact: the per-system performance table,
the differences-from-the-best table, the pairwise significance matrix, the
p-value/correction table, the competition summary panel and the SVG figures
with their JSON sidecars.  A manifest records every knob that influenced the
numbers, so the manifest plus the input file determine every output byte;
nothing volatile (timestamps, machine state, worker count) is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import __version__
# benchmarks/tests checks that the span tracer wraps ``pipeline.distributions``
from .bootstrap import distributions, percentile_ci  # noqa: F401
from .dataio import RunConfig, fmt_float, load_table, parse_metric, write_csv, write_json, write_md
from .inference import delta_from_distributions
from .plots import render_delta_histogram, render_difference_plot, render_forest_plot
from .report import CompetitionReport, build_report

@dataclass(frozen=True)
class PipelineResult:
    out_dir: Path
    artifacts: tuple[str, ...]
    report: CompetitionReport


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute the full analysis described by ``config``."""
    spec = parse_metric(config.metric)
    table = load_table(config.input, gold_col=config.gold_col, task=config.task)
    rep = build_report(
        table, spec, config.plan, family_policy=config.family, gold_alias=config.gold_alias
    )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_listed_artifacts(out)
    artifacts = _write_artifacts(out, config, spec, table, rep)
    return PipelineResult(out_dir=out, artifacts=tuple(artifacts), report=rep)


def _remove_listed_artifacts(out: Path) -> None:
    """Delete the files that a previous run's manifest lists as artifacts,
    so the directory holds exactly what the new manifest lists plus files
    no run wrote.  A missing or unreadable manifest deletes nothing, and a
    listed name that is not a bare file name is left alone."""
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    if not isinstance(listed, list):
        return
    for name in listed:
        if isinstance(name, str) and name == Path(name).name and (out / name).is_file():
            (out / name).unlink()


def _pair(e) -> dict:
    """One ranked pair as the difference matrix and the p-value table list it."""
    return {"reference": e.reference, "competitor": e.competitor, "delta": e.delta,
            "p_value": e.p, "stars": e.stars}


def _write_artifacts(out, config, spec, table, rep):
    artifacts = []
    formats = set(config.formats)
    methods = tuple(m for m in config.corrections if m != "none")
    ranked = rep.ranking
    matrix = rep.matrix
    dists = rep.distributions
    summaries = {name: percentile_ci(dists[name], rep.plan.confidence) for name in ranked}

    def emit(stem, payload, header, rows, title):
        if "json" in formats:
            write_json(out / f"{stem}.json", payload)
            artifacts.append(f"{stem}.json")
        if "csv" in formats:
            write_csv(out / f"{stem}.csv", header, rows)
            artifacts.append(f"{stem}.csv")
        if "md" in formats:
            write_md(out / f"{stem}.md", title, header, rows)
            artifacts.append(f"{stem}.md")

    def emit_records(stem, payload, key, records, columns, title):
        """A table whose JSON entries are ``records`` and whose CSV/MD rows
        format the record values named by ``columns`` (JSON key, header,
        formatter); record keys without a column are JSON only."""
        rows = [[fmt(r[k]) for k, _, fmt in columns] for r in records]
        emit(stem, {**payload, key: records}, [h for _, h, _ in columns], rows, title)

    # table cells at 4 places; matrix and p-value deltas and panel statistics at 3
    cell4, cell3 = partial(fmt_float, places=4), partial(fmt_float, places=3)
    ci_columns = [(k, k, cell4) for k in ("lci", "mean", "uci")]
    emit_records(
        "performance",
        {"metric": rep.metric},
        "systems",
        [
            {"system": s, "observed": dists[s].observed, **summaries[s]._asdict()}
            for s in ranked
        ],
        [("system", "system", str), ("observed", "observed", cell4), *ci_columns],
        "Bootstrap confidence intervals",
    )

    # differences from the best: column 0 of the matrix
    best = [matrix.entry(i, 0) for i in range(1, len(ranked))]
    emit_records(
        "differences",
        {"reference": ranked[0]},
        "comparisons",
        [
            {"competitor": e.competitor, "observed_delta": e.delta, **e.ci._asdict(),
             "contains_zero": e.ci.contains_zero}
            for e in best
        ],
        [("competitor", "competitor", str), ("observed_delta", "delta", cell4),
         *ci_columns, ("contains_zero", "contains_zero", lambda b: str(b).lower())],
        f"Differences from the best ({ranked[0]})",
    )

    # lower-triangular difference matrix with stars
    header = ["system"] + list(matrix.systems[:-1])
    matrix_rows = []
    for i in range(1, len(matrix.systems)):
        row = [matrix.systems[i]]
        for j in range(len(matrix.systems) - 1):
            if j < i:
                e = matrix.entry(i, j)
                row.append(f"{cell3(e.delta)} {e.stars}".rstrip())
            else:
                row.append("")
        matrix_rows.append(row)
    emit(
        "difference_matrix",
        {
            "systems": list(matrix.systems),
            "entries": [_pair(e) for _, e in sorted(matrix.entries.items())],
        },
        header,
        matrix_rows,
        "Score differences (column - row) with significance",
    )

    # p-values of the family's pairs, in the families' order; FDR mirrors BH
    columns = [
        m for m in ("bonferroni", "fdr", "holm", "bh")
        if m in methods or (m == "fdr" and "bh" in methods)
    ]
    by_pair = {(e.reference, e.competitor): e for e in matrix.entries.values()}
    emit_records(
        "pvalues",
        {"family_policy": rep.family_policy},
        "comparisons",
        [
            {**_pair(by_pair[pair]), **{m: adj["bh" if m == "fdr" else m] for m in columns}}
            for pair, adj in rep.adjusted.items()
        ],
        [("reference", "reference", str), ("competitor", "competitor", str),
         ("delta", "delta", cell3), ("p_value", "p-value", cell4)]
        + [(m, m, cell4) for m in columns],
        "Estimated p-values with multiple-comparison adjustments",
    )

    # competition summary panel
    tie_w = "/".join(str(rep.ties_with_winner[k]) for k in ("none",) + methods)
    tie_a = (
        "/".join(str(rep.ties_all_pairs[k]) for k in ("none",) + methods)
        if rep.ties_all_pairs is not None
        else "-"
    )
    rep_rows = [
        ["n", rep.n],
        ["m", rep.m],
        ["ties with winner (" + "/".join(("none",) + methods) + ")", tie_w],
        ["possible comparisons", rep.possible_comparisons],
        ["ties all pairs (" + "/".join(("none",) + methods) + ")", tie_a],
        ["|win - med|", cell3(rep.win_med_gap)],
        ["cv", "-" if rep.cv is None
         else cell3(rep.cv) + ("" if rep.cv_comparable else " (not comparable)")],
        ["ppi", cell3(rep.ppi) if rep.ppi is not None else "-"],
    ]
    emit("report", rep.panel(), ["statistic", "value"], rep_rows, "Competition summary")

    # figures
    if "svg" in formats:
        runner_up = ranked[1]
        figures = {
            "plot_forest": render_forest_plot(
                [(s, dists[s].observed, summaries[s]) for s in ranked]
            ),
            "plot_differences": render_difference_plot(
                [(e.competitor, e.ci) for e in best], reference=ranked[0]
            ),
            "plot_delta_hist": render_delta_histogram(
                *delta_from_distributions(
                    ranked[0], runner_up, dists[ranked[0]], dists[runner_up], spec,
                    rep.plan.confidence,
                )
            ),
        }
        for stem, figure in figures.items():
            (out / f"{stem}.svg").write_text(figure.svg, encoding="utf-8")
            write_json(out / f"{stem}.json", figure.data)
            artifacts.extend([f"{stem}.svg", f"{stem}.json"])

    manifest = {
        "package": "boardstats",
        "version": __version__,
        "input": config.input,
        "gold_col": config.gold_col,
        "task": table.task_kind.value,
        **rep.run_record(),
        "corrections": list(methods),
        "gold_alias": config.gold_alias,
        "systems": list(table.names),
        "formats": sorted(formats),
        "artifacts": sorted(artifacts + ["manifest.json"]),
    }
    write_json(out / "manifest.json", manifest)
    artifacts.append("manifest.json")
    return sorted(artifacts)
