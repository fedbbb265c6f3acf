"""End-to-end analysis: CSV in, tables, plots and manifest out.

One bootstrap pass feeds every artifact: the per-system performance table,
the differences-from-the-best table, the pairwise significance matrix, the
p-value/correction table, the competition summary panel and the SVG figures
with their JSON sidecars.  A manifest records every knob that influenced the
numbers, so the manifest plus the input file determine every output byte;
nothing volatile (timestamps, machine state, worker count) is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import __version__, rng
from .bootstrap import QUANTILE_RULE, distributions, percentile_ci
from .dataio import RunConfig, fmt_float, load_table, parse_metric, write_csv, write_json, write_md
from .errors import ConfigError
from .inference import delta_from_distributions
from .plots import render_delta_histogram, render_difference_plot, render_forest_plot
from .report import build_report
from .table import BootstrapPlan, PredictionTable

@dataclass(frozen=True)
class PipelineResult:
    out_dir: Path
    artifacts: tuple[str, ...]
    report: object
    ranking: tuple[str, ...]


def run_pipeline(config: RunConfig, table: PredictionTable | None = None) -> PipelineResult:
    """Execute the full analysis described by ``config``.

    ``table`` bypasses CSV loading when the caller already has one in memory
    (the file at ``config.input`` is then never touched).
    """
    stage = "configuration"
    try:
        spec = parse_metric(config.metric, config.direction)
        plan = BootstrapPlan(
            replicates=config.samples,
            confidence=config.confidence,
            seed=config.seed,
            alpha=config.alpha,
            workers=config.workers,
        )

        stage = "input"
        if table is None:
            table = load_table(config.input, gold_col=config.gold_col, task=config.task)
        excluded = tuple(n for n in table.names if n == config.gold_alias)
        competitors = [n for n in table.names if n not in excluded]
        if len(competitors) < 2:
            raise ConfigError("need at least 2 competitors after gold-alias exclusion")
        if spec.metric in ("f1", "macro_f1"):
            missing = [c for c in spec.labels if c not in table.label_set]
            if missing:
                raise ConfigError(f"metric classes absent from the data: {missing}")

        stage = "bootstrap"
        dists = distributions(table, spec, plan, systems=competitors)

        stage = "inference"
        rep = build_report(
            table, spec, plan, family_policy=config.family,
            gold_alias=config.gold_alias, dists=dists,
        )
        summaries = {name: percentile_ci(dists[name], plan.confidence) for name in rep.ranking}

        stage = "output"
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        artifacts = _write_artifacts(out, config, spec, plan, table, rep, dists, summaries)
        return PipelineResult(
            out_dir=out, artifacts=tuple(artifacts), report=rep, ranking=rep.ranking
        )
    except Exception as exc:
        if not getattr(exc, "_stage", None):
            exc._stage = stage
        raise


def _write_artifacts(out, config, spec, plan, table, rep, dists, summaries):
    artifacts = []
    formats = set(config.formats)
    methods = tuple(m for m in config.corrections if m != "none")
    ranked = rep.ranking
    matrix = rep.matrix

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

    ci_columns = [(k, k, fmt_float) for k in ("lci", "mean", "uci")]
    emit_records(
        "performance",
        {"metric": spec.display_name},
        "systems",
        [
            {"system": s, "observed": dists[s].observed, **summaries[s]._asdict()}
            for s in ranked
        ],
        [("system", "system", str), ("observed", "observed", fmt_float), *ci_columns],
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
        [("competitor", "competitor", str), ("observed_delta", "delta", fmt_float),
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
                row.append(f"{e.delta:.3f} {e.stars}".rstrip())
            else:
                row.append("")
        matrix_rows.append(row)
    emit(
        "difference_matrix",
        {
            "systems": list(matrix.systems),
            "entries": [
                {
                    "reference": e.reference,
                    "competitor": e.competitor,
                    "delta": e.delta,
                    "p_value": e.p,
                    "stars": e.stars,
                }
                for (_, _), e in sorted(matrix.entries.items())
            ],
        },
        header,
        matrix_rows,
        "Score differences (column - row) with significance",
    )

    # p-values of the family's pairs, by reference rank; FDR mirrors BH
    columns = [
        m for m in ("bonferroni", "fdr", "holm", "bh")
        if m in methods or (m == "fdr" and "bh" in methods)
    ]
    family = [
        matrix.entry(i, j)
        for j in range(len(ranked) - 1)
        for i in range(j + 1, len(ranked))
        if (ranked[j], ranked[i]) in rep.adjusted
    ]
    emit_records(
        "pvalues",
        {"family_policy": config.family},
        "comparisons",
        [
            {
                "reference": e.reference, "competitor": e.competitor, "delta": e.delta,
                "p_value": e.p, "stars": e.stars,
                **{
                    m: rep.adjusted[(e.reference, e.competitor)]["bh" if m == "fdr" else m]
                    for m in columns
                },
            }
            for e in family
        ],
        [("reference", "reference", str), ("competitor", "competitor", str),
         ("delta", "delta", "{:.3f}".format), ("p_value", "p-value", fmt_float)]
        + [(m, m, fmt_float) for m in columns],
        "Estimated p-values with multiple-comparison adjustments",
    )

    # competition summary panel
    rep_payload = {
        "n": rep.n,
        "m": rep.m,
        "possible_comparisons": rep.possible_comparisons,
        "ties_with_winner": rep.ties_with_winner,
        "ties_all_pairs": rep.ties_all_pairs,
        "win_med_gap": rep.win_med_gap,
        "cv": rep.cv,
        "cv_comparable": rep.cv_comparable,
        "ppi": rep.ppi,
        "alpha": rep.alpha,
        "metric": rep.metric,
        "direction": rep.direction,
        "family_policy": rep.family_policy,
        "ranking": list(rep.ranking),
        "ranking_ties": list(rep.ranking_ties),
        "excluded_systems": list(rep.excluded_systems),
        "observed_scores": rep.observed_scores,
    }
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
        ["|win - med|", f"{rep.win_med_gap:.3f}"],
        ["cv", "-" if rep.cv is None
         else f"{rep.cv:.3f}" + ("" if rep.cv_comparable else " (not comparable)")],
        ["ppi", f"{rep.ppi:.3f}" if rep.ppi is not None else "-"],
    ]
    emit("report", rep_payload, ["statistic", "value"], rep_rows, "Competition summary")

    # figures
    if "svg" in formats:
        runner_up = ranked[1]
        figures = {
            "plot_forest": render_forest_plot(
                [(s, dists[s].observed, summaries[s]) for s in ranked],
                higher_better=spec.higher_is_better,
            ),
            "plot_differences": render_difference_plot(
                [(e.competitor, e.ci) for e in best], reference=ranked[0]
            ),
            "plot_delta_hist": render_delta_histogram(
                delta_from_distributions(
                    ranked[0], runner_up, dists[ranked[0]], dists[runner_up], spec,
                    reorient=False,
                ),
                bins=config.bins,
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
        "metric": spec.display_name,
        "direction": spec.direction,
        "replicates": plan.replicates,
        "seed": plan.seed,
        "alpha": plan.alpha,
        "confidence": plan.confidence,
        "corrections": list(methods),
        "family_policy": config.family,
        "gold_alias": config.gold_alias,
        "excluded_systems": list(rep.excluded_systems),
        "quantile_rule": QUANTILE_RULE,
        "rng_family": rng.RNG_FAMILY,
        "n": table.n,
        "systems": list(table.names),
        "formats": sorted(formats),
        "artifacts": sorted(artifacts + ["manifest.json"]),
    }
    write_json(out / "manifest.json", manifest)
    artifacts.append("manifest.json")
    return sorted(artifacts)
