"""
Per-system bootstrap confidence intervals
=========================================

Build a small synthetic competition, score every system against the gold
standard, and turn the bootstrap sampling distributions into the ordered
interval table and its forest plot.
"""

from pathlib import Path

from boardstats import (
    BootstrapPlan,
    LabelNoise,
    ScoreSpec,
    SynthConfig,
    generate,
    render_forest_plot,
    summarize,
)
from boardstats.inference import rank_systems

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# Five systems of varying quality on a 3-class task with 400 test items.
# Each system corrupts the gold standard at its own rate, so we know in
# advance roughly how they should rank.
config = SynthConfig(
    n=400,
    seed=2024,
    labels=("favor", "none", "against"),
    label_probs=(0.3, 0.4, 0.3),
    systems={
        "team_a.run1": LabelNoise(rate=0.25),
        "team_a.run2": LabelNoise(rate=0.28),
        "team_b.run1": LabelNoise(rate=0.35),
        "team_c.run1": LabelNoise(rate=0.45),
        "baseline": LabelNoise(rate=0.60),
    },
)
table = generate(config)

# The competition metric: macro-F1 over the two stance classes only.
spec = ScoreSpec.macro_f1(["favor", "against"])

# 10,000 resamples, one shared index vector per replicate across systems.
plan = BootstrapPlan(replicates=10_000, seed=7)
summaries = summarize(table, spec, plan)

# rank_systems orders best first under the metric's direction, as the
# pipeline does; the table below and the forest plot both keep that order.
order = rank_systems({name: observed for name, (observed, _) in summaries.items()}, spec)
ranked = [(name, *summaries[name]) for name in order]

print(f"{'system':<14} {'observed':>9} {'lci':>8} {'mean':>8} {'uci':>8}")
for name, observed, ci in ranked:
    print(f"{name:<14} {observed:>9.4f} {ci.lci:>8.4f} {ci.mean:>8.4f} {ci.uci:>8.4f}")

# Overlapping intervals hint that two systems may be statistically tied;
# the paired analysis in demo 02 makes that precise.
figure = render_forest_plot(ranked)
(OUT / "confidence_intervals.svg").write_text(figure.svg)
print(f"\nwrote {OUT / 'confidence_intervals.svg'}")
