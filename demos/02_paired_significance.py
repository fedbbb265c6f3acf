"""
Paired differences and the doubled-delta p-value
================================================

Compare every system against the observed winner using paired resamples:
the same bootstrap indices evaluate both systems, so per-replicate score
differences are meaningful.  A difference is significant when the fraction
of replicates exceeding twice the observed delta is small.
"""

from pathlib import Path

from boardstats import (
    BootstrapPlan,
    LabelNoise,
    ScoreSpec,
    SynthConfig,
    build_report,
    generate,
    render_delta_histogram,
    render_difference_plot,
)
from boardstats.inference import delta_from_distributions

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

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
    },
)
table = generate(config)
spec = ScoreSpec.macro_f1(["favor", "against"])
plan = BootstrapPlan(replicates=10_000, seed=7)

# One bootstrap of every system; the report's difference matrix holds each
# ranked pair, the winner (rank 0) against rank i at entry (i, 0).
report = build_report(table, spec, plan)
winner = report.ranking[0]
rows = []
for i, competitor in enumerate(report.ranking[1:], start=1):
    e = report.matrix.entry(i, 0)
    rows.append((competitor, e.ci))
    zero = "contains 0" if e.ci.contains_zero else "excludes 0"
    print(
        f"{winner} vs {competitor}: delta={e.delta:+.4f} "
        f"CI=({e.ci.lci:+.4f}, {e.ci.uci:+.4f}) [{zero}]  "
        f"p={e.p:.4f} {e.stars}"
    )

# An interval that straddles zero (drawn red) means the winner cannot be
# distinguished from that competitor on this test set.
fig = render_difference_plot(rows, reference=winner)
(OUT / "differences.svg").write_text(fig.svg)

# The histogram shows the whole bootstrap difference distribution for the
# closest race, with reference lines at 0, delta and 2*delta: the p-value
# is the mass strictly right of the 2*delta line.
runner_up = report.ranking[1]
dists = report.distributions
entry, deltas = delta_from_distributions(
    winner, runner_up, dists[winner], dists[runner_up], spec, plan.confidence
)
fig = render_delta_histogram(entry, deltas)
(OUT / "delta_histogram.svg").write_text(fig.svg)
print(f"\nwrote {OUT / 'differences.svg'} and {OUT / 'delta_histogram.svg'}")
