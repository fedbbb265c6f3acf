"""
Multiple-comparison corrections over a ranking
==============================================

With m systems there are m(m-1)/2 pairwise tests, and running them all at
alpha = 0.05 inflates the chance of a spurious "significant" difference.
This demo builds the per-reference hypothesis families (each system against
everything ranked below it), adjusts the raw p-values three ways, and shows
how the verdicts move.
"""

import numpy as np

from boardstats import (
    BootstrapPlan,
    LabelNoise,
    ScoreSpec,
    SynthConfig,
    adjust_all,
    build_families,
    build_report,
    generate,
)

config = SynthConfig(
    n=350,
    seed=99,
    labels=("pos", "neg"),
    label_probs=(0.55, 0.45),
    systems={
        f"run{k}": LabelNoise(rate=rate)
        for k, rate in enumerate((0.18, 0.20, 0.24, 0.33, 0.36))
    },
)
table = generate(config)
spec = ScoreSpec(metric="accuracy")
plan = BootstrapPlan(replicates=10_000, seed=13)

# The lower-triangular matrix carries every pairwise delta with its
# uncorrected significance marker.
matrix = build_report(table, spec, plan).matrix
print("ranking:", " > ".join(matrix.systems))
print("\npairwise deltas (column system minus row system):")
for i in range(1, len(matrix.systems)):
    cells = []
    for j in range(i):
        e = matrix.entry(i, j)
        cells.append(f"{e.delta:.3f}{e.stars or '':<3}")
    print(f"  {matrix.systems[i]:<6} " + "  ".join(cells))

# Group the raw p-values into per-reference families and adjust.
raw = {(e.reference, e.competitor): e.p for e in matrix.entries.values()}
families = build_families(list(matrix.systems), raw, "per_reference")
adjusted = adjust_all(families)

print(f"\n{'pair':<16} {'raw':>7} {'bonferroni':>11} {'holm':>7} {'bh':>7}")
for pair in sorted(raw, key=raw.get):
    a = adjusted[pair]
    print(
        f"{pair[0]+'/'+pair[1]:<16} {raw[pair]:>7.4f} "
        f"{a['bonferroni']:>11.4f} {a['holm']:>7.4f} {a['bh']:>7.4f}"
    )

alpha = 0.05
raw_sig = sum(1 for p in raw.values() if p < alpha)
for method in ("bonferroni", "holm", "bh"):
    kept = sum(1 for pair in raw if adjusted[pair][method] < alpha)
    print(f"significant at {alpha} after {method}: {kept} of {raw_sig} raw rejections")
