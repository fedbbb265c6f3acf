"""
CSV in, full report out
=======================

The pipeline turns a prediction CSV (gold column plus one column per
system) into the complete artifact set: performance table, differences
from the best, significance matrix, corrected p-values, the competition
summary, three SVG figures with JSON sidecars, and a manifest that pins
every knob so the run can be reproduced byte for byte.

The same run from a shell:

    boardstats --input predictions.csv --metric macro-f1:favor,against \
        --samples 10000 --seed 7 --out-dir analysis
"""

import csv
from pathlib import Path

from boardstats import BootstrapPlan, LabelNoise, RunConfig, SynthConfig, generate, run_pipeline

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# Fabricate a competition and write it in the expected CSV layout:
# column "y" is the ground truth, every other column is a system.
config = SynthConfig(
    n=500,
    seed=42,
    labels=("favor", "none", "against"),
    label_probs=(0.3, 0.4, 0.3),
    systems={
        "team_a.run1": LabelNoise(rate=0.25),
        "team_a.run2": LabelNoise(rate=0.27),
        "team_b.run1": LabelNoise(rate=0.38),
        "baseline": LabelNoise(rate=0.55),
    },
)
table = generate(config)
csv_path = OUT / "predictions.csv"
with csv_path.open("w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["y", *table.names])
    for i in range(table.n):
        writer.writerow([table.gold[i], *(table.systems[s][i] for s in table.names)])
print(f"wrote {csv_path}")

result = run_pipeline(
    RunConfig(
        input=str(csv_path),
        metric="macro-f1:favor,against",
        plan=BootstrapPlan(replicates=10_000, seed=7),
        out_dir=str(OUT / "analysis"),
    )
)
print(f"ranking: {' > '.join(result.report.ranking)}")
print(f"{len(result.artifacts)} artifacts in {result.out_dir}:")
for name in result.artifacts:
    print(f"  {name}")
