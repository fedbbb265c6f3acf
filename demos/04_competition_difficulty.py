"""
How competitive was the competition?
====================================

The summary panel condenses a whole competition into a handful of numbers:
statistical tie counts (with and without corrections), the coefficient of
variation of competitor scores, the winner-to-median gap, and the headroom
left below the metric's ceiling.  Here we compare a tight race against a
spread-out one.
"""

from boardstats import (
    BootstrapPlan,
    LabelNoise,
    ScoreSpec,
    SynthConfig,
    build_report,
    generate,
)


def summarize(title, rates, seed):
    config = SynthConfig(
        n=600,
        seed=seed,
        labels=("a", "b", "c"),
        label_probs=(0.4, 0.35, 0.25),
        systems={f"run{k}": LabelNoise(rate=r) for k, r in enumerate(rates)},
    )
    table = generate(config)
    report = build_report(table, ScoreSpec(metric="accuracy"), BootstrapPlan(replicates=5000, seed=1))
    print(f"--- {title}")
    print(f"n={report.n}  m={report.m}  possible comparisons={report.possible_comparisons}")
    ties_w = "/".join(str(report.ties_with_winner[k]) for k in ("none", "bonferroni", "holm", "bh"))
    ties_a = "/".join(str(report.ties_all_pairs[k]) for k in ("none", "bonferroni", "holm", "bh"))
    print(f"ties with winner (none/bonf/holm/bh): {ties_w}")
    print(f"ties, all pairs  (none/bonf/holm/bh): {ties_a}")
    print(f"CV = {report.cv:.2f}%   |win-med| = {report.win_med_gap:.3f}   PPI = {report.ppi:.2f}%")
    print()


# A tight race: every system within a point of the winner.
# Expect many statistical ties, a small CV and a small winner-median gap.
summarize("tight race", rates=(0.200, 0.205, 0.210, 0.215, 0.220), seed=5)

# A spread-out field: the winner is far ahead and the tail is weak.
# Expect few ties, a large CV and a large gap, with plenty of headroom.
summarize("spread-out field", rates=(0.15, 0.30, 0.42, 0.55, 0.65), seed=6)
