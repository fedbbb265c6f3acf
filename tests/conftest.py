"""Shared fixtures: synthetic competitions calibrated to known score 

The two stance-style fixtures reproduce a five-system, three-class
competition at two test sizes.  Per-system confusion matrices are fitted so
observed subset-F1 scores match the four-decimal targets exactly and the
bootstrap spread of each system and of key pairs matches the recorded
targets; predictions are laid out with a controlled dependence between each
system and the winner.
"""

import numpy as np
import pytest

from confusion_layouts import fit_confusion_matrix, fit_pair_coupling, table_from_confusions

STANCE_LABELS = ("favor", "none", "against")
STANCE_SUBSET = ("favor", "against")

SMALL_COUNTS = {"favor": 85, "none": 135, "against": 92}
SMALL_TARGETS = {
    # name: (observed subset-F1, per-system bootstrap sd)
    "alpha.01": (0.5734, 0.0350),
    "alpha.02": (0.5465, 0.0354),
    "bravo.01": (0.5024, 0.0367),
    "charlie.01": (0.4256, 0.0377),
    "bravo.02": (0.3428, 0.0376),
}
# bootstrap sd of the paired score difference against the winner
SMALL_PAIR_SD = {
    "alpha.02": 0.0327,
    "bravo.01": 0.0441,
    "charlie.01": 0.0481,
    "bravo.02": 0.0464,
}

LARGE_COUNTS = {"favor": 359, "none": 195, "against": 140}
LARGE_TARGETS = {
    "alpha.02": (0.8092, 0.0179),
    "alpha.01": (0.7906, 0.0185),
    "bravo.01": (0.7410, 0.0211),
    "charlie.01": (0.6738, 0.0214),
    "bravo.02": (0.6404, 0.0228),
}
LARGE_PAIR_SD = {
    "alpha.01": 0.0155,
    "bravo.01": 0.0239,
    "charlie.01": 0.0242,
    "bravo.02": 0.0267,
}


def build_stance_table(counts, targets, pair_sd, seed, gold_row=False):
    winner = next(iter(targets))
    mats = {
        name: fit_confusion_matrix(counts, STANCE_SUBSET, score, target_sd=sd)
        for name, (score, sd) in targets.items()
    }
    joints = {
        name: fit_pair_coupling(counts, mats[winner], mats[name], STANCE_SUBSET, sd)
        for name, sd in pair_sd.items()
    }
    if gold_row:
        diag = np.diag([counts[c] for c in counts]).astype(int)
        mats = {"Gold_Standard": diag, **mats}
    return table_from_confusions(
        counts, mats, seed=seed, reference=winner, couplings=joints
    )


@pytest.fixture(scope="session")
def stance_small():
    return build_stance_table(SMALL_COUNTS, SMALL_TARGETS, SMALL_PAIR_SD, seed=7)


@pytest.fixture(scope="session")
def stance_small_with_gold():
    return build_stance_table(
        SMALL_COUNTS, SMALL_TARGETS, SMALL_PAIR_SD, seed=7, gold_row=True
    )


@pytest.fixture(scope="session")
def stance_large():
    return build_stance_table(LARGE_COUNTS, LARGE_TARGETS, LARGE_PAIR_SD, seed=11)
