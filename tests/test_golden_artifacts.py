"""Byte-level guard on the full artifact set.

Runs the CLI over a small fixed competition for every metric family, every
hypothesis-family policy and both the default and the empty correction set,
and compares the sha256 of each artifact against committed digests.  Any
change to an output byte fails here; a deliberate change regenerates the
digests with ``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from boardstats.cli import main

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"

N = 300
SAMPLES = "200"
METRICS = {"accuracy": "labels.csv", "f1:a": "labels.csv", "macro-f1:a,b": "labels.csv",
           "mae": "values.csv", "custom:agree.py": "labels.csv"}
FAMILIES = ("per-reference", "vs-winner", "global")
CORRECTIONS = {"default": None, "none": "none"}
# the first 2 and 3 systems of each fixture, under the metrics of one or two
# tally columns per system: the fewest systems a competition holds
FEW_SYSTEMS = (2, 3)
FEW_METRICS = ("accuracy", "f1:a", "mae")
CASES = [
    "/".join(case) for case in itertools.product(METRICS, FAMILIES, CORRECTIONS)
] + [
    f"{metric}/per-reference/default/{m}" for metric in FEW_METRICS for m in FEW_SYSTEMS
]


def write_inputs(directory: Path) -> None:
    """Two fixed CSVs, five systems each, and a custom accuracy metric; the
    fourth system copies the third so ranking ties and identical-prediction
    comparisons are covered.  Each CSV also comes cut to its first 2 and 3
    systems, as ``labels-2.csv`` and so on."""
    (directory / "agree.py").write_text(
        "def score(gold, pred):\n    return float((gold == pred).mean())\n", encoding="utf-8"
    )
    g = np.random.default_rng(20240307)
    labels = np.array(["a", "b", "c"])
    gold = g.choice(labels, size=N, p=[0.45, 0.35, 0.2])
    cols = {"y": gold}
    for k, noise in enumerate((0.3, 0.33, 0.36, None, 0.45)):
        if noise is None:
            cols[f"s{k}"] = cols[f"s{k - 1}"].copy()
            continue
        pred = gold.copy()
        flips = g.random(N) < noise
        pred[flips] = g.choice(labels, size=int(flips.sum()))
        cols[f"s{k}"] = pred
    _write_csv(directory / "labels.csv", cols, str)

    gold = g.normal(3.0, 1.0, size=N)
    cols = {"y": gold}
    for k, scale in enumerate((0.8, 0.85, 0.9, None, 1.1)):
        cols[f"s{k}"] = (
            cols[f"s{k - 1}"].copy() if scale is None else gold + g.normal(0, scale, N)
        )
    _write_csv(directory / "values.csv", cols, lambda v: f"{v:.6f}")


def _write_csv(path: Path, cols: dict, fmt) -> None:
    for m in (None, *FEW_SYSTEMS):
        kept = list(cols)[:None if m is None else m + 1]
        lines = [",".join(kept)]
        lines += [",".join(fmt(cols[c][i]) for c in kept) for i in range(N)]
        out = path if m is None else path.with_name(f"{path.stem}-{m}{path.suffix}")
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_case(case: str, directory: Path) -> dict[str, str]:
    """Artifact name -> sha256 for one case, run with ``directory`` as cwd so
    the input path recorded in the manifest is the same on every machine."""
    metric, family, corrections, *systems = case.split("/")
    out = Path(case.replace(":", "_").replace(",", "_").replace("/", "-"))
    source = Path(METRICS[metric])
    if systems:
        source = source.with_name(f"{source.stem}-{systems[0]}{source.suffix}")
    argv = [
        "--input", str(source), "--metric", metric, "--family", family,
        "--samples", SAMPLES, "--seed", "5", "--out-dir", str(out),
    ]
    if CORRECTIONS[corrections] is not None:
        argv += ["--corrections", CORRECTIONS[corrections]]
    assert main(argv) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((directory / out).iterdir())
    }


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_digests(case, golden_dir, monkeypatch):
    monkeypatch.chdir(golden_dir)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[case]
    assert run_case(case, golden_dir) == expected


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            write_inputs(Path(tmp))
            digests = {case: run_case(case, Path(tmp)) for case in CASES}
        finally:
            os.chdir(here)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests for {len(digests)} cases", file=sys.stderr)
