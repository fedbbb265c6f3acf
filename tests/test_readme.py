"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    g = np.random.default_rng(5)
    labels = np.array(["favor", "against", "none"])
    gold = g.choice(labels, size=80)
    cols = {"y": gold}
    for name, noise in (("winner_system", 0.2), ("runner_up", 0.35), ("baseline", 0.6)):
        pred = gold.copy()
        flips = g.random(len(gold)) < noise
        pred[flips] = g.choice(labels, size=int(flips.sum()))
        cols[name] = pred
    rows = [",".join(cols)] + [",".join(row) for row in zip(*cols.values())]
    (tmp_path / "predictions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_code(), str(README), "exec"), {})

    lines = capsys.readouterr().out.splitlines()
    for name in ("winner_system", "runner_up", "baseline"):
        assert any(line.startswith(f"{name}: ") and "95% CI (" in line for line in lines)
    assert len(lines) == 5
