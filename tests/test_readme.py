"""The README's library quick start runs as written, bootstraps once, and
every module name the README cites exists."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import numpy as np

import boardstats
from boardstats import bootstrap

README = Path(__file__).resolve().parent.parent / "README.md"

# `report.json`, `dataio.py` and the like name files, not attributes
FILE_SUFFIXES = {"csv", "json", "md", "py", "svg", "yml"}


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

    evaluate, calls = bootstrap._evaluate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(bootstrap, "_evaluate", counted)
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_code(), str(README), "exec"), {})

    lines = capsys.readouterr().out.splitlines()
    for name in ("winner_system", "runner_up", "baseline"):
        assert any(line.startswith(f"{name}: ") and "95% CI (" in line for line in lines)
    assert len(lines) == 5
    assert len(calls) == 1


def cited_names(text: str) -> set[str]:
    """Every `module.name` (or `boardstats.module...`) cited in backticks,
    where module is one of the package's modules."""
    modules = {info.name for info in pkgutil.iter_modules(boardstats.__path__)}
    cited = set()
    for dotted in re.findall(r"`(\w+(?:\.\w+)+)(?:\(\))?`", text):
        parts = dotted.split(".")
        if parts[0] == "boardstats" or (parts[0] in modules and parts[-1] not in FILE_SUFFIXES):
            cited.add(dotted)
    return cited


def resolves(dotted: str) -> bool:
    """Whether ``boardstats.<dotted>`` names a module or an attribute of one."""
    parts = dotted.split(".")
    if parts[0] != "boardstats":
        parts = ["boardstats", *parts]
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            reduce(getattr, parts[cut:], module)
        except AttributeError:
            return False
        return True
    return False


def test_readme_cites_only_names_that_exist():
    cited = cited_names(README.read_text(encoding="utf-8"))
    assert {"bootstrap.distributions", "boardstats.cli", "table.METRICS"} <= cited
    assert "report.json" not in cited
    assert [name for name in sorted(cited) if not resolves(name)] == []
