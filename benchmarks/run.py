"""Benchmark of boardstats: prediction CSV on disk -> full artifact set on disk.

Run from the repository root:

    python3 benchmarks/run.py --workload shared-task --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py          # every workload, untraced then traced

Each measured run is ``boardstats.cli.main`` in a fresh interpreter (see
``child.py``) on a CSV generated from ``--seed``.  Every run's outputs are
checked: observed scores against the reference scorers in ``inputs.py``,
the manifest against the files written, and the artifact digest against the
first run's.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced runs alternate and the per-layer metrics
of the traced runs are reported.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  The exit code is 0 when
every run passed its checks, 1 when one did not, 2 on a usage error or when
the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import ANALYSIS_SEED, WORKERS, WORKLOADS, Workload, generate, reference_scores

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SECONDS = 40
SETUP_PROBES = 3  # plus the import of every measured run, spread over the run
MIN_UNTRACED_RUNS = 3
CHILD_TIMEOUT_S = 150
TOLERANCE = 1e-12
FORMAT_SUFFIXES = {".json", ".csv", ".md", ".svg"}

# name -> unit; the order is the order of the printout.
END_TO_END = {
    "e2e_s": "s",
    "cpu_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "rng.index_block.s": "s",
    "rng.index_block.calls": "count",
    "rng.words": "count",
    "rng.block_bytes_max": "bytes",
    "metrics.scores.s": "s",
    "metrics.scores.calls": "count",
    "metrics.indices": "count",
    "metrics.ns_per_index": "ns",
    "metrics.scorer_init.s": "s",
    "bootstrap.distributions.s": "s",
    "bootstrap.self_s": "s",
    "bootstrap.percentile_ci.s": "s",
    "bootstrap.blocks": "count",
    "inference.s": "s",
    "inference.pairs": "count",
    "report.build_report.s": "s",
    "corrections.adjust_all.s": "s",
    "corrections.calls": "count",
    "plots.render.s": "s",
    "dataio.load_table.s": "s",
    "table.build.s": "s",
    "dataio.write.s": "s",
    "dataio.write.calls": "count",
    "dataio.bytes_written": "bytes",
    "pipeline.self_s": "s",
    "trace_overhead_s": "s",
}


class RunFailed(Exception):
    """A measured run exited non-zero or failed an output check."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    digest: str = ""
    provenance: dict = field(default_factory=dict)


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RunFailed(f"child printed no result: {proc.stdout[-2000:]!r}") from exc


def artifact_digest(out: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_artifacts(out: Path, expected: dict[str, float]) -> None:
    """Raise RunFailed unless the artifact set is complete and scores match."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        perf = json.loads((out / "performance.json").read_text(encoding="utf-8"))
        observed = {row["system"]: row["observed"] for row in perf["systems"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise RunFailed(f"unreadable artifacts: {exc!r}") from exc
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    if manifest.get("artifacts") != written:
        raise RunFailed("manifest artifact list differs from the files written")
    missing = FORMAT_SUFFIXES - {Path(name).suffix for name in written}
    if missing:
        raise RunFailed(f"no artifact of kind {sorted(missing)}")
    if set(observed) != set(expected):
        raise RunFailed(f"systems {sorted(observed)} != {sorted(expected)}")
    for name, value in expected.items():
        if not abs(observed[name] - value) <= TOLERANCE:
            raise RunFailed(f"{name}: observed {observed[name]!r}, reference {value!r}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    inputs = generate(workload, seed)
    csv_path = work / "input.csv"
    inputs.write(csv_path)
    expected = reference_scores(workload, inputs)

    outcome = Outcome()
    _child(["import", str(SRC)])  # warm-up: compiles bytecode, fills the file cache
    outcome.setup = [_child(["import", str(SRC)])["import_s"] for _ in range(SETUP_PROBES)]

    modes = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_UNTRACED_RUNS
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            out = work / f"out{outcome.attempted}"
            outcome.attempted += 1
            request = {
                "src": str(SRC),
                "argv": workload.argv(csv_path.relative_to(ROOT).as_posix(), out.relative_to(ROOT).as_posix()),
                "trace": traced,
            }
            try:
                record = _child(["run", json.dumps(request)])
                if record["rc"] != 0:
                    raise RunFailed(f"boardstats exited {record['rc']}")
                check_artifacts(out, expected)
                digest = artifact_digest(out)
                if outcome.digest and digest != outcome.digest:
                    raise RunFailed("artifact digest differs from the first run's")
                outcome.digest = outcome.digest or digest
                if record["missing_targets"]:
                    print(f"not traced or not counted: {record['missing_targets']}", file=sys.stderr)
                (outcome.traced if traced else outcome.untraced).append(record)
                outcome.setup.append(record["import_s"])
            except (RunFailed, subprocess.TimeoutExpired) as exc:
                outcome.failed += 1
                print(f"run {outcome.attempted} failed: {exc}", file=sys.stderr)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    outcome.provenance = provenance(workload, seed, inputs.digest, outcome.digest)
    return outcome


def _median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(workload: Workload, outcome: Outcome) -> dict[str, float]:
    runs = outcome.untraced
    e2e = _median(runs, "e2e_s")
    return {
        "e2e_s": e2e,
        "cpu_s": _median(runs, "cpu_s"),
        "cells_per_s": workload.cells / e2e,
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
        "setup_s": statistics.median(outcome.setup),
    }


def per_layer(outcome: Outcome) -> dict[str, float]:
    layers = [r["layers"] for r in outcome.traced]
    metrics = {key: statistics.median(l[key] for l in layers) for key in layers[0]}
    metrics["trace_overhead_s"] = _median(outcome.traced, "e2e_s") - _median(outcome.untraced, "e2e_s")
    return metrics


def provenance(workload: Workload, seed: int, input_digest: str, artifact_digest: str) -> dict:
    """What two sets of runs must share to be comparable."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload.name,
        "workload_seed": seed,
        "analysis_seed": ANALYSIS_SEED,
        "workers": WORKERS,
        "input_sha256": input_digest,
        "artifact_sha256": artifact_digest,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its metrics; returns the result object."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    units = PER_LAYER if trace else END_TO_END
    ok = outcome.failed == 0 and bool(outcome.untraced) and (bool(outcome.traced) or not trace)
    values = (per_layer(outcome) if trace else end_to_end(workload, outcome)) if ok else {}
    print(
        f"{workload.name}: seed {seed}, trace {int(trace)}, "
        f"{len(outcome.untraced)} untraced and {len(outcome.traced)} traced runs, "
        f"error_rate {outcome.failed}/{outcome.attempted}; "
        f"times are medians, setup_s of {len(outcome.setup)} imports"
    )
    for label, records in (("untraced", outcome.untraced), ("traced", outcome.traced)):
        if records:
            print(f"  {label} e2e_s per run: " + " ".join(f"{r['e2e_s']:.3f}" for r in records))
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    print("provenance " + json.dumps(outcome.provenance, sort_keys=True))
    return {
        "correct": ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], help="default: both")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "boardstats" / "cli.py").is_file():
        print(f"benchmark: no boardstats source under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [False, True] if args.trace is None else [bool(args.trace)]
    try:
        results = {
            (name, trace): run_one(WORKLOADS[name], args.seed, args.seconds, trace)
            for name in names for trace in traces
        }
    except RunFailed as exc:  # boardstats.cli could not even be imported
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for (name, _), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
