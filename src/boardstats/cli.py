"""Command-line entry point.

Exit codes: 0 success, 1 validation failure in the input data, 2
configuration error or a metric that cannot be evaluated on the data, 3 I/O
error, 4 out of memory.  A package error carries its own stage and code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .corrections import POLICIES
from .dataio import FORMATS, TASKS, RunConfig, comma_list
from .errors import BoardstatsError, ConfigError
from .pipeline import run_pipeline
from .report import CORRECTION_KEYS
from .table import BootstrapPlan


def build_parser() -> argparse.ArgumentParser:
    """Every default comes from ``RunConfig`` or ``BootstrapPlan``, whose field
    names are the option dests, and every choice list from its owning module."""
    parser = argparse.ArgumentParser(
        prog="boardstats",
        description=(
            "Bootstrap analysis of competition results: per-system confidence "
            "intervals, paired significance against the winner, "
            "multiple-comparison corrections and a difficulty report."
        ),
    )
    parser.add_argument("--input", required=True, help="prediction CSV (one column per system)")
    parser.add_argument("--gold-col", help="gold-standard column name (default: %(default)s)")
    parser.add_argument(
        "--metric",
        help="accuracy | f1:<class> | macro-f1:<c1,c2,...> | mae | custom:<file.py> "
        "(default: %(default)s)",
    )
    parser.add_argument("--samples", dest="replicates", metavar="SAMPLES", type=int,
                        help="bootstrap replicates (default: %(default)s)")
    parser.add_argument("--seed", type=int, help="master seed (default: %(default)s)")
    parser.add_argument("--alpha", type=float, help="tie significance level (default: %(default)s)")
    parser.add_argument("--confidence", type=float, help="CI level (default: %(default)s)")
    parser.add_argument(
        "--corrections",
        type=comma_list,
        help=f"comma list of {{{','.join(CORRECTION_KEYS)}}} "
        f"(default: {','.join(RunConfig.corrections)})",
    )
    parser.add_argument(
        "--family",
        choices=[p.replace("_", "-") for p in POLICIES],
        help="hypothesis family policy (default: %(default)s)",
    )
    parser.add_argument(
        "--gold-alias",
        help="system name excluded as the gold-standard row (default: %(default)s)",
    )
    parser.add_argument("--out-dir", help="output directory (default: %(default)s)")
    parser.add_argument(
        "--formats",
        type=comma_list,
        help=f"comma list of {{{','.join(FORMATS)}}} (default: {','.join(RunConfig.formats)})",
    )
    parser.add_argument(
        "--task",
        choices=TASKS,
        help="outcome type; auto treats all-numeric tables as regression "
        "(default: %(default)s)",
    )
    parser.add_argument("--workers", type=int, help="parallel evaluation hint (default: %(default)s)")
    defaults = {f.name: f.default for f in fields(RunConfig) + fields(BootstrapPlan)
                if f.default is not MISSING and f.name != "plan"}
    parser.set_defaults(**{**defaults, "family": RunConfig.family.replace("_", "-")})
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {**vars(args), "family": args.family.replace("-", "_")}
    try:
        plan = BootstrapPlan(**{f.name: values.pop(f.name) for f in fields(BootstrapPlan)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**values, plan=plan)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = run_pipeline(config_from_args(args))
    except BoardstatsError as exc:
        print(f"boardstats: {exc.stage}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"boardstats: i/o: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("boardstats: memory: out of memory; try fewer --samples or systems", file=sys.stderr)
        return 4
    print(f"wrote {len(result.artifacts)} artifacts to {result.out_dir}")
    for name in result.artifacts:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
