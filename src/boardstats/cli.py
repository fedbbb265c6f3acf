"""Command-line entry point.

Exit codes: 0 success, 1 validation failure in the input data, 2
configuration error or a metric that cannot be evaluated on the data, 3 I/O
error, 4 out of memory.  A package error carries its own stage and code.
"""

from __future__ import annotations

import argparse
import sys

from .dataio import FORMATS, RunConfig
from .errors import BoardstatsError
from .pipeline import run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boardstats",
        description=(
            "Bootstrap analysis of competition results: per-system confidence "
            "intervals, paired significance against the winner, "
            "multiple-comparison corrections and a difficulty report."
        ),
    )
    parser.add_argument("--input", required=True, help="prediction CSV (one column per system)")
    parser.add_argument("--gold-col", default="y", help="gold-standard column name (default: y)")
    parser.add_argument(
        "--metric",
        default="accuracy",
        help="accuracy | f1:<class> | macro-f1:<c1,c2,...> | mae | custom:<file.py>",
    )
    parser.add_argument(
        "--direction",
        choices=["higher", "lower"],
        help="override score direction (custom metrics only)",
    )
    parser.add_argument("--samples", type=int, default=10_000, help="bootstrap replicates (default: 10000)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    parser.add_argument("--alpha", type=float, default=0.05, help="tie significance level (default: 0.05)")
    parser.add_argument("--confidence", type=float, default=0.95, help="CI level (default: 0.95)")
    parser.add_argument(
        "--corrections",
        default="bonferroni,holm,bh",
        help="comma list of {none,bonferroni,holm,bh} (default: bonferroni,holm,bh)",
    )
    parser.add_argument(
        "--family",
        choices=["vs-winner", "per-reference", "global"],
        default="per-reference",
        help="hypothesis family policy (default: per-reference)",
    )
    parser.add_argument(
        "--gold-alias",
        default="Gold_Standard",
        help="system name excluded as the gold-standard row (default: Gold_Standard)",
    )
    parser.add_argument("--out-dir", default="boardstats-out", help="output directory")
    parser.add_argument(
        "--formats",
        default=",".join(FORMATS),
        help=f"comma list of {{{','.join(FORMATS)}}} (default: all)",
    )
    parser.add_argument(
        "--task",
        choices=["auto", "classification", "regression"],
        default="auto",
        help="outcome type; auto treats all-numeric tables as regression",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel evaluation hint")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    corrections = tuple(c.strip() for c in args.corrections.split(",") if c.strip())
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    return RunConfig(
        input=args.input,
        gold_col=args.gold_col,
        metric=args.metric,
        direction=args.direction,
        samples=args.samples,
        seed=args.seed,
        alpha=args.alpha,
        confidence=args.confidence,
        corrections=corrections,
        family=args.family.replace("-", "_"),
        gold_alias=args.gold_alias,
        out_dir=args.out_dir,
        formats=formats,
        task=args.task,
        workers=args.workers,
    )


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
