"""One measured process: import boardstats, run the CLI once, report.

Run by ``run.py`` in a fresh interpreter per measurement, so that peak RSS
is the high-water mark of this one analysis.  Usage:

    python3 child.py import SRC    # time ``import boardstats.cli`` only
    python3 child.py run REQUEST   # REQUEST: JSON {"src", "argv", "trace"}

The last line of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def import_cli(src: str):
    """Import ``boardstats.cli`` from ``src``; returns (module, seconds)."""
    sys.path.insert(0, src)
    start = time.perf_counter()
    import boardstats.cli as cli

    elapsed = time.perf_counter() - start
    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"boardstats imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def run(request: dict) -> dict:
    cli, import_s = import_cli(request["src"])
    tracer = None
    if request["trace"]:
        import spans  # after the timed import: spans imports numpy

        tracer = spans.Tracer()
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(request["argv"])
            else:
                rc = tracer.call(spans.ROOT, cli.main, request["argv"])
            e2e = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rc": rc,
        "import_s": import_s,
        "e2e_s": e2e,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "layers": None if tracer is None else spans.layer_metrics(tracer.spans),
        "missing_targets": [] if tracer is None else tracer.missing + sorted(tracer.uncounted),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["import"] and len(argv) == 2:
        _, elapsed = import_cli(argv[1])
        print(json.dumps({"import_s": elapsed}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 2:
        print(json.dumps(run(json.loads(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
