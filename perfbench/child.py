"""One measured hicomp run, in a fresh interpreter started by run.py.

    python3 perfbench/child.py --src SRC --config CFG --result OUT.json
        [--command CMD --output DIR] [--trace SPANS_STEM] --spawned T

Without --command the child only sets up: it imports hicomp, loads the
config and builds the initial datum, then reports setup_s, the time since
the parent spawned it (`--spawned`, a CLOCK_MONOTONIC reading, which is
shared by all processes).  With --command it then times
`hicomp.cli.dispatch` from start to return (wall_s).  Untraced children
also time a fixed calibration loop right after set-up and, with --command,
right after dispatch, so that run.py can scale both times to a reference
host speed.  With --trace the child skips the separate set-up, installs
the external tracer and reports per-function spans instead.  The result
goes to --result as JSON; the child exits with the dispatch exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


CALIBRATION_ITERATIONS = 10000


def host_calibration() -> float:
    """Seconds taken by a fixed loop of the small-array numpy operations a
    solver step is made of; measures the host's speed at this moment."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 1024)
    flux = np.zeros(1025)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ITERATIONS):
        w = x ** 1.25
        flux[1:-1] = w[:-1] - w[1:]
        y = x - 1e-3 * np.diff(flux)
        float(np.where(y > 0.5, y, 0.0).max())
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--command")
    ap.add_argument("--output")
    ap.add_argument("--trace")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import hicomp
    import hicomp.cli
    from hicomp.config import build_initial_datum, load_config

    if Path(hicomp.__file__).resolve().parent != src / "hicomp":
        sys.stderr.write(f"imported hicomp from {hicomp.__file__}, not {src}\n")
        return 3

    result: dict = {"pid": os.getpid()}
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        build_initial_datum(load_config(args.config))
        result["setup_s"] = time.monotonic() - args.spawned
        result["calibration_s"] = [host_calibration()]

    code = 0
    if args.command:
        argv = [args.command, "--config", args.config, "--output", args.output,
                "--jobs", "1"]
        t0 = time.perf_counter()
        code = hicomp.cli.dispatch(argv)
        result["wall_s"] = time.perf_counter() - t0
        sys.stdout.flush()
        if tracer is None:
            result["calibration_s"].append(host_calibration())

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["exit_code"] = code
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump_spans(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
