"""Run run.py over workloads and seeds and summarise the end-to-end metrics.

    python3 perfbench/report.py [--seeds 0 1 2 ...] [--seconds S]
                                [--workloads rate-sweep ...]

Run from the root of a checkout.  Prints every end-to-end metric by name
with its unit for each run, then per workload and metric the median, the
quartiles and their spread (q3 - q1) / median next to the metric's bound.
--seconds defaults to BENCHMARK.json's run_seconds.  Runs are serial; ten
seeds on all four workloads take about 19 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    args = ap.parse_args()
    manifest = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    metrics = manifest["end_to_end"]

    failures = 0
    for name in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += 0 if result["correct"] else 1
            cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  {cells}",
                  flush=True)
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {name} {m['name']:<13} median {med:.6g} {m['unit']}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
                  f"  bound {m['bound']}  (n={len(vals)})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
