"""Record BENCH_<short-commit>.json for one checkout: the end-to-end medians
of the four perfbench workloads and the layer timings of bench_dual.py and
bench_step.py.

    python3 benchmarks/record.py [--checkout DIR] [--out DIR]

Needs pytest-benchmark (`pip install -e .[bench]`).  Run it from the root of
this repository.  `--checkout` names the source
checkout to measure (default: this one); it must be a git checkout with its
own `perfbench/` and `src/`.  The file is written to `--out` (default: this
repository's root).  Record a before/after pair on one machine, one checkout
after the other; every workload runs for SECONDS, so both halves of a pair
are comparable.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rate-sweep", "certify-paths", "limit-support", "simulate-diag")
SECONDS = 20.0


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def end_to_end(root: Path, workload: str) -> tuple[dict, dict]:
    """Medians and sample counts of one untraced seed-0 perfbench run."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", "0", "--seconds", f"{SECONDS:g}", "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    records = (root / ".perfbench_out" / "records.jsonl").read_text().splitlines()
    record = json.loads(records[-1])
    if record["workload"] != workload:
        raise RuntimeError(f"last perfbench record is for {record['workload']}")
    entry = {"metrics": record["metrics"],
             "samples": {name: len(values) for name, values in record["samples"].items()
                         if name in record["metrics"]},
             "attempted": record["attempted"], "failed": record["failed"]}
    return entry, record["machine"]


def layers(root: Path, bench_file: str) -> dict:
    """Per-step microseconds of each case of one layer benchmark file of this
    repository, run against root's src."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "bench.json"
        # the checkout's own pytest config puts its src first on sys.path
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "-c", str(root / "pyproject.toml"), "--rootdir", str(root),
                        str(HERE / bench_file), "--benchmark-json", str(report)],
                       cwd=root, check=True, stdout=subprocess.DEVNULL)
        doc = json.loads(report.read_text())
    out = {}
    for bench in doc["benchmarks"]:
        stats, steps = bench["stats"], bench["extra_info"]["steps"]
        out[bench["name"]] = {
            "us_per_step_median": stats["median"] / steps * 1e6,
            "us_per_step_min": stats["min"] / steps * 1e6,
            "us_per_step_iqr": stats["iqr"] / steps * 1e6,
            "rounds": stats["rounds"],
            "steps_per_round": steps,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=HERE.parent)
    ap.add_argument("--out", type=Path, default=HERE.parent)
    args = ap.parse_args()
    root = args.checkout.resolve()
    short = git(root, "rev-parse", "--short", "HEAD")
    doc = {"commit": short,
           "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
           "command": f"python3 perfbench/run.py --workload W --seed 0 "
                      f"--seconds {SECONDS:g} --trace 0",
           "machine": None, "end_to_end": {}}
    for workload in WORKLOADS:
        doc["end_to_end"][workload], doc["machine"] = end_to_end(root, workload)
    doc["layers"] = {"dual_certificate_backward_step": layers(root, "bench_dual.py"),
                     "steps_and_field": layers(root, "bench_step.py")}
    path = args.out / f"BENCH_{short}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
