"""Record BENCH_<short-commit>.json for one checkout, or for a parent/change
pair: the end-to-end medians of the four perfbench workloads and the layer
timings of bench_dual.py, bench_step.py and bench_import.py.

    python3 benchmarks/record.py [--checkout DIR] [--against DIR] [--rounds K] [--out DIR]

Needs pytest-benchmark (`pip install -e .[bench]`).  Run it from the root of
this repository.  `--checkout` names the source checkout to measure (default:
this one); it must be a git checkout with its own `perfbench/` and `src/`.
Each layer file is taken from the checkout's own `benchmarks/`, or from this
one's when the checkout has none.

Every workload and every layer file runs K times (`--rounds`, default 1), and
each metric is the median of its K runs; the K values are kept under `runs`.
With `--against DIR`, DIR (the parent) is measured too, interleaved with the
checkout (the change): in each round the two run one after the other, the
order alternating between rounds, so host drift falls on both sides alike.
Both files are written, and the change's gains a `pairs` section: for each
workload and end-to-end metric, both medians and the number of rounds whose
change run beat the parent run (ties count for neither).  A null pair (one
commit on both sides) writes only the change's file.  The files go to
`--out` (default: this repository's root).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rate-sweep", "certify-paths", "limit-support", "simulate-diag")
LAYER_FILES = {"dual_certificate_backward_step": "bench_dual.py",
               "steps_and_field": "bench_step.py",
               "cold_import": "bench_import.py"}
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
    """Per-step microseconds of each case of one layer benchmark file, run
    against root's src, with the case's other extra_info."""
    bench = root / "benchmarks" / bench_file
    if not bench.exists():
        bench = HERE / bench_file
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "bench.json"
        # the checkout's own pytest config puts its src first on sys.path
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "-c", str(root / "pyproject.toml"), "--rootdir", str(root),
                        str(bench), "--benchmark-json", str(report)],
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
            **{key: value for key, value in bench["extra_info"].items() if key != "steps"},
        }
    return out


def combine_end_to_end(runs: list[dict]) -> dict:
    """The median of each metric over the runs, with its K values under
    `runs`; sample, attempt and failure counts are summed."""
    names = runs[0]["metrics"]
    return {"metrics": {name: statistics.median(run["metrics"][name] for run in runs)
                        for name in names},
            "runs": {name: [run["metrics"][name] for run in runs] for name in names},
            "samples": {name: sum(run["samples"][name] for run in runs)
                        for name in runs[0]["samples"]},
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs)}


def combine_layers(runs: list[dict]) -> dict:
    """Per case: the median of each timing over the runs, with its K values
    under `runs`; the case's other fields as the first run gave them."""
    out = {}
    for case, first in runs[0].items():
        timings = [key for key in first if key.startswith("us_per_step_")]
        out[case] = {**first,
                     **{key: statistics.median(run[case][key] for run in runs)
                        for key in timings},
                     "runs": {key: [run[case][key] for run in runs] for key in timings}}
    return out


class Side:
    """One checkout and the runs recorded of it so far."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.short = git(self.root, "rev-parse", "--short", "HEAD")
        self.dirty = bool(git(self.root, "status", "--porcelain", "--untracked-files=no"))
        self.machine = None
        self.end_to_end = {w: [] for w in WORKLOADS}
        self.layers = {name: [] for name in LAYER_FILES}

    def run_round(self, item: str) -> None:
        if item in self.end_to_end:
            entry, self.machine = end_to_end(self.root, item)
            self.end_to_end[item].append(entry)
        else:
            self.layers[item].append(layers(self.root, LAYER_FILES[item]))

    def document(self) -> dict:
        return {"commit": self.short, "dirty": self.dirty,
                "command": f"python3 perfbench/run.py --workload W --seed 0 "
                           f"--seconds {SECONDS:g} --trace 0",
                "machine": self.machine,
                "end_to_end": {w: combine_end_to_end(runs)
                               for w, runs in self.end_to_end.items()},
                "layers": {name: combine_layers(runs) for name, runs in self.layers.items()}}


def pairs(parent: Side, change: Side, rounds: int) -> dict:
    """Both medians of each end-to-end metric, and the rounds the change won."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in spec}
    out = {"against": parent.short, "rounds": rounds, "workloads": {}}
    for workload in WORKLOADS:
        metrics = {}
        for name, sign in better.items():
            before = [run["metrics"][name] for run in parent.end_to_end[workload]]
            after = [run["metrics"][name] for run in change.end_to_end[workload]]
            gains = [(a - b) if sign == "higher" else (b - a) for b, a in zip(before, after)]
            metrics[name] = {"parent_median": statistics.median(before),
                             "change_median": statistics.median(after),
                             "change_won": sum(gain > 0 for gain in gains)}
        out["workloads"][workload] = metrics
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=HERE.parent)
    ap.add_argument("--against", type=Path, default=None)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--out", type=Path, default=HERE.parent)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    change = Side(args.checkout)
    sides = [change] if args.against is None else [Side(args.against), change]
    for k in range(args.rounds):
        order = sides if k % 2 == 0 else sides[::-1]
        for item in (*WORKLOADS, *LAYER_FILES):
            for side in order:
                side.run_round(item)
    # the change's document comes last, so a null pair keeps the one with pairs
    docs = {side.short: side.document() for side in sides}
    if args.against is not None:
        docs[change.short]["pairs"] = pairs(sides[0], change, args.rounds)
    for short, doc in docs.items():
        path = args.out / f"BENCH_{short}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
