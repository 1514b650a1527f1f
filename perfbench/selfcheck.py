"""Harness self-check: does the benchmark catch what it claims to catch?

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes well under a minute.  For each
workload, on a tiny grid and a non-zero seed, it

1. runs the pipeline untraced and requires every invariant check to pass;
2. corrupts one output number and requires both the payload-digest check
   and the invariant check to reject the result;
3. runs the pipeline traced and requires the traced self times to sum to no
   more than the traced wall_s, and every per-layer metric to be reported.
   On certify-paths it also requires `cns_step` and `pme_step` calls made
   through `study`'s by-name imports to be counted, one pair per step.

It also requires BENCHMARK.json to list exactly the metrics run.py emits.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

from check import check_payloads, check_run, record_payloads
from run import END_TO_END, PER_LAYER, WORKLOADS, make_config, per_layer_metrics, run_child

SEED = 7
# Grid sizes that run the same pipelines in well under a second.
TINY_CELLS = {"rate-sweep": 128, "certify-paths": 128,
              "limit-support": 256, "simulate-diag": 128}


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2))


def _scale_mass_cell(path: Path) -> None:
    """Move the mass column of the last diagnostics row by 1e-6."""
    lines = path.read_text().splitlines(keepends=True)
    cols = lines[-1].rstrip("\n").split(",")
    cols[2] = repr(float(cols[2]) * (1.0 + 1e-6))
    lines[-1] = ",".join(cols) + "\n"
    path.write_text("".join(lines))


# One corruption per workload, each of which an invariant must catch.
CORRUPT = {
    "rate-sweep": lambda out: _edit_json(
        out / "rate_study.json",
        lambda d: d["errors_h1"][-1].__setitem__(0, -d["errors_h1"][-1][0])),
    "certify-paths": lambda out: _edit_json(
        out / "certificates.json",
        lambda d: d["certificates"][0].__setitem__(
            "lhs", 2.0 * d["certificates"][0]["bound"])),
    "limit-support": lambda out: _edit_json(
        out / "support_study.json",
        lambda d: d.__setitem__("support_growth_exponent",
                                d["support_growth_exponent"] + 0.1)),
    "simulate-diag": lambda out: _scale_mass_cell(out / "diagnostics.csv"),
}


def check_workload(name: str, root: Path) -> list[str]:
    workload = WORKLOADS[name]
    work = root / ".perfbench_out" / f"selfcheck-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(workload, SEED, TINY_CELLS[name])))
    failures = []

    plain = run_child(root / "src", work, "plain", config, command=workload.command)
    if plain["exit_code"] != 0:
        return [f"{name}: tiny run exited {plain['exit_code']}"]
    problems, _ = check_run(name, plain["out"], None)
    if problems:
        failures.append(f"{name}: clean output rejected: {problems}")
    reference = record_payloads(name, plain["out"])
    CORRUPT[name](plain["out"])
    if not check_payloads(reference, plain["out"]):
        failures.append(f"{name}: corrupted payload accepted by the digest check")
    if not check_run(name, plain["out"], None)[0]:
        failures.append(f"{name}: corrupted output accepted by the invariants")

    traced = run_child(root / "src", work, "traced", config,
                       command=workload.command, trace=True)
    if traced["exit_code"] != 0:
        return failures + [f"{name}: traced run exited {traced['exit_code']}"]
    summary = traced["trace"]
    self_sum = sum(f["self_s"] for f in summary["functions"].values())
    if not self_sum <= traced["wall_s"]:
        failures.append(f"{name}: self times {self_sum} s exceed wall_s {traced['wall_s']} s")
    metrics = per_layer_metrics(summary, traced["wall_s"], plain["wall_s"], 0)
    if set(metrics) != set(PER_LAYER):
        failures.append(f"{name}: per-layer metrics differ from PER_LAYER: "
                        f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    if name == "certify-paths" and not (
            metrics["cns.cns_step.calls"] == metrics["pme.pme_step.calls"] > 0):
        failures.append(f"{name}: steps called through study's bindings are not traced")
    print(f"{name}: tiny run {plain['wall_s']:.2f} s, traced {traced['wall_s']:.2f} s, "
          f"self-time sum {self_sum:.2f} s, {summary['spans']} spans")
    return failures


def check_manifest(root: Path) -> list[str]:
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != emitted:
            failures.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(emitted.items()))}")
    if {w["name"] for w in manifest["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    failures += [f"bad unit {u!r}" for u in {**END_TO_END, **PER_LAYER}.values()
                 if not unit.match(u)]
    return failures


def main() -> int:
    root = Path.cwd()
    failures = check_manifest(root)
    for name in WORKLOADS:
        failures += check_workload(name, root)
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
