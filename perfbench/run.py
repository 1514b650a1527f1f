"""hicomp pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/hicomp`).
See perfbench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_run  # noqa: E402
from workloads import WORKLOADS, datum_mass, make_config  # noqa: E402

SETUP_PROBES = 2          # set-up-only children per untraced run
# Host speed reference: the time child.py's calibration loop takes at the
# speed to which wall_s and setup_s are scaled.  Host speed on a shared VM
# drifts by up to 1.7x over minutes; scaling each child's times by
# REFERENCE_CALIBRATION_S / (its own calibration time) removes that drift.
REFERENCE_CALIBRATION_S = 0.25
DEADLINE_S = 165.0        # a run stops starting children after this
CHILD_ENV = {             # one thread per child: no BLAS or OpenMP pools
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio"}

# Wrapped functions reported by calls and self time: every public function
# that some workload calls, by layer.
LAYER_FUNCTIONS = (
    "config.parse_config", "config.load_config", "config.config_hash",
    "config.tent_field", "config.build_initial_datum",
    "grid.derivative", "grid.integrate", "grid.antiderivative", "grid.lp_norm",
    "grid.check_support_margin",
    "pme.barenblatt_params", "pme.barenblatt_eval", "pme.barenblatt_field",
    "pme.diffusive_face_flux", "pme.stability_limit", "pme.pme_step",
    "pme.pme_solve_to", "pme.interface_positions",
    "cns.well_prepared_init", "cns.init_with_velocity", "cns.velocity",
    "cns.dx_phi", "cns.recover_u", "cns.advective_face_flux", "cns.cfl_dt",
    "cns.cns_step", "cns.cns_solve_to", "cns.write_cns_snapshot",
    "analysis.h_minus1_norm", "analysis.error_pair",
    "analysis.mass_outside_support", "analysis.default_clamp_bounds",
    "analysis.dual_certificate", "analysis.diagnostics",
    "analysis.write_diagnostics_csv",
    "study.fit_loglog_slope", "study.run_rate_study",
    "study.support_growth_study", "study.smoothing_decay_study",
    "study.run_paired_paths", "study.bump_test_function",
    "study.saturating_velocity", "study.run_certificates",
    "cli.dispatch", "cli._write_error_table", "cli.json.dump",
)
LAYERS = ("config", "grid", "pme", "cns", "analysis", "study", "cli")
WRITE_SPANS = ("analysis.write_diagnostics_csv", "cns.write_cns_snapshot",
               "pme.write_pme_snapshot", "grid.write_field_csv",
               "cli._write_error_table", "cli.json.dump")

PER_LAYER = {
    **{f"{fn}.{stat}": unit for fn in LAYER_FUNCTIONS
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "config.load_config.s": "s", "config.build_initial_datum.s": "s",
    "pme.barenblatt_params.s": "s",
    "grid.Field.count": "count", "grid.Field.per_step": "ratio",
    "cns.cns_step.us_per_call": "us", "cns.cfl_dt.per_step": "ratio",
    "pme.pme_step.us_per_call": "us", "pme.stability_limit.per_step": "ratio",
    "analysis.dual_certificate.us_per_step": "us",
    "study.path_bytes": "B", "study.limit_reference_s": "s",
    "study.fine_sweep_s": "s", "study.coarse_sweep_s": "s",
    "io.write_s": "s", "io.bytes_written": "B",
    **{f"layer.{m}.self_s": "s" for m in LAYERS},
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# Children


def run_child(src: Path, work: Path, tag: str, config: Path, *,
              command: str | None = None, trace: bool = False,
              timeout: float = 170.0) -> dict:
    """Run child.py once; returns its result plus exit code and outputs."""
    out = work / f"out-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    result_path = work / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--src", str(src),
            "--config", str(config), "--result", str(result_path)]
    if command:
        argv += ["--command", command, "--output", str(out)]
    if trace:
        argv += ["--trace", str(work / "spans")]
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)
    with open(work / f"log-{tag}.txt", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--spawned", repr(spawned)], env=env,
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=work)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    elapsed = time.monotonic() - spawned
    result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    result.update(exit_code=code, elapsed_s=elapsed, out=out,
                  log=(work / f"log-{tag}.txt"))
    return result


def scaled(seconds: float, calibrations: list[float]) -> float:
    """A measured time scaled to the reference host speed."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(calibrations)


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Metrics


def per_layer_metrics(summary: dict, traced_wall: float, untraced_wall: float,
                      io_bytes: int) -> dict:
    funcs = summary["functions"]

    def stat(name, key):
        return funcs.get(name, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {}
    for fn in LAYER_FUNCTIONS:
        m[f"{fn}.calls"] = stat(fn, "calls")
        m[f"{fn}.self_s"] = stat(fn, "self_s")
    cns_steps = stat("cns.cns_step", "calls")
    pme_steps = stat("pme.pme_step", "calls")
    by_cells = summary["solve_to_by_cells"]
    cns_by_cells = {int(k): v for k, v in by_cells.get("cns.cns_solve_to", {}).items()}
    finest = max(cns_by_cells, default=0)
    m.update({
        "config.load_config.s": stat("config.load_config", "total_s"),
        "config.build_initial_datum.s": stat("config.build_initial_datum", "total_s"),
        "pme.barenblatt_params.s": stat("pme.barenblatt_params", "total_s"),
        "grid.Field.count": summary["field_count"],
        "grid.Field.per_step": ratio(summary["field_count"], cns_steps),
        "cns.cns_step.us_per_call": ratio(stat("cns.cns_step", "total_s"), cns_steps, 1e6),
        "cns.cfl_dt.per_step": ratio(stat("cns.cfl_dt", "calls"), cns_steps),
        "pme.pme_step.us_per_call": ratio(stat("pme.pme_step", "total_s"), pme_steps, 1e6),
        "pme.stability_limit.per_step": ratio(stat("pme.stability_limit", "calls"), pme_steps),
        "analysis.dual_certificate.us_per_step": ratio(
            stat("analysis.dual_certificate", "total_s"),
            stat("analysis.dual_certificate", "tag"), 1e6),
        "study.path_bytes": stat("study.run_paired_paths", "tag"),
        "study.limit_reference_s": stat("pme.pme_solve_to", "total_s"),
        "study.fine_sweep_s": cns_by_cells.get(finest, 0.0),
        "study.coarse_sweep_s": sum(v for k, v in cns_by_cells.items() if k != finest),
        "io.write_s": sum(stat(fn, "total_s") for fn in WRITE_SPANS),
        "io.bytes_written": io_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": summary["spans"],
    })
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            v["self_s"] for k, v in funcs.items() if k.startswith(layer + "."))
    return m


def machine_record(root: Path, src: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((src / "hicomp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "hicomp" / "__init__.py").is_file():
        sys.stderr.write(f"no hicomp sources under {src}; run from a checkout root\n")
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(workload, args.seed), indent=1))
    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())[workload.name]

    # the first set-up child is a warm-up and is not counted
    probes = [run_child(src, work, f"setup{i}", config)
              for i in range(1 + (0 if args.trace else SETUP_PROBES))]
    for probe in probes:
        if probe["exit_code"] != 0:
            sys.stderr.write(f"set-up failed (exit {probe['exit_code']}):\n"
                             f"{probe['log'].read_text()[-2000:]}")
            return 2
    setup = [scaled(p["setup_s"], p["calibration_s"]) for p in probes[1:]]

    runs, problems = [], []

    def attempt(tag, trace=False):
        left = DEADLINE_S - (time.monotonic() - started)
        res = run_child(src, work, tag, config, command=workload.command,
                        trace=trace, timeout=max(left, 1.0))
        res["problems"], res["facts"] = (
            check_run(workload.name, res["out"], reference)
            if res["exit_code"] == 0 else ([f"exit code {res['exit_code']}"], {}))
        if trace and "trace" in res:
            self_sum = sum(f["self_s"] for f in res["trace"]["functions"].values())
            if self_sum > res["wall_s"]:
                res["problems"].append(
                    f"traced self times sum to {self_sum} s > wall_s {res['wall_s']} s")
        problems.extend(f"{tag}: {p}" for p in res["problems"])
        runs.append(res)
        return res

    t0 = time.monotonic()
    while True:
        res = attempt(f"run{len(runs)}")
        now = time.monotonic()
        if now - t0 >= args.seconds:
            break
        if now - started + res["elapsed_s"] > DEADLINE_S:
            break
    ok = [r for r in runs if not r["problems"]]
    traced = attempt("traced", trace=True) if args.trace else None

    if not ok:
        sys.stderr.write("no run succeeded:\n" + "\n".join(problems) + "\n")
        return 1
    raw_walls = [r["wall_s"] for r in ok]
    walls = [scaled(r["wall_s"], r["calibration_s"]) for r in ok]
    setup += [scaled(r["setup_s"], r["calibration_s"][:1]) for r in ok]
    attempted = len(runs)           # the traced child included
    failed = sum(1 for r in runs if r["problems"])
    if args.trace:
        if traced["problems"] or "trace" not in traced:
            sys.stderr.write("traced run failed:\n" + "\n".join(problems) + "\n")
            return 1
        metrics = per_layer_metrics(traced["trace"], traced["wall_s"],
                                    statistics.median(raw_walls),
                                    bytes_written(traced["out"]))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "success_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END

    facts = ok[-1]["facts"]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "datum_mass": datum_mass(args.seed),
        "machine": machine_record(root, src),
        "attempted": attempted, "failed": failed, "problems": problems,
        "facts": facts, "metrics": metrics,
        "samples": {"wall_s": walls, "setup_s": setup, "raw_wall_s": raw_walls,
                    "raw_setup_s": [p["setup_s"] for p in probes[1:]]
                    + [r["setup_s"] for r in ok],
                    "calibration_s": [p["calibration_s"] for p in probes[1:]]
                    + [r["calibration_s"] for r in ok],
                    "cpu_s": [r["cpu_s"] for r in ok],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in ok]},
    }
    with open(root / ".perfbench_out" / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {workload.name}, seed {args.seed} (mass {record['datum_mass']:.6g}): "
          f"{len(walls)} timed runs, {len(setup)} set-up samples; facts {json.dumps(facts)}")
    print(f"raw dispatch times {[round(w, 3) for w in raw_walls]} s; times below are "
          f"scaled to a {REFERENCE_CALIBRATION_S} s calibration loop")
    for p in problems:
        print(f"FAILED {p}")
    for name in (units if not args.trace else ()):
        print(f"  {name:<14} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
