"""Command-line entry point: batch pipelines over a JSON configuration.

Exit codes: 0 success, 1 invalid configuration or input (ConfigError) or a
failed `validate` check, 2 any runtime or numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import _span_diagnostics, write_diagnostics_csv
from .cns import FlowRow, well_prepared_init, write_cns_snapshot
from .config import (ConfigError, StudyConfig, build_initial_datum, config_hash,
                     load_config, parse_config)
from .grid import _fmt, atomic_open, march_rows, step_log, write_csv
from .pme import PmeState, advance_limit, write_pme_snapshot
from .study import run_certificates, run_rate_study, support_study
from .validate import run_validation

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hicomp", add_help=False)
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None)
    # --jobs 1 is still accepted from older scripts; nothing reads it
    p.add_argument("--jobs", type=int, choices=(1,))
    p.add_argument("--verbose", action="store_true")
    return p


def dispatch(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(USAGE)
        return 64
    cmd, rest = argv[0], argv[1:]
    if cmd in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    if cmd not in COMMANDS:
        sys.stderr.write(f"unknown command: {cmd}\n{USAGE}")
        return 64
    try:
        args = _build_parser().parse_args(rest)
    except SystemExit:
        sys.stderr.write(USAGE)
        return 64

    try:
        config = load_config(args.config) if args.config else parse_config("{}")
        if args.output is not None:
            config = dataclasses.replace(config, output_dir=args.output)
        runner, _ = COMMANDS[cmd]
        with step_log() as log, np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = runner(config, Path(config.output_dir), args.verbose)
        if args.verbose:
            print(f"{cmd}: steps={log.steps} stepped={log.stepped:.3f}")
        return code
    except ConfigError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:  # numerical failures, solver blow-ups, I/O failures
        sys.stderr.write(f"runtime failure: {type(e).__name__}: {e}\n")
        return 2


def _output_dir(out: Path) -> Path:
    """The output directory, created just before the first file goes into it,
    so that a run that writes nothing leaves no directory behind."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}") from None
    return out


def _snapshot_paths(out: Path, prefix: str, times) -> list[Path]:
    """One `<prefix>_t<t:g>.csv` path per sorted snapshot time.  Times whose
    names coincide would overwrite each other, so they are rejected."""
    names = [f"{prefix}_t{t:g}.csv" for t in times]
    for i in range(1, len(names)):
        if names[i] == names[i - 1]:
            raise ConfigError(f"snapshot times {times[i - 1]!r} and {times[i]!r} "
                              f"both name the file {names[i]}")
    return [out / name for name in names]


def _cmd_simulate(config: StudyConfig, out: Path, verbose: bool) -> int:
    if not config.eps_values:
        raise ConfigError("simulate needs at least one eps value")
    paths = _snapshot_paths(out, "cns", config.snapshot_times)
    eps = config.eps_values[0]
    params = config.params(eps)
    chash = config_hash(config)
    rho0 = build_initial_datum(config)
    start = well_prepared_init(rho0, config.floor_frac)
    flow = FlowRow(start, params)
    t = start.t
    # the start state and each step landing on a time, with the row's velocities
    times = set(config.snapshot_times)
    snaps = [(start, flow.v, flow.u)] if t in times else []
    records = []
    for (t,), (dt,) in march_rows((flow,), t, config.t_end, config.snapshot_times):
        records.append((_span_diagnostics(t, flow.rho, flow.span, flow.v, flow.u, flow.rho_max,
                                          flow.floor, flow.dx, params), dt))
        if t in times:
            snaps.append((flow.state(t), flow.v, flow.u))
    _output_dir(out)
    for (snap, v, u), path in zip(snaps, paths):
        write_cns_snapshot(snap, v, u, params, path, extra_comments=(f"config_hash={chash}",))
    write_diagnostics_csv(records, out / "diagnostics.csv",
                          extra_comments=(f"config_hash={chash}", f"epsilon={_fmt(eps)}"))
    if verbose:
        print(f"simulate: reached t={t:g}, eps={eps:g}")
    return 0


def _cmd_pme(config: StudyConfig, out: Path, verbose: bool) -> int:
    params = config.params(0.0)
    chash = config_hash(config)
    times = sorted({*config.snapshot_times, config.t_end})
    paths = _snapshot_paths(out, "pme", times)
    snaps = advance_limit(PmeState(t=0.0, rho=build_initial_datum(config)), params, times)
    _output_dir(out)
    for snap, path in zip(snaps, paths):
        write_pme_snapshot(snap, params, path, extra_comments=(f"config_hash={chash}",))
    if verbose:
        print(f"pme: reached t={snaps[-1].t:g}")
    return 0


def _write_error_table(path: Path, t_snapshots, eps_values, matrix, chash: str) -> None:
    write_csv(path, ("t", *(f"eps={_fmt(e)}" for e in eps_values)),
              ((t, *row) for t, row in zip(t_snapshots, matrix)),
              (f"config_hash={chash}",))


def _write_json(path: Path, doc: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2)


def _cmd_rate_study(config: StudyConfig, out: Path, verbose: bool) -> int:
    result = run_rate_study(config)
    chash = config_hash(config)
    _write_json(_output_dir(out) / "rate_study.json", {**result.to_dict(), "config_hash": chash})
    for name, matrix in (("errors_h1", result.errors_h1),
                         ("errors_l2", result.errors_l2),
                         ("mass_outside", result.mass_outside)):
        _write_error_table(out / f"{name}.csv", result.t_snapshots,
                           result.eps_values, matrix, chash)
    if verbose or not result.gate_passed:
        print(f"rate-study: slope_h1={result.slope_h1:.3f} "
              f"slope_l2={result.slope_l2:.3f} slope_mass={result.slope_mass:.3f} "
              f"grid_ratio={result.grid_convergence_ratio:.3g}")
    return 0


def _cmd_support_study(config: StudyConfig, out: Path, verbose: bool) -> int:
    growth, growth_r2, decay, decay_r2 = support_study(config)
    _write_json(_output_dir(out) / "support_study.json", {
        "support_growth_exponent": growth,
        "support_growth_r2": growth_r2,
        "smoothing_decay_exponent": decay,
        "smoothing_decay_r2": decay_r2,
        "expected_growth": 1.0 / (config.alpha + 1.0),
        "expected_decay": -1.0 / (config.alpha + 1.0),
        "config_hash": config_hash(config),
    })
    if verbose:
        print(f"support-study: growth={growth:.4f} decay={decay:.4f}")
    return 0


def _report_eps(eps: float, steps: int, path_bytes: int, forward_s: float,
                backward_s: float) -> None:
    sys.stderr.write(f"certify: eps={eps:g} steps={steps} path_mb={path_bytes / 1e6:.1f} "
                     f"forward_s={forward_s:.3f} backward_s={backward_s:.3f}\n")


def _cmd_certify(config: StudyConfig, out: Path, verbose: bool) -> int:
    entries = run_certificates(config, on_eps=_report_eps if verbose else None)
    # every entry carries the one hash of the run
    _write_json(_output_dir(out) / "certificates.json",
                {"config_hash": entries[0]["config_hash"], "certificates": entries})
    if verbose:
        for e in entries:
            print(f"certify: eps={e['epsilon']:g} lhs={e['lhs']:+.3e} "
                  f"bound={e['bound']:.3e} C={e['measured_c']:.3f}")
    return 0


def _cmd_validate(config: StudyConfig, out: Path, verbose: bool) -> int:
    rows = run_validation(seed=config.seed)
    width = max(len(name) for name, _, _ in rows)
    all_ok = True
    for name, ok, detail in rows:
        all_ok &= ok
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    return 0 if all_ok else 1


# the one list of commands: dispatch looks each up here and USAGE lists them
COMMANDS = {
    "simulate": (_cmd_simulate,
                 "one flow run (first eps value); snapshots + diagnostics CSV"),
    "pme": (_cmd_pme, "limit-equation run; snapshot CSVs"),
    "rate-study": (_cmd_rate_study, "eps sweep with slope fits; JSON + CSV tables"),
    "support-study": (_cmd_support_study, "interface growth and peak decay exponents; JSON"),
    "certify": (_cmd_certify, "duality certificates over the eps sweep; JSON"),
    "validate": (_cmd_validate, "built-in invariant suite; prints a pass/fail table"),
}

USAGE = ("usage: hicomp COMMAND [--config PATH] [--output DIR] [--verbose]\n\ncommands:\n"
         + "".join(f"  {name:<15}{summary}\n" for name, (_, summary) in COMMANDS.items())
         + "\nEvery pipeline runs serially in one process.\n")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
