"""Correctness checks on the outputs of one workload run.

Two kinds of check:

* Payload digests (seed 0 only).  The payload of a JSON output is every key
  recorded in reference.json for it (keys a later version adds are
  ignored); the payload of a CSV output is every non-comment line.  Each
  payload's SHA-256 must equal the recorded one, i.e. the numbers are
  byte-identical to the reference run.
* Invariants (every seed): certificates satisfy |lhs| <= bound with the
  duality identity residual at round-off; diagnostics.csv conserves mass to
  1e-10 relative; support exponents lie near +-1/(alpha+1); rate-study
  errors are finite and positive.  Every numeric CSV cell must be finite.

`gate_passed` of rate-study is reported as a fact, not checked: it reads
false at n = 1024 and the workload is not resized to hide that.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ROUNDOFF = 1e-12          # bound on the duality identity residual
MASS_DRIFT = 1e-10        # relative mass drift allowed in diagnostics.csv
EXPONENT_TOL = 0.02       # absolute tolerance on the support exponents

OUTPUTS = {
    "rate-sweep": ("rate_study.json", "errors_h1.csv", "errors_l2.csv",
                   "mass_outside.csv"),
    "certify-paths": ("certificates.json",),
    "limit-support": ("support_study.json",),
    "simulate-diag": ("diagnostics.csv", "cns_t0.125.csv", "cns_t0.25.csv",
                      "cns_t0.375.csv", "cns_t0.5.csv"),
}


# ---------------------------------------------------------------------------
# Payload digests


def key_shape(obj):
    """Key tree of a JSON document: a dict of sub-shapes per key, a
    one-element list for a list of objects, None for a leaf."""
    if isinstance(obj, dict):
        return {k: key_shape(v) for k, v in obj.items()}
    if isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        return [key_shape(obj[0])]
    return None


def project(obj, shape):
    """The part of `obj` covered by `shape`; a missing key is kept as a
    marker so that its absence changes the digest."""
    if isinstance(shape, dict):
        if not isinstance(obj, dict):
            return ["<not an object>", obj]
        return {k: project(obj[k], s) if k in obj else "<missing>"
                for k, s in shape.items()}
    if isinstance(shape, list):
        if not isinstance(obj, list):
            return ["<not a list>", obj]
        return [project(v, shape[0]) for v in obj]
    return obj


def csv_payload(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


def digest(path: Path, shape=None) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        payload = json.dumps(project(doc, shape if shape is not None else key_shape(doc)),
                             sort_keys=True)
    else:
        payload = csv_payload(text)
    return hashlib.sha256(payload.encode()).hexdigest()


def record_payloads(workload: str, out: Path) -> dict:
    """Reference entry for the outputs in `out`."""
    entry = {}
    for name in OUTPUTS[workload]:
        path = out / name
        if path.suffix == ".json":
            shape = key_shape(json.loads(path.read_text()))
            entry[name] = {"shape": shape, "sha256": digest(path, shape)}
        else:
            entry[name] = {"sha256": digest(path)}
    return entry


def check_payloads(reference: dict, out: Path) -> list[str]:
    problems = []
    for name, ref in reference.items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif digest(path, ref.get("shape")) != ref["sha256"]:
            problems.append(f"{name}: payload differs from the seed-0 reference")
    return problems


# ---------------------------------------------------------------------------
# Invariants


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path.name}: malformed or non-finite row {row}")
    return header, rows


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


def _rate_sweep(out: Path, facts: dict) -> list[str]:
    doc = json.loads((out / "rate_study.json").read_text())
    facts["gate_passed"] = doc["gate_passed"]
    facts["grid_convergence_ratio"] = doc["grid_convergence_ratio"]
    problems = []
    n_eps = len(doc["eps_values"])
    for key in ("errors_h1", "errors_l2", "mass_outside"):
        matrix = doc[key]
        cells = [v for row in matrix for v in row]
        if len(matrix) != len(doc["t_snapshots"]) or len(cells) != len(matrix) * n_eps:
            problems.append(f"{key}: wrong shape")
        elif not _finite_positive(cells):
            problems.append(f"{key}: not all finite and positive")
        _, rows = read_csv(out / f"{key}.csv")
        if [row[1:] for row in rows] != matrix:
            problems.append(f"{key}.csv disagrees with rate_study.json")
    for key in ("slope_h1", "slope_l2", "slope_mass"):
        if not math.isfinite(doc[key]):
            problems.append(f"{key} is not finite")
    return problems


def _certify(out: Path, facts: dict) -> list[str]:
    entries = json.loads((out / "certificates.json").read_text())["certificates"]
    problems = []
    if not entries:
        problems.append("no certificates")
    worst = 0.0
    for i, e in enumerate(entries):
        scale = max(1.0, abs(e["lhs"]), abs(e["initial_term"]),
                    abs(e["rhs_coeff_term"]), abs(e["rhs_momentum_term"]))
        worst = max(worst, e["identity_residual"] / scale)
        if not abs(e["lhs"]) <= e["bound"]:
            problems.append(f"certificate {i}: |lhs|={abs(e['lhs'])} > bound={e['bound']}")
        if not e["identity_residual"] <= ROUNDOFF * scale:
            problems.append(f"certificate {i}: identity residual "
                            f"{e['identity_residual']} is not at round-off")
    facts["certificates"] = len(entries)
    facts["max_identity_residual"] = worst
    return problems


def _support(out: Path, facts: dict) -> list[str]:
    doc = json.loads((out / "support_study.json").read_text())
    problems = []
    for key, expected in (("support_growth_exponent", "expected_growth"),
                          ("smoothing_decay_exponent", "expected_decay")):
        facts[key] = doc[key]
        if not abs(doc[key] - doc[expected]) <= EXPONENT_TOL:
            problems.append(f"{key}={doc[key]} is not within {EXPONENT_TOL} "
                            f"of {doc[expected]}")
    return problems


def _simulate(out: Path, facts: dict) -> list[str]:
    header, rows = read_csv(out / "diagnostics.csv")
    problems = []
    t, dt, mass = (header.index(c) for c in ("t", "dt", "mass"))
    if not rows:
        return ["diagnostics.csv has no rows"]
    m0 = rows[0][mass]
    drift = max(abs(r[mass] - m0) for r in rows) / m0
    facts["diagnostics_rows"] = len(rows)
    facts["mass_drift"] = drift
    if not drift <= MASS_DRIFT:
        problems.append(f"mass drift {drift:.3g} exceeds {MASS_DRIFT}")
    if any(r[dt] <= 0.0 for r in rows) or any(
            b[t] <= a[t] for a, b in zip(rows, rows[1:])):
        problems.append("diagnostics.csv times are not strictly increasing")
    for name in OUTPUTS["simulate-diag"][1:]:
        _, snap = read_csv(out / name)
        if not snap or min(r[1] for r in snap) <= 0.0:
            problems.append(f"{name}: empty or non-positive density")
    return problems


INVARIANTS = {"rate-sweep": _rate_sweep, "certify-paths": _certify,
              "limit-support": _support, "simulate-diag": _simulate}


def check_run(workload: str, out: Path, reference: dict | None) -> tuple[list[str], dict]:
    """All checks on one run's outputs: (problems, facts)."""
    facts: dict = {}
    missing = [n for n in OUTPUTS[workload] if not (out / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing], facts
    try:
        problems = INVARIANTS[workload](out, facts)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        problems = [f"unreadable output: {type(e).__name__}: {e}"]
    if reference is not None:
        problems += check_payloads(reference, out)
    return problems, facts
