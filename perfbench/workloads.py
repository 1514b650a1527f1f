"""The four pinned hicomp CLI workloads and the seeded config generator.

Each workload is one CLI command on the repository defaults plus a few
overrides.  The seed perturbs only the generated config: it draws the
initial datum's mass from [0.8, 1.2], which moves support width, dt and the
step count.  Seed 0 keeps mass 1.0 and is the pinned reference whose output
payloads are recorded in reference.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MASS_RANGE = (0.8, 1.2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rate-sweep", "rate-study",
            {"grid": {"n_cells": 1024}},
            "rate-study over the default 5 eps values at n=1024: CNS stepping "
            "dominates, so eps batching and step-kernel work show here"),
        Workload(
            "certify-paths", "certify",
            {"grid": {"n_cells": 1024}, "eps_values": [0.01]},
            "certify at n=1024, one eps: stored paired paths set peak RSS and "
            "four backward dual marches take half the time"),
        Workload(
            "limit-support", "support-study",
            {"grid": {"n_cells": 2048}, "t_end": 1.0,
             "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.05}},
            "support-study on a Barenblatt datum at n=2048: pure PME stepping, "
            "bypasses cns and analysis, exercises the Barenblatt inversion"),
        Workload(
            "simulate-diag", "simulate",
            {"grid": {"n_cells": 1536}, "eps_values": [0.01]},
            "simulate at n=1536 with diagnostics on every step and 2.6 MB of "
            "CSV: per-step observation and output writing show here"),
    )
}


def datum_mass(seed: int) -> float:
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(*MASS_RANGE)


def make_config(workload: Workload, seed: int, n_cells: int | None = None) -> dict:
    """The config document handed to hicomp for this workload and seed."""
    doc = json.loads(json.dumps(workload.overrides))
    datum = doc.setdefault("initial_datum", {"kind": "tent"})
    datum["mass"] = datum_mass(seed)
    if n_cells is not None:
        doc["grid"]["n_cells"] = n_cells
    return doc
