"""Experiment configuration: strict JSON parsing, defaults, provenance hash,
and construction of initial data."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Union

import numpy as np

from .cns import DEFAULT_FLOOR_FRAC
from .grid import Field, Grid, read_field_csv
from .params import PhysParams
from .pme import barenblatt_field, barenblatt_params

__all__ = [
    "ConfigError",
    "TentDatum",
    "BarenblattDatum",
    "CsvDatum",
    "StudyConfig",
    "parse_config",
    "load_config",
    "config_hash",
    "build_initial_datum",
    "DEFAULT_CONFIG",
]


class ConfigError(ValueError):
    """Invalid configuration or input data, as opposed to a failure of the
    computation itself."""


@dataclass(frozen=True)
class TentDatum:
    mass: float


@dataclass(frozen=True)
class BarenblattDatum:
    mass: float
    t0: float


@dataclass(frozen=True)
class CsvDatum:
    path: str


InitialDatum = Union[TentDatum, BarenblattDatum, CsvDatum]

DEFAULT_CONFIG = {
    "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 2048},
    "params": {"alpha": 1.25, "gamma": 2.0, "pme_coeff": None},
    "eps_values": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
    "t_end": 0.5,
    "snapshot_times": [0.125, 0.25, 0.375, 0.5],
    "initial_datum": {"kind": "tent", "mass": 1.0},
    "thresholds": {"support": 1e-6, "floor": DEFAULT_FLOOR_FRAC},
    "output_dir": "out",
    "seed": 0,
}


@dataclass(frozen=True)
class StudyConfig:
    grid: Grid
    alpha: float
    gamma: float
    pme_coeff: float | None
    eps_values: tuple[float, ...]
    t_end: float
    snapshot_times: tuple[float, ...]
    initial_datum: InitialDatum
    support_threshold: float
    floor_frac: float
    output_dir: str
    seed: int

    def params(self, epsilon: float = 0.0) -> PhysParams:
        return PhysParams(alpha=self.alpha, gamma=self.gamma, epsilon=epsilon,
                          pme_coeff=self.pme_coeff)


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _merged(user: dict, defaults: dict, where: str) -> dict:
    _reject_unknown(user, set(defaults), where)
    out = dict(defaults)
    out.update(user)
    return out


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number; the JSON reader also accepts NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {number!r}")
    return number


def parse_config(text: str) -> StudyConfig:
    """Parse and fully validate a JSON configuration (strict keys)."""
    try:
        return _from_document(json.loads(text))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (TypeError, ValueError, OverflowError) as e:
        # wrong JSON types, huge integers, and the Grid and PhysParams messages
        raise ConfigError(str(e)) from None


def _from_document(raw) -> StudyConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    top = _merged(raw, DEFAULT_CONFIG, "config")
    gspec = _merged(top["grid"], DEFAULT_CONFIG["grid"], "grid")
    pspec = _merged(top["params"], DEFAULT_CONFIG["params"], "params")
    tspec = _merged(top["thresholds"], DEFAULT_CONFIG["thresholds"], "thresholds")

    grid = Grid(_number(gspec["x_min"], "grid.x_min"),
                _number(gspec["x_max"], "grid.x_max"),
                _integer(gspec["n_cells"], "grid.n_cells"))
    alpha = _number(pspec["alpha"], "params.alpha")
    gamma = _number(pspec["gamma"], "params.gamma")
    pme_coeff = (None if pspec["pme_coeff"] is None
                 else _number(pspec["pme_coeff"], "params.pme_coeff"))
    # validates alpha/gamma/pme_coeff invariants with the shared messages
    PhysParams(alpha=alpha, gamma=gamma, epsilon=0.0, pme_coeff=pme_coeff)

    eps_values = tuple(_number(e, "eps_values") for e in top["eps_values"])
    if any(e < 0.0 for e in eps_values):
        raise ConfigError(f"eps_values must be >= 0, got {min(eps_values)}")

    t_end = _number(top["t_end"], "t_end")
    if not t_end > 0.0:
        raise ConfigError(f"t_end must be positive, got {t_end}")
    snapshot_times = tuple(_number(t, "snapshot_times") for t in top["snapshot_times"])
    if any(t < 0.0 or t > t_end for t in snapshot_times):
        raise ConfigError("snapshot_times must lie within [0, t_end]")
    if any(b <= a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ConfigError("snapshot_times must be sorted and distinct")

    datum = _parse_datum(top["initial_datum"])

    support = _number(tspec["support"], "thresholds.support")
    if not 0.0 < support < 1.0:
        raise ConfigError(f"support threshold must lie in (0, 1), got {support}")
    floor = _number(tspec["floor"], "thresholds.floor")
    if not 0.0 < floor < 1.0:
        raise ConfigError(f"floor fraction must lie in (0, 1), got {floor}")

    seed = _integer(top["seed"], "seed")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")

    return StudyConfig(
        grid=grid,
        alpha=alpha,
        gamma=gamma,
        pme_coeff=pme_coeff,
        eps_values=eps_values,
        t_end=t_end,
        snapshot_times=snapshot_times,
        initial_datum=datum,
        support_threshold=support,
        floor_frac=floor,
        output_dir=str(top["output_dir"]),
        seed=seed,
    )


def _parse_datum(spec: dict) -> InitialDatum:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("initial_datum must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "tent":
        _reject_unknown(spec, {"kind", "mass"}, "initial_datum")
        mass = _number(spec.get("mass", 1.0), "initial_datum.mass")
        if not mass > 0.0:
            raise ConfigError(f"tent mass must be positive, got {mass}")
        return TentDatum(mass=mass)
    if kind == "barenblatt":
        _reject_unknown(spec, {"kind", "mass", "t0"}, "initial_datum")
        mass = _number(spec.get("mass", 1.0), "initial_datum.mass")
        t0 = _number(spec.get("t0", 0.5), "initial_datum.t0")
        if not mass > 0.0:
            raise ConfigError(f"barenblatt mass must be positive, got {mass}")
        if not t0 > 0.0:
            raise ConfigError(f"barenblatt t0 must be positive, got {t0}")
        return BarenblattDatum(mass=mass, t0=t0)
    if kind == "from_csv":
        _reject_unknown(spec, {"kind", "path"}, "initial_datum")
        if "path" not in spec:
            raise ConfigError("from_csv initial_datum needs a 'path'")
        return CsvDatum(path=str(spec["path"]))
    raise ConfigError(f"unknown initial_datum kind {kind!r}")


def load_config(path) -> StudyConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return parse_config(text)


def config_hash(config: StudyConfig) -> str:
    """Stable short hash of the fully resolved configuration; the output
    directory is not part of it."""
    doc = {**asdict(config), "initial_datum": repr(config.initial_datum)}
    del doc["output_dir"]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def tent_field(grid: Grid, mass: float) -> Field:
    """Tent profile mass * (1 - |x|)_+, carrying exactly `mass` in the limit."""
    x = grid.centers
    return Field(grid, mass * np.maximum(1.0 - np.abs(x), 0.0))


def build_initial_datum(config: StudyConfig) -> Field:
    datum = config.initial_datum
    if isinstance(datum, TentDatum):
        return tent_field(config.grid, datum.mass)
    if isinstance(datum, BarenblattDatum):
        bb = barenblatt_params(config.alpha, datum.mass, config.params().pme_coeff)
        return barenblatt_field(bb, datum.t0, config.grid)
    if isinstance(datum, CsvDatum):
        try:
            field = read_field_csv(datum.path)
        except (OSError, KeyError, ValueError) as e:
            raise ConfigError(f"cannot load initial datum {datum.path}: {e}") from None
        if field.grid != config.grid:
            raise ConfigError(
                f"CSV grid {field.grid} does not match the configured grid {config.grid}"
            )
        if float(field.values.min()) < 0.0:
            raise ConfigError(f"initial datum {datum.path} must be nonnegative")
        return field
    raise TypeError(f"unhandled initial datum {datum!r}")
