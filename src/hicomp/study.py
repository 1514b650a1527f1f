"""Orchestration: epsilon sweeps and grid-refinement cross-checks, log-log
slope fits, the support-growth and smoothing-decay study, and the
certificate sweep built on step-resolved solution paths.  Every march runs
through `grid.march_rows`; an eps sweep is one `cns.FlowStack`, a lane per eps."""

from __future__ import annotations

import math
import operator
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .analysis import (
    dual_certificate,
    default_clamp_bounds,
    error_pair,
    mass_outside_support,
)
from .cns import DEFAULT_FLOOR_FRAC, FlowStack, well_prepared_init
from .config import BarenblattDatum, ConfigError, StudyConfig, build_initial_datum, config_hash
from .grid import Field, Grid, derivative, integrate, lp_norm, march_rows
from .params import PhysParams
from .pme import LimitRow, PmeState, _support_range, advance_limit, interface_positions

__all__ = [
    "fit_loglog_slope",
    "RateStudyResult",
    "run_rate_study",
    "support_study",
    "WindowedPath",
    "run_paired_paths",
    "bump_test_function",
    "saturating_velocity",
    "run_certificates",
]


def fit_loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): (slope, intercept, r^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or ys.size != xs.size:
        raise ValueError(f"need at least 3 matched points, got {xs.size}/{ys.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs strictly positive inputs")
    lx = np.log(xs)
    ly = np.log(ys)
    if float(lx.max() - lx.min()) == 0.0:
        raise ValueError("degenerate fit: all x values equal")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# Rate study


@dataclass(frozen=True)
class RateStudyResult:
    alpha: float
    gamma: float
    t_snapshots: tuple[float, ...]
    eps_values: tuple[float, ...]
    errors_h1: np.ndarray          # (snapshots, eps)
    errors_l2: np.ndarray
    mass_outside: np.ndarray
    slope_h1: float
    slope_l2: float
    slope_mass: float
    r2_h1: float
    r2_l2: float
    r2_mass: float
    slope_support_growth: float
    grid_convergence_ratio: float
    mass_convergence_ratio: float
    gate_passed: bool

    def to_dict(self) -> dict:
        """Every field in declaration order, tuples and arrays as lists."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            is_seq = isinstance(value, (tuple, np.ndarray))
            doc[f.name] = np.asarray(value).tolist() if is_seq else value
        return doc


def _restrict_pairwise(field: Field) -> Field:
    """Exact finite-volume restriction to the grid with half the cells."""
    grid = field.grid
    if grid.n_cells % 2 != 0:
        raise ValueError("pairwise restriction needs an even cell count")
    coarse = Grid(grid.x_min, grid.x_max, grid.n_cells // 2)
    return Field(coarse, field.values.reshape(-1, 2).mean(axis=1))


def _rate_errors(rho0: Field, config: StudyConfig):
    """Error matrices (snapshots x eps) and reference interfaces of one sweep."""
    # one prepared state starts the reference run and every eps flow
    start = well_prepared_init(rho0, config.floor_frac)

    # single reference run of the limit equation, shared by every eps row;
    # every march stops at the last snapshot: nothing later is read
    pme_states = advance_limit(PmeState(t=0.0, rho=start.rho), config.params(0.0),
                               config.snapshot_times)
    interfaces = [interface_positions(s, config.support_threshold)
                  for s in pme_states]

    shape = (len(config.snapshot_times), len(config.eps_values))
    errors_h1 = np.zeros(shape)
    errors_l2 = np.zeros(shape)
    mass_out = np.zeros(shape)
    # every eps flow in one stack; each lane keeps its start and landed snapshots
    times = set(config.snapshot_times)
    stack = FlowStack(start, [config.params(eps) for eps in config.eps_values])
    lane_snaps = [[start] if start.t in times else [] for _ in config.eps_values]
    for ts, dts in march_rows((stack,), start.t, max(times), times):
        for k, (t, dt) in enumerate(zip(ts, dts)):
            if dt is not None and t in times:
                lane_snaps[k].append(stack.state(k, t))
    for j, snaps in enumerate(lane_snaps):
        for i, snap in enumerate(snaps):
            errors_h1[i, j], errors_l2[i, j] = error_pair(snap.rho, pme_states[i].rho)
            mass_out[i, j] = mass_outside_support(snap.rho, interfaces[i],
                                                  floor=start.rho_floor)
    return errors_h1, errors_l2, mass_out, interfaces


def _check_limit_coeff(config: StudyConfig) -> None:
    """Reject a limit equation whose diffusion differs from the flow's own
    continuity diffusion, 1/alpha: the flow does not converge to it."""
    if abs(config.params().pme_coeff * config.alpha - 1.0) > 1e-12:
        raise ConfigError("comparing the flow with its limit needs the default "
                          "pme_coeff = 1/alpha")


def run_rate_study(config: StudyConfig) -> RateStudyResult:
    """Evolve the limit equation once and the flow per epsilon from the same
    prepared data, measure the error decay, and cross-check the measurement
    against a halved grid."""
    if len(config.snapshot_times) == 0:
        raise ConfigError("rate study needs at least one snapshot time")
    if len(config.eps_values) < 3:
        raise ConfigError("rate study needs at least 3 eps_values for a slope fit, "
                          f"got {len(config.eps_values)}")
    eps = tuple(sorted(set(config.eps_values), reverse=True))
    if len(eps) != len(config.eps_values):
        raise ConfigError("eps_values must be distinct")
    if any(e <= 0.0 for e in eps):
        raise ConfigError("rate study eps values must be positive")
    _check_limit_coeff(config)
    if config.grid.n_cells % 2 != 0:
        raise ConfigError("rate study cross-checks on the grid with half the cells: "
                          f"n_cells must be even, got {config.grid.n_cells}")
    if config.alpha > 1.5:
        warnings.warn(
            f"alpha={config.alpha} exceeds 3/2: the L2 column is measured "
            "outside the hypothesis range of its rate bound", stacklevel=2)
    config = replace(config, eps_values=eps)

    rho0 = build_initial_datum(config)
    errors_h1, errors_l2, mass_out, interfaces = _rate_errors(rho0, config)
    if not (errors_h1[-1].all() and errors_l2[-1].all()):
        raise ConfigError("every error at the last snapshot is 0: the flow equals its limit "
                          "there, so there is no rate to fit; march longer or refine the grid")

    slope_h1, _, r2_h1 = fit_loglog_slope(eps, errors_h1[-1])
    slope_l2, _, r2_l2 = fit_loglog_slope(eps, errors_l2[-1])
    # no mass leaked past the limit's interface by some eps: no mass rate
    leaked = bool(mass_out[-1].all())
    slope_mass, _, r2_mass = (fit_loglog_slope(eps, mass_out[-1]) if leaked
                              else (math.nan,) * 3)

    # support growth of the reference run across the snapshots (not gated;
    # barely meaningful for data with a waiting time)
    try:
        slope_support, _, _ = fit_loglog_slope(config.snapshot_times,
                                               [r for _, r in interfaces])
    except ValueError:
        slope_support = math.nan

    coarse_cfg = replace(config, grid=Grid(config.grid.x_min, config.grid.x_max,
                                           config.grid.n_cells // 2))
    h1_c, l2_c, mass_c, _ = _rate_errors(_restrict_pairwise(rho0), coarse_cfg)
    # the gate covers the norm errors the slope assertions rest on; the leaked
    # mass is quantized by the interface cell and is reported but not gated
    fine = np.concatenate([errors_h1[-1], errors_l2[-1]])
    coarse = np.concatenate([h1_c[-1], l2_c[-1]])
    ratio = float(np.max(np.abs(coarse - fine) / fine))
    mass_ratio = (float(np.max(np.abs(mass_c[-1] - mass_out[-1]) / mass_out[-1])) if leaked
                  else math.nan)
    gate = ratio <= 0.1
    if not gate:
        warnings.warn(
            f"grid convergence ratio {ratio:.3g} exceeds 0.1; "
            "slope measurements are not grid-converged", stacklevel=2)

    return RateStudyResult(
        alpha=config.alpha, gamma=config.gamma,
        t_snapshots=config.snapshot_times, eps_values=eps,
        errors_h1=errors_h1, errors_l2=errors_l2, mass_outside=mass_out,
        slope_h1=slope_h1, slope_l2=slope_l2, slope_mass=slope_mass,
        r2_h1=r2_h1, r2_l2=r2_l2, r2_mass=r2_mass,
        slope_support_growth=slope_support,
        grid_convergence_ratio=ratio, mass_convergence_ratio=mass_ratio,
        gate_passed=gate,
    )


# ---------------------------------------------------------------------------
# Support growth and smoothing decay


def support_study(config: StudyConfig) -> tuple[float, float, float, float]:
    """Fitted exponents of the right-interface growth and of the peak decay
    max rho(t), from one march of the limit equation over 16 geometric sample
    times: (growth, growth_r2, decay, decay_r2).

    Self-similar data are sampled from t0 and fitted directly.  Generic data
    may wait before their edge moves, so they are sampled geometrically in
    t - t_w once the right edge first moves at t_w; the growth fit subtracts
    the initial edge position and uses only the late-time tail.
    """
    rho0 = build_initial_datum(config)
    barenblatt = isinstance(config.initial_datum, BarenblattDatum)
    t0 = config.initial_datum.t0 if barenblatt else 0.0
    t_start = max(t0, 1e-6)
    if not config.t_end > t_start:
        raise ConfigError(f"t_end={config.t_end} must exceed the start time {t_start}")
    params = config.params(0.0)
    state = PmeState(t=t0, rho=rho0)
    left0, right0 = interface_positions(state, config.support_threshold)
    if barenblatt:
        sample_ts = np.geomspace(t_start, config.t_end, 16)
    else:
        row, t_w = LimitRow(state, params), t0
        last0 = _support_range(row.rho, config.support_threshold)[1]
        for (t_w,), _ in march_rows((row,), t0, config.t_end):
            if _support_range(row.rho, config.support_threshold)[1] != last0:
                break
        if not config.t_end > t_w:
            raise ConfigError("insufficient support growth: the right edge has not moved "
                              f"by t_end={config.t_end}; run longer")
        state = row.state(t_w)
        sample_ts = t_w + np.geomspace(0.01 * (config.t_end - t_w), config.t_end - t_w, 16)
    sample_ts = tuple(float(t) for t in sample_ts)
    snaps = advance_limit(state, params, sample_ts)
    ts = np.asarray(sample_ts)
    edges = np.asarray([interface_positions(state, config.support_threshold)
                        for state in snaps])
    srs = edges[:, 1]
    width = srs[-1] - edges[-1, 0]
    peaks = np.asarray([float(state.rho.values.max()) for state in snaps])
    if width < 2.0 * (right0 - left0):
        raise ConfigError(f"insufficient support growth: width {right0 - left0:.4g} -> "
                          f"{width:.4g}; run longer")
    if barenblatt:
        growth, _, growth_r2 = fit_loglog_slope(ts, srs)
    else:
        grown = srs - right0
        keep = grown > 0.25 * grown[-1]
        # a tail that holds the edge at fewer than 3 places measures a jump, not growth
        if np.unique(grown[keep]).size < 3:
            raise ConfigError("insufficient growth for a tail fit; run longer")
        growth, _, growth_r2 = fit_loglog_slope(ts[keep], grown[keep])
    decay, _, decay_r2 = fit_loglog_slope(ts, peaks)
    return growth, growth_r2, decay, decay_r2


# ---------------------------------------------------------------------------
# Step-resolved paired paths and the certificate sweep


class WindowedPath:
    """Read-only step-resolved path of one quantity on an n-cell grid.  Each
    row is stored as (lo, values, vacuum): its first active cell, a copy of
    its values on the active window [lo, lo + values.size), and the vacuum
    value that every other cell of the row holds.

    It offers what the backward dual pass reads: `shape`, `itemsize` and
    `window(k)`, which returns row k's stored triple.  `nbytes` counts the
    stored window values.  The store hands out its own arrays, so it makes
    them read-only.
    """

    itemsize = np.dtype(float).itemsize

    def __init__(self, n_cells: int, rows: list[tuple[int, np.ndarray, float]]) -> None:
        self._n_cells = n_cells
        self._rows = rows
        self.nbytes = 0
        for _, values, _ in rows:
            values.flags.writeable = False
            self.nbytes += values.nbytes

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), self._n_cells

    def window(self, k: int) -> tuple[int, np.ndarray, float]:
        """Row k as stored: (lo, values, vacuum).  The values are the store's
        own read-only array, not a copy."""
        return self._rows[operator.index(k)]


def run_paired_paths(rho0: Field, params: PhysParams, t_end: float,
                     floor_frac: float = DEFAULT_FLOOR_FRAC, v0: Field | None = None):
    """Advance the flow and the limit equation with one shared dt sequence,
    recording every accepted step: one `march_rows` of a one-lane `FlowStack`
    and a `LimitRow`, each step copying the three rows' active windows.

    Returns (times, rho_eps_path, rho_tilde_path, momentum_path, rho_floor):
    `times` is an ndarray of the steps+1 time stamps, and each path is a
    WindowedPath of shape (steps+1, n_cells).  A row stores only its state's
    active window; outside it the flow holds rho_floor and zero momentum,
    and the limit equation its boundary value rho[0].  Memory grows with the
    step count times the window width, so use moderate grids.
    """
    cns = well_prepared_init(rho0, floor_frac, v0)
    flow, limit = FlowStack(cns, [params]), LimitRow(PmeState(t=0.0, rho=cns.rho), params)
    times, rho_eps, momentum, rho_tilde = [], [], [], []
    for (t,), _ in chain([((cns.t,), None)], march_rows((flow, limit), cns.t, t_end)):
        times.append(t)
        lo, hi = flow.window
        rho_eps.append((lo, flow.rho[0, lo:hi].copy(), flow.floor))
        momentum.append((lo, flow.mom[0, lo:hi].copy(), 0.0))
        lo, hi = limit.window
        rho_tilde.append((lo, limit.rho[lo:hi].copy(), float(limit.rho[0])))
    n_cells = rho0.grid.n_cells
    return (np.asarray(times), WindowedPath(n_cells, rho_eps),
            WindowedPath(n_cells, rho_tilde), WindowedPath(n_cells, momentum),
            flow.floor)


def bump_test_function(grid: Grid, center: float, width: float) -> Field:
    """Compactly supported C^1 bump normalized to a unit discrete gradient."""
    x = grid.centers
    inside = np.abs(x - center) <= width
    theta = np.where(inside, np.cos(np.pi * (x - center) / (2.0 * width)) ** 2, 0.0)
    field = Field(grid, theta)
    scale = lp_norm(derivative(field), 2)
    if scale <= 0.0:
        raise ValueError("bump is not resolved on this grid")
    return Field(grid, theta / scale)


class _Unresolved(ValueError):
    """The grid resolves too little of the density for a velocity profile."""


def saturating_velocity(rho0: Field, params: PhysParams,
                        floor: float = 0.0) -> Field:
    """Initial effective velocity sized to the entropy ceiling
    sqrt(eps/(gamma-1)) * (integral of rho0**gamma)**(1/2).

    Exactly prepared data relax faster than the theoretical envelope; this
    profile is the matching perturbation that keeps the sweep on it.
    """
    target = math.sqrt(params.epsilon / (params.gamma - 1.0)) \
        * math.sqrt(integrate(Field(rho0.grid, rho0.values ** params.gamma)))
    vals = rho0.values
    idx = np.nonzero(vals > floor)[0]
    if idx.size < 4:
        raise _Unresolved("density support too small for a velocity profile")
    x = rho0.grid.centers
    left, right = x[idx[0]], x[idx[-1]]
    center, half = 0.5 * (left + right), 0.5 * (right - left)
    g = np.where((x >= left) & (x <= right),
                 np.sin(np.pi * (x - center) / half), 0.0)
    weight = math.sqrt(integrate(Field(rho0.grid, vals * g * g)))
    if weight <= 0.0:
        raise _Unresolved("velocity profile has zero weighted norm")
    return Field(rho0.grid, (target / weight) * g)


THETA_SPECS = ((0.0, 2.0), (1.0, 1.0))  # (center, width) of each certificate test bump


def run_certificates(config: StudyConfig,
                     on_eps: Callable[[float, int, int, float, float], None] | None = None
                     ) -> list[dict]:
    """Certificate sweep: for each epsilon, evolve step-resolved paired paths
    from entropy-ceiling-perturbed data and certify the terminal pairing for
    each THETA_SPECS test bump, at the default clamp and at one ten times
    wider on both sides.  One backward pass per epsilon serves all of them.

    `on_eps`, when given, is called after each epsilon as
    on_eps(eps, steps, path_bytes, forward_s, backward_s).
    """
    if not config.eps_values:
        raise ConfigError("certify needs at least one value in eps_values")
    if any(eps <= 0.0 for eps in config.eps_values):
        raise ConfigError("certificates need positive epsilon")
    if len(set(config.eps_values)) != len(config.eps_values):
        raise ConfigError("eps_values must be distinct")
    _check_limit_coeff(config)
    rho0 = build_initial_datum(config)
    rho_max = float(rho0.values.max())
    floor = config.floor_frac * rho_max
    chash = config_hash(config)
    # the clamp window depends on alpha and rho0 only, so every eps shares it
    eta0, cap0 = default_clamp_bounds(rho_max, config.params())
    windows = ((eta0, cap0), (eta0 / 10.0, cap0 * 10.0))
    thetas = [bump_test_function(config.grid, center, width) for center, width in THETA_SPECS]
    tests = [(theta, eta, cap) for theta in thetas for eta, cap in windows]
    specs = [spec for spec in THETA_SPECS for _ in windows]
    # every eps's start velocity before any march, so a grid too coarse to
    # resolve one is rejected as a config error; any other failure, such as
    # a datum whose rho0**gamma overflows, stays a runtime failure
    try:
        velocities = [saturating_velocity(rho0, config.params(eps), floor=floor)
                      for eps in config.eps_values]
    except _Unresolved as e:
        raise ConfigError(f"{e} on n_cells={config.grid.n_cells}; "
                          "certify needs a finer grid") from None
    out: list[dict] = []
    for eps, v0 in zip(config.eps_values, velocities):
        params = config.params(eps)
        start = time.perf_counter()
        times, *paths, rho_floor = run_paired_paths(
            rho0, params, config.t_end, config.floor_frac, v0=v0)
        marched = time.perf_counter()
        certs = dual_certificate(times, *paths, tests, params, rho_floor=rho_floor)
        backward_s = time.perf_counter() - marched
        path_bytes = sum(path.nbytes for path in paths)
        del paths  # so the next eps's march does not hold two sets of paths
        if on_eps is not None:
            on_eps(eps, times.size - 1, path_bytes, marched - start, backward_s)
        for cert, (center, width) in zip(certs, specs):
            entry = cert.to_dict()
            entry.update({
                "alpha": params.alpha,
                "gamma": params.gamma,
                "epsilon": eps,
                "pme_coeff": params.pme_coeff,
                "rho_floor": rho_floor,
                "t_end": config.t_end,
                "theta_center": center,
                "theta_width": width,
                "config_hash": chash,
            })
            out.append(entry)
    return out
