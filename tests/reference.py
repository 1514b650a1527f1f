"""The independent reference that the tests compare hicomp's marches with:
a time-stepping loop over immutable solver states.

`march` steps `cns.CnsState`s and `pme.PmeState`s on one shared dt
sequence and `advance` keeps its snapshots.  Each state is stepped on a
fresh copy of its arrays, through the update kernels that the working rows
run (`cns._flow_update` and `cns._lift_to_floor`, composed for one grid row
by `flow_row_update`, and `pme._limit_update`), but by its own loop, with
its own targets, landing, step spans, CFL evaluation and stability limit,
and checked with the same safety margin after each step.  `cns_step` and
`pme_step` take one step of one state after checking dt against its
stability bound;
`diagnostics` is the per-state form of what `simulate` records per step.
`constant_field`, `field_from_function` and `diffusive_face_flux` build
the tests' data and face fluxes.
"""

import math
from dataclasses import replace

import numpy as np

from hicomp.analysis import DiagnosticsRecord, _span_diagnostics
from hicomp.cns import (_HALO, CnsState, _cfl_step, _cns_window, _flow_update, _lift_to_floor,
                        _velocities)
from hicomp.grid import _STEP_LOGS, CFL, Field, _check_margins, _embed, _widen
from hicomp.params import PhysParams
from hicomp.pme import PmeState, _limit_update, _pme_window


def constant_field(grid, value: float) -> Field:
    return Field(grid, np.full(grid.n_cells, float(value)))


def field_from_function(grid, fn) -> Field:
    return Field(grid, np.asarray(fn(grid.centers), dtype=float))


def diffusive_face_flux(w: np.ndarray, dx: float, coeff: float) -> np.ndarray:
    """Face fluxes -coeff * dw/dx along the last axis of w, as a fresh array,
    with zero flux at the two domain faces."""
    flux = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    flux[..., 1:-1] = -coeff * (w[..., 1:] - w[..., :-1]) / dx
    return flux


def _unchecked(cls, **attrs):
    """An instance of the frozen dataclass `cls` holding `attrs`, built
    without running its __post_init__ checks.  A step uses it for the arrays
    it has already checked on the cells it changed; every other cell was
    checked when its state was built."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


def step_span(state) -> tuple[int, int]:
    """Cells [s0, s1) a step of the state computes on: its window and a
    halo, `cns._HALO` cells for a flow state and one cell, all a diffusive
    flux out of the window reaches, for a limit state."""
    halo = _HALO if isinstance(state, CnsState) else 1
    return _widen(state._window, halo, state.rho.grid.n_cells)


def velocities(state: CnsState, params: PhysParams) -> tuple[float, np.ndarray, np.ndarray]:
    """(CFL step, v, u) of a flow state, v and u on its step span; outside
    the span both are exact zeros.  The span holds the density maximum."""
    s0, s1 = step_span(state)
    rho, dx = state.rho.values[s0:s1], state.rho.grid.dx
    v, u = _velocities(rho, state.momentum_v.values[s0:s1], state.rho_floor, dx, params.alpha)
    dt = _cfl_step(float(rho.max()), max(float(np.abs(u).max()), float(np.abs(v).max())), dx,
                   params)
    return dt, v, u


def recover_u(state: CnsState, params: PhysParams) -> Field:
    """Physical velocity u = v - d_x phi(rho)."""
    grid = state.rho.grid
    return Field(grid, _embed(velocities(state, params)[2], step_span(state)[0],
                              grid.n_cells, 0.0))


def _limit_of(rho_max: float, dx: float, params: PhysParams) -> float:
    """Largest stable explicit step of a density whose maximum is rho_max,
    dx^2 / (2 c alpha rho_max^(alpha-1))."""
    return math.inf if rho_max <= 0.0 else dx * dx / (
        2.0 * params.pme_coeff * params.alpha * rho_max ** (params.alpha - 1.0))


def stability_limit(state: PmeState, params: PhysParams) -> float:
    """Largest stable explicit step, dx^2 / (2 c alpha max(rho)^(alpha-1))."""
    s0, s1 = step_span(state)
    return _limit_of(float(state.rho.values[s0:s1].max()), state.rho.grid.dx, params)


def cfl_dt(state, params: PhysParams) -> float:
    """The step a march takes for the state: for a flow state 0.4 * min(the
    diffusive, advective and pressure-wave candidates), for a limit state
    0.4 * its stability limit."""
    if isinstance(state, CnsState):
        return velocities(state, params)[0]
    return CFL * stability_limit(state, params)


def flow_row_update(rho: np.ndarray, mom: np.ndarray, s0: int, s1: int, v: np.ndarray,
                    u: np.ndarray, dt: float, params: PhysParams, floor: float, t: float,
                    grid, vacuum_ends: bool) -> float:
    """One explicit update of size dt from time t of the density and
    effective-momentum grid rows `rho` and `mom`, in place on their cells
    [s0, s1), where v and u are given.  Returns the mass that lifting the
    density back to the floor adds."""
    rho_new, mom_new = _flow_update(np.array((rho[s0:s1], mom[s0:s1])), np.array((v, u)),
                                    grid.dx, dt / grid.dx, dt * params.epsilon, params.alpha,
                                    params.gamma, s1 - s0, vacuum_ends).reshape(2, -1)
    floored = _lift_to_floor(rho_new, float(rho_new.min()), floor, t, s0, grid)
    if not (np.isfinite(rho_new).all() and np.isfinite(mom_new).all()):
        raise ValueError("field contains non-finite values")
    rho[s0:s1] = rho_new
    mom[s0:s1] = mom_new
    return floored


def _cns_step(state, params, dt, dt_cfl, v, u) -> CnsState:
    if dt > dt_cfl * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the CFL step")
    grid = state.rho.grid
    s0, s1 = step_span(state)
    rho, mom = state.rho.values.copy(), state.momentum_v.values.copy()
    floored = state.floored_mass + flow_row_update(
        rho, mom, s0, s1, v, u, dt, params, state.rho_floor, state.t, grid, False)
    return _unchecked(CnsState, t=state.t + dt, rho=_unchecked(Field, grid=grid, values=rho),
                      momentum_v=_unchecked(Field, grid=grid, values=mom),
                      rho_floor=state.rho_floor, floored_mass=floored,
                      _window=_cns_window(rho, mom, state.rho_floor, s0, s1))


def cns_step(state: CnsState, params: PhysParams, dt: float) -> CnsState:
    """One explicit update of the flow state, dt at most its CFL step.  Its
    one-sided end stencils are computed in full, which checks the rows'
    vacuum ends."""
    return _cns_step(state, params, dt, *velocities(state, params))


def _pme_step(state, params, dt, limit) -> PmeState:
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the stability limit {limit}")
    grid = state.rho.grid
    s0, s1 = step_span(state)
    rho = state.rho.values.copy()
    clipped = _limit_update(rho, s0, s1, dt, grid.dx, params, state.clipped_mass,
                            np.empty(s1 - s0 + 1))
    return _unchecked(PmeState, t=state.t + dt, rho=_unchecked(Field, grid=grid, values=rho),
                      clipped_mass=clipped, _window=_pme_window(rho, s0, s1))


def pme_step(state: PmeState, params: PhysParams, dt: float) -> PmeState:
    """One explicit update of the limit state, dt at most its stability limit."""
    return _pme_step(state, params, dt, stability_limit(state, params))


def _prepared(state, params):
    """(The state's CFL step, a function stepping it by a dt at most that),
    evaluating the state's velocities or limit once for both."""
    if isinstance(state, CnsState):
        dt_cfl, v, u = velocities(state, params)
        return dt_cfl, lambda dt: _cns_step(state, params, dt, dt_cfl, v, u)
    limit = stability_limit(state, params)
    return CFL * limit, lambda dt: _pme_step(state, params, dt, limit)


def _targets(t: float, t_end: float, snapshot_times) -> list[float]:
    """The times a march from t lands on, in order: each distinct snapshot
    time and t_end."""
    if t_end < t:
        raise ValueError(f"t_end={t_end} is before state.t={t}")
    targets = sorted(set(snapshot_times) | {t_end})
    if targets[0] < t or targets[-1] > t_end:
        raise ValueError("snapshot times must lie within [state.t, t_end]")
    return targets


def _landing_step(dt: float, t: float, target: float) -> tuple[float, bool]:
    """The CFL step dt from t cut back to reach at most `target`, and whether
    it reaches it (the stepped states' time is then set to the target)."""
    if not dt > 0.0:  # also catches NaN; a zero step would never end
        raise RuntimeError(f"CFL step {dt} at t={t} is not positive")
    remaining = target - t
    return min(dt, remaining), dt >= remaining


def march(states, params: PhysParams, t_end: float, snapshot_times=()):
    """March states to t_end on one shared dt sequence, the smallest CFL step
    of all states, so paired runs keep the discrete comparison and L1
    contraction, landing exactly on each snapshot time and on t_end.
    After each step every support must stay clear of the outer margin; then
    (states, dt) is yielded.  The steps and stepped cells are logged as
    `grid.march_rows` logs them.  A generator: a caller that stops iterating
    stops the march."""
    t = states[0].t
    if any(s.t != t for s in states):
        raise ValueError("states must share a time")
    cells = sum(s.rho.grid.n_cells for s in states)
    for target in _targets(t, t_end, snapshot_times):
        while t < target:
            prepared = [_prepared(s, params) for s in states]
            dt, last = _landing_step(min(cfl for cfl, _ in prepared), t, target)
            for log in _STEP_LOGS:
                log.steps += 1
                log.stepped_cells += sum(s1 - s0 for s0, s1 in map(step_span, states))
                log.grid_cells += cells
            states = tuple(step(dt) for _, step in prepared)
            if last:
                states = tuple(replace(s, t=target) for s in states)
            t = states[0].t
            for s in states:
                _check_margins(s.rho.values, s._window, s.rho.grid)
            yield states, dt


def advance(states, params: PhysParams, t_end: float, snapshot_times=()):
    """`march` to t_end.  Returns (states at t_end, a list of states per
    distinct snapshot time): the start states if their time is a snapshot
    time, then every marched states whose time is one."""
    times = set(snapshot_times)
    snapshots = [states] if states[0].t in times else []
    for states, _ in march(states, params, t_end, snapshot_times):
        if states[0].t in times:
            snapshots.append(states)
    return states, snapshots


def diagnostics(state: CnsState, params: PhysParams) -> DiagnosticsRecord:
    """`analysis._span_diagnostics` of a flow state."""
    _, v, u = velocities(state, params)
    s0, s1 = step_span(state)
    return _span_diagnostics(state.t, state.rho.values, (s0, s1), v, u,
                             float(state.rho.values[s0:s1].max()), state.rho_floor,
                             state.rho.grid.dx, params)
