"""1D compressible flow with degenerate viscosity rho**alpha, solved in the
effective-velocity variables (rho, rho*v):

    d_t rho - (1/alpha) d_xx rho**alpha + d_x(rho v) = 0
    d_t(rho v) + d_x(rho u v) + eps * d_x rho**gamma = 0
    u = v - d_x phi(rho),  phi'(rho) = rho**(alpha-2)

The parabolic term in the continuity equation is the system's own
regularization, so no degenerate viscous stress has to be discretized near
vacuum.  Advective fluxes are first-order upwind, diffusion and the
pressure source are second-order central; the continuity diffusion reuses
the limit solver's flux routine so the eps = 0, v = 0 reduction is exact at
the bit level.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (CFL, Field, check_support_margin, write_csv, _active_span,
                   _check_margins, _derivative, _embed, _fmt, _landing_step, _log_steps,
                   _targets, _unchecked, _widen)
from .params import PhysParams
from .pme import diffusive_face_flux

__all__ = [
    "CnsState",
    "well_prepared_init",
    "recover_u",
    "advective_face_flux",
    "cfl_dt",
    "cns_step",
    "FlowRow",
    "advance_stack",
    "write_cns_snapshot",
]

DEFAULT_FLOOR_FRAC = 1e-10

# Cells a flow step computes past its state's active window on each side.
# Velocity u reaches one cell past the window, and the one-sided derivative
# stencils at the ends of the stepped span must see three vacuum cells to
# give the exact zero that the full grid's central ones do.
_HALO = 3


@dataclass(frozen=True)
class CnsState:
    """Density (kept above a small positive floor) and effective momentum
    rho*v at time t.  floored_mass accumulates the mass added whenever the
    update dips below the floor and is clipped back."""

    t: float
    rho: Field
    momentum_v: Field
    rho_floor: float
    floored_mass: float = 0.0
    # (CFL step, v, u) per PhysParams, evaluated at most once per state
    _cfl: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # active window [lo, hi): the cells that are not vacuum, i.e. do not
    # have rho == rho_floor and momentum 0
    _window: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rho.grid != self.momentum_v.grid:
            raise ValueError("rho and momentum_v must share a grid")
        if not self.rho_floor > 0.0:
            raise ValueError("rho_floor must be positive")
        if float(self.rho.values.min()) < self.rho_floor * (1.0 - 1e-12):
            raise ValueError("density below the vacuum floor")
        object.__setattr__(self, "_window", _cns_window(
            self.rho.values, self.momentum_v.values, self.rho_floor))

    @cached_property
    def step_span(self) -> tuple[int, int]:
        """Cells [s0, s1) the next step computes on: the window and a
        `_HALO`-cell halo."""
        return _widen(self._window, _HALO, self.rho.grid.n_cells)

    def cfl_dt(self, params: PhysParams) -> float:
        return cfl_dt(self, params)

    def step(self, params: PhysParams, dt: float) -> CnsState:
        return cns_step(self, params, dt)


def well_prepared_init(rho0: Field, floor_frac: float = DEFAULT_FLOOR_FRAC,
                       v0: Field | None = None) -> CnsState:
    """Floored density rho0 with effective velocity v0.

    The default v0 = 0, i.e. initial velocity u0 = -d_x phi(rho0), is the
    well-prepared state: the initial momentum then cancels the
    density-gradient part exactly, which makes the effective momentum stay
    small uniformly in eps.  The state does not depend on eps, so one state
    starts every flow of an eps sweep.
    """
    if float(rho0.values.min()) < 0.0:
        raise ValueError("initial density must be nonnegative")
    rho_max = float(rho0.values.max())
    if rho_max <= 0.0:
        raise ValueError("initial density is identically zero")
    floor = floor_frac * rho_max
    check_support_margin(rho0.values, rho0.grid, lo=floor, strict=True)
    rho = Field(rho0.grid, np.maximum(rho0.values, floor))
    if v0 is None:
        mom = np.zeros(rho0.grid.n_cells)
    else:
        if v0.grid != rho0.grid:
            raise ValueError("v0 must live on the same grid as rho0")
        mom = rho.values * v0.values
    return CnsState(t=0.0, rho=rho, momentum_v=Field(rho0.grid, mom),
                    rho_floor=floor)


def _cns_window(rho: np.ndarray, mom: np.ndarray, floor: float,
                s0: int = 0, s1: int | None = None) -> tuple[int, int]:
    """Active window of (rho, mom), scanning only cells [s0, s1); every other
    cell must be vacuum."""
    sub = slice(s0, s1)
    return _active_span((rho[sub] != floor) | (mom[sub] != 0.0), s0, rho.size)


def _velocity(rho: np.ndarray, mom: np.ndarray, floor: float) -> np.ndarray:
    return np.where(rho > floor, mom / rho, 0.0)


def _velocities(rho: np.ndarray, mom: np.ndarray, floor: float, dx: float, alpha: float,
                width: int | None = None, vacuum_ends: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Effective velocity v and velocity u = v - d_x phi(rho) of the rows of
    rho and mom, as `_derivative` takes them.  d_x phi(rho) is computed as
    d_x(rho**(alpha-1)) / (alpha-1): equivalent to rho**(alpha-2) d_x rho,
    but bounded where rho degenerates, because rho**(alpha-1) -> 0 there."""
    v = _velocity(rho, mom, floor)
    return v, v - _derivative(rho ** (alpha - 1.0), dx, width, vacuum_ends) / (alpha - 1.0)


def _cfl_step(rho_max: float, u_max: float, v_max: float, dx: float,
              params: PhysParams) -> float:
    """CFL * min(diffusive, advective, pressure-wave candidates) from the
    density maximum and the largest |u| and |v|, all Python floats."""
    diff_cand = dx * dx * min(params.alpha, 1.0 / CFL) / (
        2.0 * rho_max ** (params.alpha - 1.0))
    adv_cand = dx / max(u_max, v_max, 1e-14)
    wave = math.sqrt(params.epsilon * params.gamma
                     * rho_max ** (params.gamma - 1.0))
    wave_cand = dx / wave if wave > 0.0 else math.inf
    return CFL * min(diff_cand, adv_cand, wave_cand)


def _flow_update(rho: np.ndarray, mom: np.ndarray, v: np.ndarray, u: np.ndarray,
                 dx: float, dt_dx, dt_eps, alpha: float, gamma: float, width: int,
                 vacuum_ends: bool) -> tuple[np.ndarray, np.ndarray]:
    """New density and effective momentum, before flooring, as (rows, width)
    arrays, of rows of `width` cells laid end to end in the flat rho, mom, v
    and u; dt_dx = dt / dx and dt_eps = dt * epsilon are floats or (rows, 1)
    columns.  Each row comes out bit for bit as alone: a face where two rows
    meet stands for their walls, both +0.0, and is set so; with `vacuum_ends`
    each row's first and last three cells are vacuum, where its end stencils
    are +0.0."""
    # continuity: upwind transport of rho*v plus the density diffusion
    flux_rho = advective_face_flux(mom, v) + diffusive_face_flux(
        rho ** alpha, dx, 1.0 / alpha, np.empty(rho.size + 1))
    # effective momentum: upwind transport of rho*u*v, central pressure source
    flux_mom = advective_face_flux(mom * u, u)
    flux_rho[width:-1:width] = flux_mom[width:-1:width] = 0.0
    rho_new = rho.reshape(-1, width) - dt_dx * (flux_rho[1:] - flux_rho[:-1]).reshape(-1, width)
    mom_new = (mom.reshape(-1, width) - dt_dx * (flux_mom[1:] - flux_mom[:-1]).reshape(-1, width)
               - dt_eps * _derivative(rho ** gamma, dx, width, vacuum_ends).reshape(-1, width))
    return rho_new, mom_new


def _lift_to_floor(rho_new: np.ndarray, low: float, floor: float, t: float,
                   s0: int, grid) -> float:
    """Lift the cells of rho_new (cells s0 on of a grid row, whose minimum is
    `low`) that fell below floor back to it, in place, and return the mass
    that adds.  A density below -1000 * floor stops the run."""
    if low < -1000.0 * floor:
        raise RuntimeError(
            f"density went negative ({low}) at t={t}; the run is unstable"
        )
    if not low < floor:
        return 0.0
    deficit = _embed(np.maximum(floor - rho_new, 0.0), s0, grid.n_cells, 0.0)
    np.maximum(rho_new, floor, out=rho_new)
    return grid.dx * float(deficit.sum())


def recover_u(state: CnsState, params: PhysParams) -> Field:
    """Physical velocity u = v - d_x phi(rho)."""
    u = _cfl_memo(state, params)[2]
    return Field(state.rho.grid, _embed(u, state.step_span[0], state.rho.grid.n_cells, 0.0))


def advective_face_flux(q: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Upwind face flux of the cell quantity q along the last axis, with the
    upwind side chosen by the sign of the face-averaged velocity; zero at the
    domain faces."""
    flux = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    vface = 0.5 * (vel[..., :-1] + vel[..., 1:])
    flux[..., 1:-1] = np.where(vface >= 0.0, q[..., :-1], q[..., 1:])
    return flux


def _cfl_memo(state: CnsState, params: PhysParams,
              velocities: tuple[np.ndarray, np.ndarray] | None = None
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """(CFL step, v, u) of the state under params, evaluated at most once per
    state.  cns_step, the diagnostics, recover_u and the snapshot writer all
    read v and u from this memo; none of them may write to its arrays.
    `velocities`, the state's (v, u) when the caller already has them, are
    kept instead of evaluated again.

    v and u are kept on the stepped cells [s0, s1) only, as `_velocities`
    returns them; outside those cells both are exact zeros.  The stepped
    cells hold the density maximum, and all three maxima are order-free.
    """
    cached = state._cfl.get(params)
    if cached is None:
        grid = state.rho.grid
        s0, s1 = state.step_span
        rho = state.rho.values[s0:s1]
        v, u = velocities or _velocities(rho, state.momentum_v.values[s0:s1],
                                         state.rho_floor, grid.dx, params.alpha)
        dt = _cfl_step(float(rho.max()), float(np.abs(u).max()), float(np.abs(v).max()),
                       grid.dx, params)
        cached = state._cfl[params] = (dt, v, u)
    return cached


def cfl_dt(state: CnsState, params: PhysParams) -> float:
    """Step size 0.4 * min(diffusive, advective, pressure-wave candidates).

    The diffusive candidate is min(alpha, 1/CFL) times the limit equation's
    stability limit: the cap keeps the density update monotone for every alpha.
    """
    return _cfl_memo(state, params)[0]


def _flow_row_update(rho: np.ndarray, mom: np.ndarray, s0: int, s1: int, v: np.ndarray,
                     u: np.ndarray, dt: float, params: PhysParams, floor: float, t: float,
                     grid, vacuum_ends: bool) -> float:
    """One explicit update of size dt from time t of the density and
    effective-momentum grid rows `rho` and `mom`, in place on their cells
    [s0, s1), where v and u are given.  Returns the mass that lifting the
    density back to the floor adds."""
    rho_new, mom_new = _flow_update(rho[s0:s1], mom[s0:s1], v, u, grid.dx, dt / grid.dx,
                                    dt * params.epsilon, params.alpha, params.gamma,
                                    s1 - s0, vacuum_ends)
    floored = _lift_to_floor(rho_new, float(rho_new.min()), floor, t, s0, grid)
    if not (np.isfinite(rho_new).all() and np.isfinite(mom_new).all()):
        raise ValueError("field contains non-finite values")
    rho[s0:s1] = rho_new
    mom[s0:s1] = mom_new
    return floored


def cns_step(state: CnsState, params: PhysParams, dt: float) -> CnsState:
    """One explicit conservative update of both equations at the same time
    level.  Mass is conserved exactly by the flux form; re-flooring adds
    back a logged (tiny) amount.

    Only the stepped cells are computed.  Every flux and pressure gradient
    outside them is an exact zero, so the other cells keep their values bit
    for bit, and the new arrays are fresh full-size copies.  Its one-sided
    end stencils are computed in full, which checks the rows' vacuum ends.
    """
    dt_cfl, v, u = _cfl_memo(state, params)
    if dt > dt_cfl * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the CFL step")
    grid = state.rho.grid
    s0, s1 = state.step_span
    rho_full = state.rho.values.copy()
    mom_full = state.momentum_v.values.copy()
    floored = state.floored_mass + _flow_row_update(
        rho_full, mom_full, s0, s1, v, u, dt, params, state.rho_floor, state.t, grid, False)
    return _unchecked(CnsState, t=state.t + dt,
                      rho=_unchecked(Field, grid=grid, values=rho_full),
                      momentum_v=_unchecked(Field, grid=grid, values=mom_full),
                      rho_floor=state.rho_floor, floored_mass=floored, _cfl={},
                      _window=_cns_window(rho_full, mom_full, state.rho_floor, s0, s1))


class FlowRow:
    """A flow state as working grid rows that `grid.march_rows` steps in
    place with `_flow_row_update`: density `rho`, effective momentum `mom`,
    floored mass, active window, and the next step's cells `span`, their
    count `width`, whether the span is interior (`vacuum_ends`), v and u
    there, their density maximum `rho_max` and `cfl`."""

    __slots__ = ("params", "grid", "dx", "floor", "rho", "mom", "floored_mass", "window",
                 "span", "width", "vacuum_ends", "v", "u", "rho_max", "cfl")

    def __init__(self, state: CnsState, params: PhysParams) -> None:
        self.params, self.grid, self.dx = params, state.rho.grid, state.rho.grid.dx
        self.floor = state.rho_floor
        self.rho, self.mom = state.rho.values.copy(), state.momentum_v.values.copy()
        self.floored_mass = state.floored_mass
        self._ready(state._window)

    def _ready(self, window: tuple[int, int]) -> None:
        """Take `window` as the active window and ready the next step."""
        self.window = window
        self.span = s0, s1 = _widen(window, _HALO, self.rho.size)
        self.width, self.vacuum_ends = s1 - s0, s0 > 0 and s1 < self.rho.size
        rho = self.rho[s0:s1]
        self.v, self.u = _velocities(rho, self.mom[s0:s1], self.floor, self.dx, self.params.alpha,
                                     self.width, self.vacuum_ends)
        self.rho_max = float(rho.max())
        self.cfl = _cfl_step(self.rho_max, float(np.abs(self.u).max()),
                             float(np.abs(self.v).max()), self.dx, self.params)

    def update(self, dt: float, t: float) -> None:
        self.floored_mass += _flow_row_update(self.rho, self.mom, *self.span, self.v, self.u,
                                              dt, self.params, self.floor, t, self.grid,
                                              self.vacuum_ends)

    def settle(self) -> None:
        window = _cns_window(self.rho, self.mom, self.floor, *self.span)
        _check_margins(self.rho, window, self.grid)
        self._ready(window)

    def state(self, t: float) -> CnsState:
        """The checked state at time t, holding copies of the rows; its CFL
        memo keeps the row's v and u, so they are not evaluated again."""
        state = CnsState(t=t, rho=Field(self.grid, self.rho.copy()),
                         momentum_v=Field(self.grid, self.mom.copy()), rho_floor=self.floor,
                         floored_mass=self.floored_mass)
        _cfl_memo(state, self.params, (self.v, self.u))
        return state


@dataclass(slots=True)
class _StackRow:
    """What a row of `advance_stack` keeps of its own."""

    index: int
    params: PhysParams
    t: float
    target: int  # index of the next target
    floored_mass: float


def advance_stack(start: CnsState, row_params, snapshot_times):
    """March the flow from `start` under each PhysParams of `row_params` to
    the last snapshot time, as one (rows, cells) stack.  Returns per row
    its states at each distinct snapshot time, which are bit for bit those
    of `advance((start,), row_params[j], max(snapshot_times),
    snapshot_times)`.  The rows share alpha and gamma; epsilon is their own.

    Each row keeps its own time, CFL step, next target and floored mass.  A
    step computes every row on one span: the union of the rows' windows and
    a `_HALO`-cell halo.  Outside its own window and halo a row is vacuum, so
    every flux, stencil and maximum there is an exact zero or order-free,
    and those cells come out as they went in.  The rows' spans go end to end
    in one flat array each, for `_flow_update`: the face where two rows meet
    is set to their walls' +0.0, and on an interior span each row's three
    end cells are vacuum, where its end stencils are +0.0.  A row past its
    last target leaves the stack.  Every row passes the checks of `march`
    and `cns_step` and raises their errors; the first to fail stops it.
    """
    alpha, gamma = row_params[0].alpha, row_params[0].gamma
    if any(p.alpha != alpha or p.gamma != gamma for p in row_params):
        raise ValueError("the rows of a stack must share alpha and gamma")
    if not snapshot_times:
        raise ValueError("a stack marches to its last snapshot time; none given")
    targets = _targets(start.t, max(snapshot_times), snapshot_times)
    times = set(snapshot_times)
    grid, floor = start.rho.grid, start.rho_floor
    n, dx = grid.n_cells, grid.dx
    snaps = [[start] if start.t in times else [] for _ in row_params]
    first = bisect_right(targets, start.t)
    rows = [_StackRow(j, p, start.t, first, start.floored_mass)
            for j, p in enumerate(row_params)] if first < len(targets) else []
    rho_rows = np.tile(start.rho.values, (len(rows), 1))
    mom_rows = np.tile(start.momentum_v.values, (len(rows), 1))
    window = start._window
    while rows:
        s0, s1 = _widen(window, _HALO, n)
        width, vacuum_ends = s1 - s0, s0 > 0 and s1 < n
        rho, mom = rho_rows[:, s0:s1].reshape(-1), mom_rows[:, s0:s1].reshape(-1)
        v, u = _velocities(rho, mom, floor, dx, alpha, width, vacuum_ends)
        steps = []
        for row, rho_max, u_max, v_max in zip(rows, *(
                a.reshape(-1, width).max(axis=1).tolist() for a in (rho, np.abs(u), np.abs(v)))):
            dt, last = _landing_step(_cfl_step(rho_max, u_max, v_max, dx, row.params),
                                     row.t, targets[row.target])
            steps.append((dt, last))
        _log_steps(len(rows), len(rows) * width, len(rows) * n)
        scale = np.array([(dt / dx, dt * row.params.epsilon)
                          for row, (dt, _) in zip(rows, steps)])
        rho_new, mom_new = _flow_update(rho, mom, v, u, dx, scale[:, :1], scale[:, 1:],
                                        alpha, gamma, width, vacuum_ends)
        finite = np.isfinite(rho_new).all(axis=1) & np.isfinite(mom_new).all(axis=1)
        for row, rho_row, low, ok in zip(rows, rho_new, rho_new.min(axis=1).tolist(),
                                          finite.tolist()):
            row.floored_mass += _lift_to_floor(rho_row, low, floor, row.t, s0, grid)
            if not ok:
                raise ValueError("field contains non-finite values")
        rho_rows[:, s0:s1] = rho_new
        mom_rows[:, s0:s1] = mom_new
        # the union of the rows' windows; it stays a cover of the rows that go on
        window = _active_span(((rho_new != floor) | (mom_new != 0.0)).any(axis=0), s0, n)
        _check_margins(rho_rows, window, grid)

        for k, (row, (dt, last)) in enumerate(zip(rows, steps)):
            row.t = targets[row.target] if last else row.t + dt
            while row.target < len(targets) and targets[row.target] <= row.t:
                row.target += 1
            if row.t in times:
                snaps[row.index].append(CnsState(
                    t=row.t, rho=Field(grid, rho_rows[k].copy()),
                    momentum_v=Field(grid, mom_rows[k].copy()), rho_floor=floor,
                    floored_mass=row.floored_mass))
        keep = [row.target < len(targets) for row in rows]
        if not all(keep):
            rows = [row for row, kept in zip(rows, keep) if kept]
            rho_rows, mom_rows = rho_rows[keep], mom_rows[keep]
    return snaps


def write_cns_snapshot(state: CnsState, params: PhysParams, path,
                       extra_comments: tuple[str, ...] = ()) -> None:
    _, v, u = _cfl_memo(state, params)
    grid, s0 = state.rho.grid, state.step_span[0]
    write_csv(path, ("x", "rho", "v", "u"),
              zip(grid.centers, state.rho.values, _embed(v, s0, grid.n_cells, 0.0),
                  _embed(u, s0, grid.n_cells, 0.0)),
              (f"t={_fmt(state.t)}",
               f"alpha={_fmt(params.alpha)} gamma={_fmt(params.gamma)} "
               f"epsilon={_fmt(params.epsilon)} pme_coeff={_fmt(params.pme_coeff)}",
               *extra_comments))
