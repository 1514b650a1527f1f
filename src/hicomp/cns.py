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
the bit level.  `grid.march_rows` steps a `FlowRow`, one flow in one lane,
or a `FlowStack`, an eps sweep's flows in one lane each on its own clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (CFL, Field, check_support_margin, write_csv, _active_span,
                   _check_margins, _derivative, _embed, _fmt, _max, _widen)
from .params import PhysParams
from .pme import diffusive_face_flux

__all__ = [
    "CnsState",
    "well_prepared_init",
    "advective_face_flux",
    "FlowRow",
    "FlowStack",
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
    density maximum and the largest |u| and |v|, all Python floats.  The
    diffusive candidate is min(alpha, 1/CFL) times the limit equation's
    stability limit: the cap keeps the density update monotone for every
    alpha."""
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


def advective_face_flux(q: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Upwind face flux of the cell quantity q along the last axis, with the
    upwind side chosen by the sign of the face-averaged velocity; zero at the
    domain faces."""
    flux = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    vface = 0.5 * (vel[..., :-1] + vel[..., 1:])
    flux[..., 1:-1] = np.where(vface >= 0.0, q[..., :-1], q[..., 1:])
    return flux


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


class FlowRow:
    """A flow state as working grid rows of one lane that `grid.march_rows`
    steps in place with `_flow_row_update`: density `rho`, effective
    momentum `mom`, floored mass, active window, and the next step's cells
    `span`, their count `width`, whether the span is interior
    (`vacuum_ends`), v and u there, their density maximum `rho_max` and the
    lane's candidate step in `cfl`, readied after every step, its last too."""

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
        self.rho_max = float(_max(rho))
        self.cfl = [_cfl_step(self.rho_max, float(_max(np.abs(self.u))),
                              float(_max(np.abs(self.v))), self.dx, self.params)]

    def update(self, dts: list, ts: list) -> None:
        self.floored_mass += _flow_row_update(self.rho, self.mom, *self.span, self.v, self.u,
                                              dts[0], self.params, self.floor, ts[0], self.grid,
                                              self.vacuum_ends)

    def settle(self, live: list) -> None:
        window = _cns_window(self.rho, self.mom, self.floor, *self.span)
        _check_margins(self.rho, window, self.grid)
        self._ready(window)

    def state(self, t: float) -> CnsState:
        """The checked state at time t, holding copies of the rows."""
        return CnsState(t=t, rho=Field(self.grid, self.rho.copy()),
                        momentum_v=Field(self.grid, self.mom.copy()), rho_floor=self.floor,
                        floored_mass=self.floored_mass)


class FlowStack:
    """The flows from one start under each PhysParams of `lane_params` (one
    alpha and gamma, each its own epsilon) as (lanes, cells) working grid
    rows that `grid.march_rows` steps in place, one lane each, with
    `_flow_update`: densities `rho`, effective momenta `mom`, floored masses,
    the lanes that step next (`live`), the union of their windows, and the
    next step's `span`, `width`, `vacuum_ends` and per-lane `cfl`.  Lane k's
    `state(k, t)` is bit for bit that of its flow marched alone as a `FlowRow`.

    A step computes every live lane on the union of their windows and a
    `_HALO`-cell halo, where a lane is vacuum outside its own window and halo:
    every flux, stencil and maximum there is an exact zero or order-free.
    The spans go end to end in one flat array each; the face where two lanes
    meet is set to their walls' +0.0, and on an interior span each lane's
    three end cells are vacuum, where its end stencils are +0.0.  A lane that
    stops keeps its rows.  Each lane raises the errors of a march of its own.
    """

    __slots__ = ("params", "alpha", "gamma", "grid", "dx", "floor", "rho", "mom",
                 "floored_mass", "live", "rows", "window", "span", "width", "vacuum_ends",
                 "flat", "cfl")

    def __init__(self, start: CnsState, lane_params) -> None:
        self.alpha, self.gamma = lane_params[0].alpha, lane_params[0].gamma
        if any(p.alpha != self.alpha or p.gamma != self.gamma for p in lane_params):
            raise ValueError("the lanes of a stack must share alpha and gamma")
        self.params, self.grid, self.dx = lane_params, start.rho.grid, start.rho.grid.dx
        self.floor, lanes = start.rho_floor, len(lane_params)
        self.rho = np.tile(start.rho.values, (lanes, 1))
        self.mom = np.tile(start.momentum_v.values, (lanes, 1))
        self.floored_mass = [start.floored_mass] * lanes
        self.cfl = [math.inf] * lanes
        self._ready(list(range(lanes)), start._window)

    def _ready(self, live: list, window: tuple[int, int]) -> None:
        """Take `live` as the lanes that step next and `window` as the union
        of their windows, and ready their next step."""
        n = self.grid.n_cells
        self.live, self.window = live, window
        # the live lanes' rows, a slice (no gather) while every lane is live
        self.rows = slice(None) if len(live) == len(self.params) else live
        s0, s1 = self.span = _widen(window, _HALO, n)
        self.width, self.vacuum_ends = s1 - s0, s0 > 0 and s1 < n
        rho = self.rho[self.rows, s0:s1].reshape(-1)
        mom = self.mom[self.rows, s0:s1].reshape(-1)
        v, u = _velocities(rho, mom, self.floor, self.dx, self.alpha, self.width,
                           self.vacuum_ends)
        self.flat = rho, mom, v, u
        maxima = (a.reshape(-1, self.width).max(axis=1).tolist() for a in (rho, abs(u), abs(v)))
        for k, rho_max, u_max, v_max in zip(live, *maxima):
            self.cfl[k] = _cfl_step(rho_max, u_max, v_max, self.dx, self.params[k])

    def update(self, dts: list, ts: list) -> None:
        s0, s1 = self.span
        scale = np.array([(dts[k] / self.dx, dts[k] * self.params[k].epsilon)
                          for k in self.live])
        rho_new, mom_new = _flow_update(*self.flat, self.dx, scale[:, :1], scale[:, 1:],
                                        self.alpha, self.gamma, self.width, self.vacuum_ends)
        finite = np.isfinite(rho_new).all(axis=1) & np.isfinite(mom_new).all(axis=1)
        for k, rho_row, low, ok in zip(self.live, rho_new, rho_new.min(axis=1).tolist(),
                                       finite.tolist()):
            self.floored_mass[k] += _lift_to_floor(rho_row, low, self.floor, ts[k], s0, self.grid)
            if not ok:
                raise ValueError("field contains non-finite values")
        self.rho[self.rows, s0:s1] = rho_new
        self.mom[self.rows, s0:s1] = mom_new
        # the union of the stepped lanes' windows; it stays a cover of the lanes that go on
        self.window = _active_span(((rho_new != self.floor) | (mom_new != 0.0)).any(axis=0),
                                   s0, self.grid.n_cells)

    def settle(self, live: list) -> None:
        _check_margins(self.rho[self.rows], self.window, self.grid)
        self._ready(live, self.window)

    def state(self, lane: int, t: float) -> CnsState:
        """Lane `lane`'s checked state at time t, holding copies of its rows."""
        return CnsState(t=t, rho=Field(self.grid, self.rho[lane].copy()),
                        momentum_v=Field(self.grid, self.mom[lane].copy()),
                        rho_floor=self.floor, floored_mass=self.floored_mass[lane])


def write_cns_snapshot(state: CnsState, v: np.ndarray, u: np.ndarray, params: PhysParams,
                       path, extra_comments: tuple[str, ...] = ()) -> None:
    """Write the state's x, rho, v and u columns, where v and u are its
    velocities on the cells its next step computes on (its window and a
    `_HALO`-cell halo), as the state's `FlowRow` holds them; elsewhere both
    are exact zeros."""
    grid = state.rho.grid
    s0 = _widen(state._window, _HALO, grid.n_cells)[0]
    write_csv(path, ("x", "rho", "v", "u"),
              zip(grid.centers, state.rho.values, _embed(v, s0, grid.n_cells, 0.0),
                  _embed(u, s0, grid.n_cells, 0.0)),
              (f"t={_fmt(state.t)}",
               f"alpha={_fmt(params.alpha)} gamma={_fmt(params.gamma)} "
               f"epsilon={_fmt(params.epsilon)} pme_coeff={_fmt(params.pme_coeff)}",
               *extra_comments))
