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
the bit level.  `grid.march_rows` steps a `FlowStack`, the flows of an eps
sweep or a single flow, one lane each on its own clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (CFL, Field, check_support_margin, write_csv, _active_span,
                   _check_margins, _derivative, _embed, _fmt, _max, _min, _widen)
from .params import PhysParams
from .pme import diffusive_face_flux

__all__ = [
    "CnsState",
    "well_prepared_init",
    "advective_face_flux",
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


def _velocity(rho: np.ndarray, mom: np.ndarray, floor: float, out=None) -> np.ndarray:
    """mom / rho, +0.0 where rho is at the floor, into `out` (all +0.0) if given."""
    return np.divide(mom, rho, out=np.zeros_like(rho) if out is None else out, where=rho > floor)


def _velocities(rho: np.ndarray, mom: np.ndarray, floor: float, dx: float, alpha: float,
                width: int | None = None, vacuum_ends: bool = False) -> np.ndarray:
    """Effective velocity v and velocity u = v - d_x phi(rho) of the rows of
    rho and mom, as `_derivative` takes them, as the two rows of one array.
    d_x phi(rho) is computed as d_x(rho**(alpha-1)) / (alpha-1): equivalent
    to rho**(alpha-2) d_x rho, but bounded where rho degenerates, because
    rho**(alpha-1) -> 0 there."""
    vu = np.zeros((2, rho.size))
    _velocity(rho, mom, floor, vu[0])
    dphi = _derivative(rho ** (alpha - 1.0), dx, width, vacuum_ends)
    dphi /= alpha - 1.0
    np.subtract(vu[0], dphi, out=vu[1])
    return vu


def _cfl_step(rho_max: float, speed: float, dx: float, params: PhysParams) -> float:
    """CFL * min(diffusive, advective, pressure-wave candidates) from the
    density maximum and the largest of |u| and |v|, all Python floats.  The
    diffusive candidate is min(alpha, 1/CFL) times the limit equation's
    stability limit: the cap keeps the density update monotone for every
    alpha."""
    diff_cand = dx * dx * min(params.alpha, 1.0 / CFL) / (
        2.0 * rho_max ** (params.alpha - 1.0))
    adv_cand = dx / max(speed, 1e-14)
    wave = math.sqrt(params.epsilon * params.gamma
                     * rho_max ** (params.gamma - 1.0))
    wave_cand = dx / wave if wave > 0.0 else math.inf
    return CFL * min(diff_cand, adv_cand, wave_cand)


def _flow_update(flat: np.ndarray, vu: np.ndarray, dx: float, dt_dx, dt_eps, alpha: float,
                 gamma: float, width: int, vacuum_ends: bool) -> np.ndarray:
    """New density and effective momentum, before flooring, as one (2, rows,
    width) array, of rows of `width` cells laid end to end in the two rows
    (rho, then mom) of `flat`, whose v and u are the two rows of vu; dt_dx =
    dt / dx and dt_eps = dt * epsilon are floats or (rows, 1) columns.  Each
    row comes out bit for bit as alone: a face where two rows meet stands
    for their walls, both +0.0, and is set so; with `vacuum_ends` each row's
    first and last three cells are vacuum, where its end stencils are +0.0."""
    rho, mom = flat[0], flat[1]
    # upwind transport of rho*v (continuity) and of rho*u*v (effective
    # momentum) in one pass, the momentum's rows laid after the density's
    q = np.empty_like(vu)
    q[0] = mom
    np.multiply(mom, vu[1], out=q[1])
    flux = advective_face_flux(q.reshape(-1), vu.reshape(-1))
    # continuity also diffuses the density
    flux[:rho.size + 1] += diffusive_face_flux(rho ** alpha, dx, 1.0 / alpha,
                                               np.empty(rho.size + 1))
    flux[width:-1:width] = 0.0
    new = flat.reshape(2, -1, width) - dt_dx * (flux[1:] - flux[:-1]).reshape(2, -1, width)
    # effective momentum: the central pressure source
    new[1] -= dt_eps * _derivative(rho ** gamma, dx, width, vacuum_ends).reshape(-1, width)
    return new


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
    # 0.5 * s >= 0 for the sum s of the two velocities exactly when s >= -5e-324:
    # halving keeps the sign and rounds only -5e-324, the smallest subnormal, to -0.0
    upwind_left = vel[..., :-1] + vel[..., 1:] >= -5e-324
    flux[..., 1:-1] = np.where(upwind_left, q[..., :-1], q[..., 1:])
    return flux


class FlowStack:
    """The flows from one start under each PhysParams of `lane_params` (one
    alpha and gamma, each its own epsilon) as (lanes, cells) working grid
    rows that `grid.march_rows` steps in place, one lane each, with
    `_flow_update`: densities `rho` and effective momenta `mom`, the two
    halves of one (2, lanes, cells) array `fields`, floored masses, the
    lanes that step next (`live`), the union of their windows, and the next
    step's `span`, `width`, `vacuum_ends`, the live lanes' span rows of rho
    and mom laid end to end as the two rows of `flat`, their v and u laid
    out the same way as the rows of `vu` (also `v` and `u`), and per-lane
    span density maximum `rho_max` and candidate `cfl`.  When no lane goes
    on, the lanes of the final step are readied again and stay in `live`,
    so that step's v, u, maxima and candidates stay readable; a lane that
    stopped earlier keeps those from the start of its last step.  Lane k's
    `state(k, t)` is bit for bit that of its flow marched alone, in a stack
    of one lane or by the reference loop.

    A step computes every live lane on the union of their windows and a
    `_HALO`-cell halo, where a lane is vacuum outside its own window and halo:
    every flux, stencil and maximum there is an exact zero or order-free.
    The spans go end to end in one flat array each; the face where two lanes
    meet is set to their walls' +0.0, and on an interior span each lane's
    three end cells are vacuum, where its end stencils are +0.0.  A lane that
    stops keeps its rows.  Each lane raises the errors of a march of its own.
    """

    __slots__ = ("params", "alpha", "gamma", "grid", "dx", "floor", "vacuum", "fields", "rho",
                 "mom", "floored_mass", "live", "rows", "window", "span", "width", "vacuum_ends",
                 "flat", "vu", "v", "u", "rho_max", "cfl")

    def __init__(self, start: CnsState, lane_params) -> None:
        self.alpha, self.gamma = lane_params[0].alpha, lane_params[0].gamma
        if any(p.alpha != self.alpha or p.gamma != self.gamma for p in lane_params):
            raise ValueError("the lanes of a stack must share alpha and gamma")
        self.params, self.grid, self.dx = lane_params, start.rho.grid, start.rho.grid.dx
        self.floor, lanes = start.rho_floor, len(lane_params)
        self.fields = np.empty((2, lanes, self.grid.n_cells))
        self.vacuum = np.array([self.floor, 0.0]).reshape(2, 1, 1)  # rho and mom in vacuum
        self.rho, self.mom = self.fields
        self.rho[:], self.mom[:] = start.rho.values, start.momentum_v.values
        self.floored_mass = [start.floored_mass] * lanes
        self.rho_max, self.cfl = [0.0] * lanes, [math.inf] * lanes
        self._ready(list(range(lanes)), start._window)

    def _ready(self, live: list, window: tuple[int, int]) -> None:
        """Take `live` as the lanes that step next and `window` as the union
        of their windows, and ready their next step."""
        n = self.grid.n_cells
        self.live, self.window = live, window
        # the live lanes' rows, a slice (no gather) while every lane is live
        self.rows = slice(None) if len(live) == len(self.params) else live
        s0, s1 = self.span = _widen(window, _HALO, n)
        self.width, self.vacuum_ends = width, ends = s1 - s0, s0 > 0 and s1 < n
        self.flat = flat = self.fields[:, self.rows, s0:s1].reshape(2, -1)
        self.vu = vu = _velocities(flat[0], flat[1], self.floor, self.dx, self.alpha, width, ends)
        self.v, self.u = vu[0], vu[1]
        # a lane's advective candidate reads the larger of its largest |v| and |u|
        speeds = _max(abs(vu).reshape(2, -1, width), axis=(0, 2)).tolist()
        for k, rho_max, speed in zip(live, _max(flat[0].reshape(-1, width), axis=1).tolist(),
                                     speeds):
            self.rho_max[k] = rho_max
            self.cfl[k] = _cfl_step(rho_max, speed, self.dx, self.params[k])

    def update(self, dts: list, ts: list) -> None:
        s0, s1 = self.span
        dt_dx, dt_eps = np.array([(dts[k] / self.dx, dts[k] * self.params[k].epsilon)
                                  for k in self.live]).T[..., None]
        new = _flow_update(self.flat, self.vu, self.dx, dt_dx, dt_eps, self.alpha, self.gamma,
                           self.width, self.vacuum_ends)
        # one check of the whole step; a lane's own rows only when it fails
        finite = np.isfinite(new).all()
        for k, lane, low in zip(self.live, new.swapaxes(0, 1), _min(new[0], axis=1).tolist()):
            self.floored_mass[k] += _lift_to_floor(lane[0], low, self.floor, ts[k], s0, self.grid)
            if not (finite or np.isfinite(lane).all()):
                raise ValueError("field contains non-finite values")
        self.fields[:, self.rows, s0:s1] = new
        # the union of the stepped lanes' windows; it stays a cover of the lanes that go on
        self.window = _active_span((new != self.vacuum).any(axis=(0, 1)), s0, self.grid.n_cells)

    def settle(self, live: list) -> None:
        _check_margins(self.rho[self.rows], self.window, self.grid)
        self._ready(live or self.live, self.window)

    def state(self, lane: int, t: float) -> CnsState:
        """Lane `lane`'s checked state at time t, holding copies of its rows."""
        return CnsState(t=t, rho=Field(self.grid, self.rho[lane].copy()),
                        momentum_v=Field(self.grid, self.mom[lane].copy()),
                        rho_floor=self.floor, floored_mass=self.floored_mass[lane])


def write_cns_snapshot(state: CnsState, v: np.ndarray, u: np.ndarray, params: PhysParams,
                       path, extra_comments: tuple[str, ...] = ()) -> None:
    """Write the state's x, rho, v and u columns, where v and u are its
    velocities on the cells its next step computes on (its window and a
    `_HALO`-cell halo), as a one-lane `FlowStack` of the state holds them in
    `v` and `u`; elsewhere both are exact zeros."""
    grid = state.rho.grid
    s0 = _widen(state._window, _HALO, grid.n_cells)[0]
    write_csv(path, ("x", "rho", "v", "u"),
              zip(grid.centers, state.rho.values, _embed(v, s0, grid.n_cells, 0.0),
                  _embed(u, s0, grid.n_cells, 0.0)),
              (f"t={_fmt(state.t)}",
               f"alpha={_fmt(params.alpha)} gamma={_fmt(params.gamma)} "
               f"epsilon={_fmt(params.epsilon)} pme_coeff={_fmt(params.pme_coeff)}",
               *extra_comments))
