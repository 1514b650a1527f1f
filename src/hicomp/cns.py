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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (CFL, Field, check_support_margin, write_csv, _active_span, _derivative,
                   _fmt, _unchecked, _widen)
from .params import PhysParams
from .pme import diffusive_face_flux

__all__ = [
    "CnsState",
    "well_prepared_init",
    "recover_u",
    "advective_face_flux",
    "cfl_dt",
    "cns_step",
    "write_cns_snapshot",
]

DEFAULT_FLOOR_FRAC = 1e-10


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
        """Cells [s0, s1) the next step computes on: the window and a 3-cell
        halo.  Velocity u reaches one cell past the window, and the one-sided
        derivative stencils at the ends of [s0, s1) must see three vacuum
        cells to give the exact zero that the full grid's central ones do."""
        return _widen(self._window, 3, self.rho.grid.n_cells)

    def cfl_dt(self, params: PhysParams) -> float:
        return cfl_dt(self, params)

    def step(self, params: PhysParams, dt: float) -> CnsState:
        return cns_step(self, params, dt)


def well_prepared_init(rho0: Field, params: PhysParams,
                       floor_frac: float = DEFAULT_FLOOR_FRAC,
                       v0: Field | None = None) -> CnsState:
    """Floored density rho0 with effective velocity v0.

    The default v0 = 0, i.e. initial velocity u0 = -d_x phi(rho0), is the
    well-prepared state: the initial momentum then cancels the
    density-gradient part exactly, which makes the effective momentum stay
    small uniformly in eps.
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


def _dx_phi(rho: np.ndarray, dx: float, params: PhysParams) -> np.ndarray:
    """d_x phi(rho) computed as d_x(rho**(alpha-1)) / (alpha-1).

    Equivalent to rho**(alpha-2) d_x rho but stays bounded where rho
    degenerates, because rho**(alpha-1) -> 0 there.
    """
    a = params.alpha
    return _derivative(rho ** (a - 1.0), dx) / (a - 1.0)


def recover_u(state: CnsState, params: PhysParams) -> Field:
    """Physical velocity u = v - d_x phi(rho)."""
    return Field(state.rho.grid, _cfl_memo(state, params)[2].copy())


def advective_face_flux(q: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Upwind face flux of the cell quantity q, with the upwind side chosen
    by the sign of the face-averaged velocity; zero at the domain faces."""
    flux = np.zeros(q.size + 1)
    vface = 0.5 * (vel[:-1] + vel[1:])
    flux[1:-1] = np.where(vface >= 0.0, q[:-1], q[1:])
    return flux


def _cfl_memo(state: CnsState, params: PhysParams) -> tuple[float, np.ndarray, np.ndarray]:
    """(CFL step, v, u) of the state under params, evaluated at most once per
    state.  cns_step, the diagnostics and the snapshot writer all read v and u
    from this memo; none of them may write to its arrays.

    Both are computed on the stepped cells only.  Outside them v and u are
    exact zeros, and so are the full-size arrays kept here; the stepped
    cells hold the density maximum, and all three maxima are order-free.
    """
    cached = state._cfl.get(params)
    if cached is None:
        grid = state.rho.grid
        dx = grid.dx
        s0, s1 = state.step_span
        rho = state.rho.values[s0:s1]
        rho_max = float(rho.max())
        diff_cand = dx * dx * min(params.alpha, 1.0 / CFL) / (
            2.0 * rho_max ** (params.alpha - 1.0))
        v_sub = _velocity(rho, state.momentum_v.values[s0:s1], state.rho_floor)
        u_sub = v_sub - _dx_phi(rho, dx, params)
        speed = max(float(np.abs(u_sub).max()), float(np.abs(v_sub).max()), 1e-14)
        adv_cand = dx / speed
        wave = math.sqrt(params.epsilon * params.gamma
                         * rho_max ** (params.gamma - 1.0))
        wave_cand = dx / wave if wave > 0.0 else math.inf
        v = np.zeros(grid.n_cells)
        v[s0:s1] = v_sub
        u = np.zeros(grid.n_cells)
        u[s0:s1] = u_sub
        cached = state._cfl[params] = (CFL * min(diff_cand, adv_cand, wave_cand), v, u)
    return cached


def cfl_dt(state: CnsState, params: PhysParams) -> float:
    """Step size 0.4 * min(diffusive, advective, pressure-wave candidates).

    The diffusive candidate is min(alpha, 1/CFL) times the limit equation's
    stability limit: the cap keeps the density update monotone for every alpha.
    """
    return _cfl_memo(state, params)[0]


def cns_step(state: CnsState, params: PhysParams, dt: float) -> CnsState:
    """One explicit conservative update of both equations at the same time
    level.  Mass is conserved exactly by the flux form; re-flooring adds
    back a logged (tiny) amount.

    Only the stepped cells are computed.  Every flux and pressure gradient
    outside them is an exact zero, so the other cells keep their values bit
    for bit, and the new arrays are fresh full-size copies.
    """
    dt_cfl, v, u = _cfl_memo(state, params)
    if dt > dt_cfl * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the CFL step")
    grid = state.rho.grid
    dx = grid.dx
    s0, s1 = state.step_span
    rho = state.rho.values[s0:s1]
    mom = state.momentum_v.values[s0:s1]
    v = v[s0:s1]
    u = u[s0:s1]
    w = rho ** params.alpha

    # continuity: upwind transport of rho*v plus the density diffusion
    flux_rho = advective_face_flux(mom, v) + diffusive_face_flux(w, dx, 1.0 / params.alpha)
    rho_new = rho - (dt / dx) * (flux_rho[1:] - flux_rho[:-1])

    # effective momentum: upwind transport of rho*u*v, central pressure source
    flux_mom = advective_face_flux(mom * u, u)
    pressure_grad = _derivative(rho ** params.gamma, dx)
    mom_new = (mom - (dt / dx) * (flux_mom[1:] - flux_mom[:-1])
               - dt * params.epsilon * pressure_grad)

    floored = state.floored_mass
    low = float(rho_new.min())
    if low < -1000.0 * state.rho_floor:
        raise RuntimeError(
            f"density went negative ({low}) at t={state.t}; the run is unstable"
        )
    if low < state.rho_floor:
        # summed over the full grid, as pairwise summation depends on length
        deficit = np.zeros(grid.n_cells)
        deficit[s0:s1] = np.maximum(state.rho_floor - rho_new, 0.0)
        floored += dx * float(deficit.sum())
        rho_new = np.maximum(rho_new, state.rho_floor)
    if not (np.isfinite(rho_new).all() and np.isfinite(mom_new).all()):
        raise ValueError("field contains non-finite values")

    rho_full = state.rho.values.copy()
    rho_full[s0:s1] = rho_new
    mom_full = state.momentum_v.values.copy()
    mom_full[s0:s1] = mom_new
    return _unchecked(CnsState, t=state.t + dt,
                      rho=_unchecked(Field, grid=grid, values=rho_full),
                      momentum_v=_unchecked(Field, grid=grid, values=mom_full),
                      rho_floor=state.rho_floor, floored_mass=floored, _cfl={},
                      _window=_cns_window(rho_full, mom_full, state.rho_floor, s0, s1))


def write_cns_snapshot(state: CnsState, params: PhysParams, path,
                       extra_comments: tuple[str, ...] = ()) -> None:
    _, v, u = _cfl_memo(state, params)
    write_csv(path, ("x", "rho", "v", "u"),
              zip(state.rho.grid.centers, state.rho.values, v, u),
              (f"t={_fmt(state.t)}",
               f"alpha={_fmt(params.alpha)} gamma={_fmt(params.gamma)} "
               f"epsilon={_fmt(params.epsilon)} pme_coeff={_fmt(params.pme_coeff)}",
               *extra_comments))
