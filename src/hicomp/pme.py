"""Explicit conservative finite-volume solver for the degenerate diffusion
equation d_t rho = c * d_xx rho**alpha, plus the self-similar analytic
solution used as an oracle and the interface tracker.

The scheme differences rho**alpha directly in flux form with zero-flux
boundary faces.  At CFL 0.4 the one-step map is monotone, so mass
conservation, the comparison principle, the maximum principle and L1
contraction all hold at the discrete level (the last two only when two
states are advanced with a shared dt sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import CFL, Field, Grid, advance, write_csv, _active_span, _fmt, _unchecked, _widen
from .params import PhysParams

__all__ = [
    "PmeState",
    "BarenblattParams",
    "barenblatt_params",
    "barenblatt_eval",
    "barenblatt_field",
    "diffusive_face_flux",
    "stability_limit",
    "pme_step",
    "pme_solve_to",
    "pme_pressure",
    "interface_positions",
    "write_pme_snapshot",
]


@dataclass(frozen=True)
class PmeState:
    """Nonnegative density at time t; clipped_mass accumulates the (tiny)
    mass added when round-off undershoots are clipped back to zero."""

    t: float
    rho: Field
    clipped_mass: float = 0.0
    # stability limit per PhysParams, evaluated at most once per state
    _limits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # active window [lo, hi): the cells that differ from the boundary value
    _window: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = self.rho.values
        if float(vals.min()) < 0.0:
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "_window", _pme_window(vals))

    @cached_property
    def step_span(self) -> tuple[int, int]:
        """Cells [s0, s1) the next step computes on: the window and a 1-cell
        halo, which is all a diffusive flux out of the window reaches."""
        return _widen(self._window, 1, self.rho.grid.n_cells)

    def cfl_dt(self, params: PhysParams) -> float:
        return CFL * stability_limit(self, params)

    def step(self, params: PhysParams, dt: float) -> PmeState:
        return pme_step(self, params, dt)


# ---------------------------------------------------------------------------
# Self-similar solution


@dataclass(frozen=True)
class BarenblattParams:
    """Parameters of the compactly supported self-similar solution
    rho(t, x) = s**(-1/(alpha+1)) * (C - kappa*xi**2)_+**(1/(alpha-1)),
    xi = x * s**(-1/(alpha+1)), s = pme_coeff * t."""

    alpha: float
    mass: float
    kappa: float
    c_const: float
    pme_coeff: float


def _profile_mass(c_const: float, alpha: float, kappa: float) -> float:
    """Integral of (C - kappa*xi^2)_+^{1/(alpha-1)} over the line."""
    # imported here so that runs without a Barenblatt datum never load scipy
    from scipy import integrate as sp_integrate

    edge = math.sqrt(c_const / kappa)
    p = 1.0 / (alpha - 1.0)

    def f(xi):
        return max(c_const - kappa * xi * xi, 0.0) ** p

    val, _ = sp_integrate.quad(f, -edge, edge, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def barenblatt_params(alpha: float, mass: float,
                      pme_coeff: float | None = None) -> BarenblattParams:
    """Fix the free constant C so the profile carries the requested mass.

    The map C -> mass is strictly increasing, so a bracketed root search on
    [1e-8, 1e8] is unconditionally safe.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    if pme_coeff is None:
        pme_coeff = 1.0 / alpha
    kappa = (alpha - 1.0) / (2.0 * alpha * (alpha + 1.0))

    def g(c):
        return _profile_mass(c, alpha, kappa) - mass

    lo, hi = 1e-8, 1e8
    if not (g(lo) < 0.0 < g(hi)):
        raise ValueError(
            f"mass {mass} cannot be bracketed by C in [{lo}, {hi}]"
        )
    from scipy import optimize as sp_optimize  # loaded only for the inversion

    c_const = sp_optimize.brentq(g, lo, hi, rtol=1e-14, maxiter=200)
    return BarenblattParams(alpha=alpha, mass=mass, kappa=kappa,
                            c_const=float(c_const), pme_coeff=pme_coeff)


def barenblatt_eval(p: BarenblattParams, t: float, x) -> float | np.ndarray:
    """Evaluate the self-similar solution at physical time t > 0.

    Both the prefactor and the argument carry the exponent -1/(alpha+1) in
    rescaled time s = pme_coeff * t, which is the mass-conserving form.
    """
    if not t > 0.0:
        raise ValueError(f"self-similar solution needs t > 0, got {t}")
    s = p.pme_coeff * t
    lam = s ** (-1.0 / (p.alpha + 1.0))
    xi = np.asarray(x, dtype=float) * lam
    prof = np.maximum(p.c_const - p.kappa * xi * xi, 0.0) ** (1.0 / (p.alpha - 1.0))
    out = lam * prof
    return float(out) if np.isscalar(x) else out


def barenblatt_field(p: BarenblattParams, t: float, grid: Grid) -> Field:
    return Field(grid, barenblatt_eval(p, t, grid.centers))


# ---------------------------------------------------------------------------
# Explicit conservative stepping


def diffusive_face_flux(w: np.ndarray, dx: float, coeff: float) -> np.ndarray:
    """Face fluxes -coeff * dw/dx along the last axis, with zero flux at the
    two domain faces.

    Shared by the flow solver so that its pressureless limit reproduces this
    scheme bit for bit, and by the duality certificate, whose dual operator
    must be this stencil's exact adjoint.
    """
    flux = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    flux[..., 1:-1] = -coeff * (w[..., 1:] - w[..., :-1]) / dx
    return flux


def _pme_window(rho: np.ndarray, s0: int = 0, s1: int | None = None) -> tuple[int, int]:
    """Active window of the density rho, scanning only cells [s0, s1): every
    other cell must hold the vacuum value, which is the boundary value when
    both boundary cells agree.  Otherwise the whole grid is active."""
    vacuum = rho[0]
    if rho[-1] != vacuum:
        return 0, rho.size
    return _active_span(rho[s0:s1] != vacuum, s0, rho.size)


def stability_limit(state: PmeState, params: PhysParams) -> float:
    """Largest stable explicit step, dx^2 / (2 c alpha max(rho)^(alpha-1)).
    Kept on the state, so pme_step's guard does not evaluate it again."""
    limit = state._limits.get(params)
    if limit is None:
        # the stepped cells hold the maximum: the window and, unless the
        # window is the whole grid, a halo cell at the vacuum value
        s0, s1 = state.step_span
        rho_max = float(state.rho.values[s0:s1].max())
        dx = state.rho.grid.dx
        limit = math.inf if rho_max <= 0.0 else dx * dx / (
            2.0 * params.pme_coeff * params.alpha * rho_max ** (params.alpha - 1.0))
        state._limits[params] = limit
    return limit


def pme_step(state: PmeState, params: PhysParams, dt: float) -> PmeState:
    """One explicit conservative update of size dt <= stability limit.

    Only the stepped cells are computed.  Every face flux outside them is an
    exact zero, so the other cells keep their values bit for bit, and the
    new density is a fresh full-size array.
    """
    limit = state._limits.get(params) or stability_limit(state, params)
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the stability limit {limit}")
    grid = state.rho.grid
    s0, s1 = state.step_span
    rho = state.rho.values[s0:s1]
    w = rho ** params.alpha
    flux = diffusive_face_flux(w, grid.dx, params.pme_coeff)
    rho_new = rho - (dt / grid.dx) * (flux[1:] - flux[:-1])
    clipped = state.clipped_mass
    if float(rho_new.min()) < 0.0:
        # summed over the full grid, as pairwise summation depends on length
        neg = np.zeros(grid.n_cells)
        neg[s0:s1] = np.minimum(rho_new, 0.0)
        clipped -= grid.dx * float(neg.sum())
        rho_new = np.maximum(rho_new, 0.0)
    if not np.isfinite(rho_new).all():
        raise ValueError("field contains non-finite values")
    full = state.rho.values.copy()
    full[s0:s1] = rho_new
    return _unchecked(PmeState, t=state.t + dt, rho=_unchecked(Field, grid=grid, values=full),
                      clipped_mass=clipped, _limits={}, _window=_pme_window(full, s0, s1))


def pme_solve_to(state: PmeState, params: PhysParams, t_end: float) -> PmeState:
    """Advance to t_end with dt = CFL * stability limit, landing exactly."""
    (state,), _ = advance((state,), params, t_end)
    return state


# ---------------------------------------------------------------------------
# Derived quantities


def pme_pressure(state: PmeState, params: PhysParams) -> Field:
    """Pressure variable alpha/(alpha-1) * rho**(alpha-1)."""
    a = params.alpha
    return Field(state.rho.grid, a / (a - 1.0) * state.rho.values ** (a - 1.0))


def _support_range(values: np.ndarray, threshold: float) -> tuple[int, int]:
    """First and last cell where the density exceeds threshold * max."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    vmax = float(values.max())
    if vmax <= 0.0:
        raise ValueError("field has no support above the threshold")
    idx = np.nonzero(values > threshold * vmax)[0]
    return int(idx[0]), int(idx[-1])


def interface_positions(state: PmeState, threshold: float = 1e-6) -> tuple[float, float]:
    """Left and right support edges, located where the density first exceeds
    threshold * max(rho), widened by half a cell on each side."""
    first, last = _support_range(state.rho.values, threshold)
    grid = state.rho.grid
    centers = grid.centers
    half = grid.dx / 2.0
    return float(centers[first] - half), float(centers[last] + half)


def write_pme_snapshot(state: PmeState, params: PhysParams, path,
                       extra_comments: tuple[str, ...] = ()) -> None:
    write_csv(path, ("x", "rho", "pressure"),
              zip(state.rho.grid.centers, state.rho.values,
                  pme_pressure(state, params).values),
              (f"t={_fmt(state.t)}", *extra_comments))
