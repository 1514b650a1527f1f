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

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (CFL, Field, Grid, march_rows, write_csv, _active_span, _check_margins,
                   _embed, _fmt, _max, _min, _widen)
from .params import PhysParams

__all__ = [
    "PmeState",
    "BarenblattParams",
    "barenblatt_params",
    "barenblatt_eval",
    "barenblatt_field",
    "diffusive_face_flux",
    "LimitRow",
    "advance_limit",
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
    # active window [lo, hi): the cells that differ from the boundary value
    _window: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vals = self.rho.values
        if float(vals.min()) < 0.0:
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "_window", _pme_window(vals))


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


def _scipy_extension(name: str):
    """The compiled scipy module `name`, such as "scipy.integrate._quadpack",
    loaded from the installed scipy's directory once per process.

    Importing it through its package would run the package's `__init__`,
    which for scipy.integrate and scipy.optimize loads scipy.special,
    sparse and linalg: about 0.6 s and 45 MB, on a 2-vCPU x86-64 machine,
    for a 1.5 ms inversion.  The
    module is registered in sys.modules under `name`, so a later
    `import scipy.integrate` reuses it, and one already imported is reused.
    The package then lacks the module as an attribute; scipy reaches it
    with `from . import`, which falls back to sys.modules.
    """
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        subdir = os.path.join(*scipy_spec.submodule_search_locations,
                              *name.split(".")[1:-1])
        spec = importlib.machinery.PathFinder.find_spec(name, [subdir])
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r} in {subdir}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _profile_mass(c_const: float, alpha: float, kappa: float) -> float:
    """Integral of (C - kappa*xi^2)_+^{1/(alpha-1)} over the line."""
    edge = math.sqrt(c_const / kappa)
    p = 1.0 / (alpha - 1.0)

    def f(xi):
        return max(c_const - kappa * xi * xi, 0.0) ** p

    # the call scipy.integrate.quad(f, -edge, edge, epsabs=0.0, epsrel=1e-12,
    # limit=200) makes, with quad's handling of the QUADPACK status ier
    qagse = _scipy_extension("scipy.integrate._quadpack")._qagse
    val, _, ier = qagse(f, -edge, edge, (), 0, 0.0, 1e-12, 200)
    if ier == 6:
        raise ValueError("The input is invalid.")
    if ier:
        warnings.warn(f"QUADPACK qagse returned ier={ier}: the profile mass at "
                      f"C={c_const} may miss its tolerance", stacklevel=2)
    return val


def barenblatt_params(alpha: float, mass: float,
                      pme_coeff: float | None = None) -> BarenblattParams:
    """Fix the free constant C so the profile carries the requested mass.

    The map C -> mass is strictly increasing, so a bracketed root search on
    [1e-8, hi] is safe.  hi is 1e8, lowered near alpha = 1 so that the
    profile's peak hi**(1/(alpha-1)) stays at most 1e300, within the float
    range.
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

    lo, hi = 1e-8, 10.0 ** min(8.0, 300.0 * (alpha - 1.0))
    if not (g(lo) < 0.0 < g(hi)):
        raise ValueError(
            f"mass {mass} cannot be bracketed by C in [{lo}, {hi}]"
        )

    def g_not_nan(c):
        val = g(c)
        if math.isnan(val):
            raise ValueError(f"The function value at x={c} is NaN; solver cannot continue.")
        return val

    # the call scipy.optimize.brentq(g, lo, hi, rtol=1e-14, maxiter=200)
    # makes, with its default xtol and its NaN guard
    brentq = _scipy_extension("scipy.optimize._zeros")._brentq
    c_const = brentq(g_not_nan, lo, hi, 2e-12, 1e-14, 200, (), False, True)
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


def diffusive_face_flux(w: np.ndarray, dx: float, coeff: float,
                        out: np.ndarray) -> np.ndarray:
    """Face fluxes -coeff * dw/dx of the row w, with zero flux at the two
    domain faces, filled into and returned as `out`, one cell longer than w.

    Shared by the flow solver so that its pressureless limit reproduces this
    scheme bit for bit.  The duality certificate's dual Laplacian repeats
    this arithmetic with coeff = 1, as its operator must be this stencil's
    exact adjoint.  The inner faces are computed in place as
    (w[1:] - w[:-1]) * -coeff / dx, the roundings of -coeff * dw / dx since
    IEEE multiplication commutes; both walls are zeroed, as `out` may hold
    an earlier, wider row's faces.
    """
    inner = out[1:-1]
    np.subtract(w[1:], w[:-1], out=inner)
    inner *= -coeff
    inner /= dx
    out[0] = out[-1] = 0.0
    return out


def _pme_window(rho: np.ndarray, s0: int = 0, s1: int | None = None) -> tuple[int, int]:
    """Active window of the density rho, scanning only cells [s0, s1): every
    other cell must hold the vacuum value, which is the boundary value when
    both boundary cells agree.  Otherwise the whole grid is active.

    The window runs from the span's first non-vacuum cell to its last, so
    when one of the span's first two cells and one of its last two differ
    from vacuum, reading those gives the scan's window; only otherwise is
    the span scanned.  Both boundary cells hold the vacuum value by then, so
    the window holds neither and the scan's widening to the grid cannot
    apply.  `!=` is the scan's test: a -0.0 cell beside a 0.0 vacuum is
    vacuum in both.
    """
    vacuum = rho[0]
    if rho[-1] != vacuum:
        return 0, rho.size
    if s1 is None:
        s1 = rho.size
    if s1 - s0 >= 2:
        lo = s0 if rho[s0] != vacuum else s0 + 1 if rho[s0 + 1] != vacuum else None
        hi = s1 if rho[s1 - 1] != vacuum else s1 - 1 if rho[s1 - 2] != vacuum else None
        if lo is not None and hi is not None:
            return lo, hi
    return _active_span(rho[s0:s1] != vacuum, s0, rho.size)


def _limit_update(row: np.ndarray, s0: int, s1: int, dt: float, dx: float,
                  params: PhysParams, clipped: float, faces: np.ndarray) -> float:
    """One explicit conservative update of size dt of the density grid row
    `row`, in place on its cells [s0, s1), which hold every nonzero face
    flux.  Returns the clipped mass `clipped` plus what clipping adds.

    `faces` is scratch of at least s1 - s0 + 1 slots for the face fluxes,
    which `diffusive_face_flux` fills in place; the new cells are one fresh
    array, differenced, scaled and subtracted in place with the roundings of
    rho - (dt / dx) * (flux[1:] - flux[:-1]).  After clipping every new
    value is >= 0 or NaN (a NaN makes min NaN, so it skips the clip, and a
    -inf is clipped to 0), so one max, which propagates NaN, is finite
    exactly when every value is.
    """
    rho = row[s0:s1]
    flux = diffusive_face_flux(rho ** params.alpha, dx, params.pme_coeff, faces[:s1 - s0 + 1])
    rho_new = np.subtract(flux[1:], flux[:-1])
    rho_new *= dt / dx
    np.subtract(rho, rho_new, out=rho_new)
    if float(_min(rho_new)) < 0.0:
        neg = _embed(np.minimum(rho_new, 0.0), s0, row.size, 0.0)
        clipped -= dx * float(neg.sum())
        np.maximum(rho_new, 0.0, out=rho_new)
    if not math.isfinite(float(_max(rho_new))):
        raise ValueError("field contains non-finite values")
    row[s0:s1] = rho_new
    return clipped


class LimitRow:
    """A limit-equation state as a working grid row of one lane that
    `grid.march_rows` steps in place with `_limit_update`: density `rho`,
    clipped mass, active window, and the next step's cells `span`, their
    count `width` and the lane's candidate step in `cfl`.  It owns one
    grid-wide face row, `faces`, that every step's fluxes reuse."""

    __slots__ = ("params", "grid", "dx", "rho", "faces", "clipped_mass", "window", "span",
                 "width", "cfl", "dx2", "scale", "power")

    def __init__(self, state: PmeState, params: PhysParams) -> None:
        self.params, self.grid, self.dx = params, state.rho.grid, state.rho.grid.dx
        self.rho, self.clipped_mass = state.rho.values.copy(), state.clipped_mass
        self.faces = np.empty(self.rho.size + 1)
        # the stability limit dx^2 / (2 c alpha rho_max^(alpha-1))'s factors
        self.dx2, self.scale = self.dx * self.dx, 2.0 * params.pme_coeff * params.alpha
        self.power = params.alpha - 1.0
        self._ready(state._window)

    def _ready(self, window: tuple[int, int]) -> None:
        """Take `window` as the active window and ready the next step."""
        self.window = window
        self.span = s0, s1 = _widen(window, 1, self.rho.size)
        self.width = s1 - s0
        rho_max = float(_max(self.rho[s0:s1]))
        self.cfl = [CFL * (math.inf if rho_max <= 0.0 else
                           self.dx2 / (self.scale * rho_max ** self.power))]

    def update(self, dts: list, ts: list) -> None:
        self.clipped_mass = _limit_update(self.rho, *self.span, dts[0], self.dx, self.params,
                                          self.clipped_mass, self.faces)

    def settle(self, live: list) -> None:
        window = _pme_window(self.rho, *self.span)
        _check_margins(self.rho, window, self.grid)
        self._ready(window)

    def state(self, t: float) -> PmeState:
        """The checked state at time t, holding a copy of the row."""
        return PmeState(t=t, rho=Field(self.grid, self.rho.copy()),
                        clipped_mass=self.clipped_mass)


def advance_limit(start: PmeState, params: PhysParams, snapshot_times) -> list[PmeState]:
    """March the limit equation from `start` to the last snapshot time as one
    `LimitRow` under `grid.march_rows`.  Returns the states at each distinct
    snapshot time: the start state if its time is one, then the row's
    state at each step that lands on one."""
    if not snapshot_times:
        raise ValueError("a limit march runs to its last snapshot time; none given")
    times = set(snapshot_times)
    row = LimitRow(start, params)
    snaps = [start] if start.t in times else []
    for (t,), _ in march_rows((row,), start.t, max(snapshot_times), snapshot_times):
        if t in times:
            snaps.append(row.state(t))
    return snaps


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
