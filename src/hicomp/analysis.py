"""Measurements: negative-norm errors, entropy functionals, support leakage,
the interface-law residual, and the duality-based error certificate.

The certificate solves the backward dual diffusion problem with the exact
adjoint of the forward explicit step, so the discrete duality identity holds
to round-off and the reported bound majorizes the tested pairing by
construction (Cauchy-Schwarz applied to an exact identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, antiderivative, atomic_open, check_support_margin, derivative,
                   integrate, lp_norm, _fmt)
from .params import PhysParams
from .pme import (
    CFL,
    PmeState,
    diffusive_face_flux,
    interface_positions,
    pme_pressure,
    pme_solve_to,
    stability_limit,
)
from .cns import CnsState, advective_face_flux, _cfl_memo, _velocity

__all__ = [
    "h_minus1_norm",
    "error_pair",
    "DiagnosticsRecord",
    "diagnostics",
    "write_diagnostics_csv",
    "mass_outside_support",
    "darcy_residual",
    "DualCertificate",
    "dual_certificate",
    "default_clamp_bounds",
]

COINCIDENCE_TOL = 1e-12


def h_minus1_norm(f: Field) -> float:
    """Homogeneous dual norm: L2 norm of the left-anchored primitive.

    Requires a zero-mean input (both solvers conserve mass, so residuals
    qualify); otherwise the primitive does not return to zero on the right
    and the quantity is meaningless.
    """
    total = integrate(f)
    l1 = lp_norm(f, 1)
    if abs(total) > 1e-8 * l1:
        raise ValueError(
            f"input must have zero mean: integral={total:g} "
            f"exceeds 1e-8 * L1 norm ({l1:g})"
        )
    return lp_norm(antiderivative(f), 2)


def error_pair(rho_eps: Field, rho_tilde: Field) -> tuple[float, float]:
    """Dual-norm and L2 distances between two densities on one grid."""
    if rho_eps.grid != rho_tilde.grid:
        raise ValueError("fields must share a grid")
    diff = Field(rho_eps.grid, rho_eps.values - rho_tilde.values)
    return h_minus1_norm(diff), lp_norm(diff, 2)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-state scalar diagnostics of a flow solution."""

    t: float
    mass: float
    energy: float
    bd_entropy: float
    sqrt_rho_v_l2: float
    max_rho: float


def diagnostics(state: CnsState, params: PhysParams) -> DiagnosticsRecord:
    dx = state.rho.grid.dx
    rho = state.rho.values
    _, v, u = _cfl_memo(state, params)
    pressure_part = params.epsilon / (params.gamma - 1.0) * rho ** params.gamma
    return DiagnosticsRecord(
        t=state.t,
        mass=dx * float(rho.sum()),
        energy=dx * float((0.5 * rho * u * u + pressure_part).sum()),
        bd_entropy=dx * float((0.5 * rho * v * v + pressure_part).sum()),
        sqrt_rho_v_l2=math.sqrt(dx * float((rho * v * v).sum())),
        max_rho=float(rho.max()),
    )


def write_diagnostics_csv(records, path, extra_comments: tuple[str, ...] = ()) -> None:
    cols = ("t", "dt", "mass", "energy", "bd_entropy", "sqrt_rho_v_l2", "max_rho")
    with atomic_open(path) as fh:
        for line in extra_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        for rec, dt in records:
            fh.write(",".join(_fmt(x) for x in (
                rec.t, dt, rec.mass, rec.energy, rec.bd_entropy,
                rec.sqrt_rho_v_l2, rec.max_rho)) + "\n")


def mass_outside_support(rho_eps: Field, omega: tuple[float, float],
                         floor: float = 0.0) -> float:
    """Mass carried by cells whose centers lie outside [s_left, s_right],
    counted above the vacuum floor so the result is floor-insensitive."""
    s_left, s_right = omega
    if not s_left < s_right:
        raise ValueError(f"need s_left < s_right, got {omega}")
    centers = rho_eps.grid.centers
    outside = (centers < s_left) | (centers > s_right)
    excess = np.maximum(rho_eps.values[outside] - floor, 0.0)
    return rho_eps.grid.dx * float(excess.sum())


def edge_pressure_slope(state: PmeState, params: PhysParams,
                        threshold: float = 1e-6,
                        smear_cells: int = 3) -> float:
    """One-sided pressure slope at the right support edge.

    The last few cells of the numerical profile are smeared by the scheme
    and carry an O(1) relative distortion at any resolution, so the slope
    cannot be read off them directly.  The pressure is asymptotically linear
    at the edge; fitting a quadratic over an interior band (excluding the
    smeared cells) and evaluating its derivative at the detected edge gives
    an estimate that converges under refinement.
    """
    vals = state.rho.values
    vmax = float(vals.max())
    if vmax <= 0.0:
        raise ValueError("field has no support above the threshold")
    idx = np.nonzero(vals > threshold * vmax)[0]
    k = int(idx[-1])
    grid = state.rho.grid
    dx = grid.dx
    edge = float(grid.centers[k] + dx / 2.0)
    width = (k - int(idx[0]) + 1) * dx
    band = max(10 * dx, 0.05 * width)
    hi = k - smear_cells
    lo = k - int(round(band / dx))
    if lo < 0 or hi - lo < 4:
        raise ValueError("support too narrow to measure an interior slope")
    x = grid.centers[lo:hi + 1] - edge
    p = pme_pressure(state, params).values[lo:hi + 1]
    coeffs = np.polyfit(x, p, 2)
    return float(coeffs[1])  # derivative of the fit at x = edge


def darcy_residual(state: PmeState, params: PhysParams,
                   dt_probe: float | None = None,
                   threshold: float = 1e-6) -> float:
    """Mismatch between the measured right-interface speed and minus the
    one-sided pressure slope at the edge.

    The edge speed is the secant over [t, t+dt_probe]; the slope is read at
    the midpoint state, which pairs with the secant to second order in
    dt_probe.  The slope carries the diffusion normalization so the law is
    tested for any pme_coeff.  dt_probe must be large enough for the edge to
    cross several cells, otherwise the speed is quantization noise.
    """
    if dt_probe is None:
        dt_probe = 10.0 * CFL * stability_limit(state, params)
    s_right_0 = interface_positions(state, threshold)[1]
    mid = pme_solve_to(state, params, state.t + 0.5 * dt_probe)
    end = pme_solve_to(mid, params, state.t + dt_probe)
    s_right_1 = interface_positions(end, threshold)[1]
    dplus = (s_right_1 - s_right_0) / dt_probe
    slope = edge_pressure_slope(mid, params, threshold)
    return abs(dplus + params.pme_coeff * slope)


# ---------------------------------------------------------------------------
# Duality certificate


@dataclass(frozen=True)
class DualCertificate:
    """Outcome of the backward dual solve paired against a residual path.

    lhs                 terminal pairing of the residual with theta
    rhs_coeff_term      clamp-mismatch term (zero when the clamp never binds)
    rhs_momentum_term   transport term paired with the dual gradient
    initial_term        pairing at the initial time (zero for matched data)
    bound               certified majorant of |lhs| via Cauchy-Schwarz
    identity_residual   defect of the discrete duality identity
    measured_c          bound / (|d_x theta|_2 * sqrt(eps * T))
    """

    eta: float
    cap: float
    theta: Field
    lhs: float
    rhs_coeff_term: float
    rhs_momentum_term: float
    initial_term: float
    bound: float
    identity_residual: float
    measured_c: float

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "cap": self.cap,
            "lhs": self.lhs,
            "rhs_coeff_term": self.rhs_coeff_term,
            "rhs_momentum_term": self.rhs_momentum_term,
            "initial_term": self.initial_term,
            "bound": self.bound,
            "identity_residual": self.identity_residual,
            "measured_c": self.measured_c,
            "theta": self.theta.values.tolist(),
            "grid": {
                "x_min": self.theta.grid.x_min,
                "x_max": self.theta.grid.x_max,
                "n_cells": self.theta.grid.n_cells,
            },
        }


def default_clamp_bounds(max_rho: float, params: PhysParams) -> tuple[float, float]:
    """Clamp window around the coefficient scale alpha * max_rho**(alpha-1)."""
    scale = params.alpha * max_rho ** (params.alpha - 1.0)
    return 1e-3 * scale, 10.0 * scale


def _laplacian(values: np.ndarray, dx: float) -> np.ndarray:
    """Second difference with zero-flux faces, matching the forward solvers'
    diffusion stencil exactly (same flux routine, so the operator is the
    symmetric one the adjoint argument needs)."""
    return -np.diff(diffusive_face_flux(values, dx, 1.0)) / dx


def dual_certificate(times: np.ndarray,
                     rho_eps_path: np.ndarray,
                     rho_tilde_path: np.ndarray,
                     momentum_path: np.ndarray,
                     theta: Field,
                     eta: float,
                     cap: float,
                     params: PhysParams,
                     rho_floor: float = 0.0) -> DualCertificate:
    """Pair the terminal residual against theta and certify it.

    The paths must hold both solutions and the effective momentum at every
    accepted step of a shared dt sequence (grid and time stamps common to
    all three).  The dual problem d_t psi + (1/alpha) a_n d_xx psi = 0,
    psi(T) = theta is marched from T backwards with the exact adjoint of the
    forward explicit step; with that choice the duality identity is exact up
    to round-off and clamping is the only source of the coefficient term.
    """
    if not 0.0 < eta < cap:
        raise ValueError(f"need 0 < eta < cap, got eta={eta}, cap={cap}")
    times = np.asarray(times, dtype=float)
    n_steps = times.size - 1
    if n_steps < 1:
        raise ValueError("need at least two time stamps")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time stamps must be strictly increasing")
    grid = theta.grid
    shape = (times.size, grid.n_cells)
    for name, path in (("rho_eps", rho_eps_path), ("rho_tilde", rho_tilde_path),
                       ("momentum", momentum_path)):
        if path.shape != shape:
            raise ValueError(f"{name} path has shape {path.shape}, expected {shape}")
    if abs(params.pme_coeff * params.alpha - 1.0) > 1e-12:
        raise ValueError(
            "the duality identity requires pme_coeff == 1/alpha "
            f"(got pme_coeff={params.pme_coeff}, alpha={params.alpha})"
        )
    check_support_margin(np.abs(theta.values), grid, lo=0.0, strict=True)

    dx = grid.dx
    alpha = params.alpha
    inv_alpha = 1.0 / alpha

    psi = theta.values.copy()
    lhs = dx * float((rho_eps_path[-1] - rho_tilde_path[-1]) @ theta.values)

    coeff_term = 0.0
    momentum_term = 0.0
    coeff_sq = 0.0          # sum dt dx (a - a_n)^2 R^2 / a_n
    dual_energy_sq = 0.0    # sum dt dx a_n (Lap psi)^2
    mom_sq = 0.0            # sum dt dx F^2
    grad_psi_sq = 0.0       # sum dt dx (d psi / dx)^2

    for k in range(n_steps - 1, -1, -1):
        dt = times[k + 1] - times[k]
        rho_e = rho_eps_path[k]
        rho_t = rho_tilde_path[k]
        mom = momentum_path[k]
        r = rho_e - rho_t

        w_diff = rho_e ** alpha - rho_t ** alpha
        near = np.abs(r) < COINCIDENCE_TOL
        denom = np.where(near, 1.0, r)
        a = np.where(near, alpha * rho_e ** (alpha - 1.0), w_diff / denom)
        a_n = np.clip(a, eta, cap)

        lap_psi = _laplacian(psi, dx)
        mismatch = (a - a_n) * r
        coeff_term += dt * inv_alpha * dx * float(mismatch @ lap_psi)
        coeff_sq += dt * dx * float((mismatch * mismatch / a_n).sum())
        dual_energy_sq += dt * dx * float((a_n * lap_psi * lap_psi).sum())

        v = _velocity(rho_e, mom, max(rho_floor, 0.0))
        flux = advective_face_flux(mom, v)
        dpsi = np.diff(psi)
        momentum_term += dt * float(flux[1:-1] @ dpsi)
        mom_sq += dt * dx * float((flux[1:-1] * flux[1:-1]).sum())
        grad_psi_sq += dt * dx * float((dpsi * dpsi).sum()) / (dx * dx)

        psi = psi + dt * inv_alpha * a_n * lap_psi

    initial_term = dx * float((rho_eps_path[0] - rho_tilde_path[0]) @ psi)
    identity_residual = abs(lhs - initial_term - coeff_term - momentum_term)
    # |lhs| <= |initial| + |coeff| + |momentum| + residual holds by definition
    # of the residual; Cauchy-Schwarz majorizes the two middle terms
    bound = (abs(initial_term)
             + inv_alpha * math.sqrt(coeff_sq) * math.sqrt(dual_energy_sq)
             + math.sqrt(mom_sq) * math.sqrt(grad_psi_sq)
             + identity_residual)

    elapsed = times[-1] - times[0]
    grad_theta = lp_norm(derivative(theta), 2)
    if params.epsilon > 0.0 and elapsed > 0.0 and grad_theta > 0.0:
        measured_c = bound / (grad_theta * math.sqrt(params.epsilon * elapsed))
    else:
        measured_c = math.nan

    return DualCertificate(
        eta=eta, cap=cap, theta=theta, lhs=lhs,
        rhs_coeff_term=coeff_term, rhs_momentum_term=momentum_term,
        initial_term=initial_term, bound=bound,
        identity_residual=identity_residual, measured_c=measured_c,
    )
