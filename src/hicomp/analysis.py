"""Measurements: negative-norm errors, entropy functionals, support leakage,
the interface-law residual, and the duality-based error certificate.

The certificate solves the backward dual diffusion problem with the exact
adjoint of the forward explicit step, so the discrete duality identity holds
to round-off and the reported bound majorizes the tested pairing by
construction (Cauchy-Schwarz applied to an exact identity).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields

import numpy as np

from .grid import (Field, antiderivative, check_support_margin, derivative,
                   integrate, lp_norm, write_csv, _embed)
from .params import PhysParams
from .pme import PmeState, _support_range, advance_limit, interface_positions, pme_pressure
from .cns import advective_face_flux, _velocity

__all__ = [
    "h_minus1_norm",
    "error_pair",
    "DiagnosticsRecord",
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


def _span_diagnostics(t: float, rho_row: np.ndarray, span: tuple[int, int], v: np.ndarray,
                      u: np.ndarray, rho_max: float, floor: float, dx: float,
                      params: PhysParams) -> DiagnosticsRecord:
    """Diagnostics of the flow state at time t whose density grid row is
    `rho_row`, from its v and u on its step span [s0, s1) and rho_max, the
    span's density maximum.  The pointwise terms are computed on the span
    and summed as grid rows.  Outside the span rho is the floor and v and u
    are exact zeros, so there each row holds its value at a vacuum halo
    cell of the span."""
    s0, s1 = span
    rho = rho_row[s0:s1]
    pressure_part = params.epsilon / (params.gamma - 1.0) * rho ** params.gamma
    vac = pressure_part[0 if s0 > 0 else -1]   # a halo cell's, unless the span is the grid
    terms = _embed(np.array([0.5 * rho * u * u + pressure_part,   # energy
                             0.5 * rho * v * v + pressure_part,   # BD entropy
                             rho * v * v, rho]), s0, rho_row.size,
                   np.array([[vac], [vac], [0.0], [floor]]))
    energy, bd_entropy, rho_v_sq, mass = terms.sum(axis=1).tolist()
    return DiagnosticsRecord(
        t=t,
        mass=dx * mass,
        energy=dx * energy,
        bd_entropy=dx * bd_entropy,
        sqrt_rho_v_l2=math.sqrt(dx * rho_v_sq),
        max_rho=rho_max,
    )


def write_diagnostics_csv(records, path, extra_comments: tuple[str, ...] = ()) -> None:
    write_csv(path, ("t", "dt", "mass", "energy", "bd_entropy", "sqrt_rho_v_l2", "max_rho"),
              ((rec.t, dt, rec.mass, rec.energy, rec.bd_entropy, rec.sqrt_rho_v_l2,
                rec.max_rho) for rec, dt in records),
              extra_comments)


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
                        threshold: float = 1e-6) -> float:
    """One-sided pressure slope at the right support edge.

    The last few cells of the numerical profile are smeared by the scheme
    and carry an O(1) relative distortion at any resolution, so the slope
    cannot be read off them directly.  The pressure is asymptotically linear
    at the edge; fitting a quadratic over an interior band (excluding the
    smeared cells) and evaluating its derivative at the detected edge gives
    an estimate that converges under refinement.
    """
    first, k = _support_range(state.rho.values, threshold)
    grid = state.rho.grid
    dx = grid.dx
    edge = float(grid.centers[k] + dx / 2.0)
    width = (k - first + 1) * dx
    band = max(10 * dx, 0.05 * width)
    hi = k - 3  # exclude the three cells the scheme smears
    lo = k - int(round(band / dx))
    if lo < 0 or hi - lo < 4:
        raise ValueError("support too narrow to measure an interior slope")
    x = grid.centers[lo:hi + 1] - edge
    p = pme_pressure(state, params).values[lo:hi + 1]
    coeffs = np.polyfit(x, p, 2)
    return float(coeffs[1])  # derivative of the fit at x = edge


def darcy_residual(state: PmeState, params: PhysParams, dt_probe: float,
                   threshold: float = 1e-6) -> float:
    """Mismatch between the measured right-interface speed and minus the
    one-sided pressure slope at the edge.

    The edge speed is the secant over [t, t+dt_probe]; the slope is read at
    the midpoint state, which pairs with the secant to second order in
    dt_probe.  The slope carries the diffusion normalization so the law is
    tested for any pme_coeff.  dt_probe must be large enough for the edge to
    cross several cells, otherwise the speed is quantization noise.  Both
    later states come from one limit march, `pme.advance_limit`.
    """
    s_right_0 = interface_positions(state, threshold)[1]
    snaps = advance_limit(state, params, (state.t + 0.5 * dt_probe, state.t + dt_probe))
    mid, end = snaps[0], snaps[-1]
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
        """Every scalar field in declaration order, then theta's values and
        its grid."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "theta"}
        doc["theta"] = self.theta.values.tolist()
        doc["grid"] = asdict(self.theta.grid)
        return doc


def default_clamp_bounds(max_rho: float, params: PhysParams) -> tuple[float, float]:
    """Clamp window around the coefficient scale alpha * max_rho**(alpha-1)."""
    scale = params.alpha * max_rho ** (params.alpha - 1.0)
    return 1e-3 * scale, 10.0 * scale


# steps whose path quantities the backward dual pass computes together
_BLOCK = 16


def _path_block(paths, times: np.ndarray, k0: int, k1: int, alpha: float, floor: float,
                dx: float, clamps: list[tuple[float, float]]):
    """The path quantities of steps k0 <= k < k1 of the backward dual pass,
    one entry per step: (dt, dt dx |F|^2, binding, a, (dt/alpha) a, F, r),
    where binding lists the indices of the clamp windows that a leaves,
    r = rho_eps - rho_tilde, a is the coefficient quotient and F the interior
    upwind momentum flux, each a full-length row.  r is None unless some
    clamp binds in the block, since only a binding clamp reads it.

    They are computed on (steps, span) arrays over the union of the block's
    windows plus one cell, so that each ufunc is called once per block.
    Outside that span every cell of a row equals the row's value at a vacuum
    cell of the span (one outside every window of the block), unless the
    span is the whole grid."""
    n_cells = paths[0].shape[-1]
    windows = [[path.window(k) for k in range(k0, k1)] for path in paths]
    spans = [(lo, lo + values.size) for rows in windows for lo, values, _ in rows
             if values.size]
    s0 = max(min((lo for lo, _ in spans), default=0) - 1, 0)
    s1 = min(max((hi for _, hi in spans), default=0) + 1, n_cells)
    # a span cell outside every window of the block, if the span is not the grid
    vac = slice(0, 1) if s0 > 0 else slice(s1 - s0 - 1, s1 - s0)
    block = np.empty((len(paths), k1 - k0, s1 - s0))
    block[:] = np.array([[vacuum for _, _, vacuum in rows] for rows in windows])[..., None]
    for q, rows in enumerate(windows):
        for i, (lo, values, _) in enumerate(rows):
            block[q, i, lo - s0:lo - s0 + values.size] = values
    rho_e, rho_t, mom = block
    r = rho_e - rho_t

    w_diff = rho_e ** alpha - rho_t ** alpha
    near = np.abs(r) < COINCIDENCE_TOL
    denom = np.where(near, 1.0, r)
    a = np.where(near, alpha * rho_e ** (alpha - 1.0), w_diff / denom)
    # the span holds a vacuum cell of every row, so these are the rows' extrema
    binding = [[c for c, (eta, cap) in enumerate(clamps) if not (a_min >= eta and a_max <= cap)]
               for a_min, a_max in zip(a.min(axis=1).tolist(), a.max(axis=1).tolist())]

    v = _velocity(rho_e, mom, floor)
    # every face outside the span joins two vacuum cells, where F = mom
    flux = _embed(advective_face_flux(mom, v)[:, 1:-1], s0, n_cells - 1, mom[:, vac])
    dts = times[k0 + 1:k1 + 1] - times[k0:k1]
    mom_terms = (dts * dx * (flux * flux).sum(axis=1)).tolist()
    a = _embed(a, s0, n_cells, a[:, vac])
    coef = (dts * (1.0 / alpha))[:, None] * a
    r = _embed(r, s0, n_cells, r[:, vac]) if any(binding) else [None] * len(r)
    return dts, mom_terms, binding, a, coef, flux, r


def _path_steps(paths, times: np.ndarray, alpha: float, floor: float, dx: float,
                clamps: list[tuple[float, float]]):
    """_path_block's entries of every step, from the last step to the first,
    computed _BLOCK steps at a time."""
    n_steps = times.size - 1
    for k0 in range((n_steps - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        yield from reversed(list(zip(*_path_block(paths, times, k0, min(k0 + _BLOCK, n_steps),
                                                  alpha, floor, dx, clamps))))


def dual_certificate(times: np.ndarray,
                     rho_eps_path,
                     rho_tilde_path,
                     momentum_path,
                     tests: Sequence[tuple[Field, float, float]],
                     params: PhysParams,
                     rho_floor: float = 0.0) -> list[DualCertificate]:
    """Pair the terminal residual against each test's theta and certify it.

    `tests` is a sequence of (theta, eta, cap): a test function on the
    paths' grid and its clamp window.  The paths must hold both solutions and
    the effective momentum at every accepted step of a shared dt sequence
    (grid and time stamps common to all three).  A path is a window store
    `study.WindowedPath` of shape (steps+1, n); only its `shape` and one
    row at a time, through `window(k)`, are read.  The dual problem
    d_t psi + (1/alpha) a_n d_xx psi = 0, psi(T) = theta is marched from T
    backwards with the exact adjoint of the forward explicit step; with that
    choice the duality identity is exact up to round-off and clamping is the
    only source of the coefficient term.

    One backward pass serves every test, and each certificate's finite
    fields are bit-identical to the ones a single-test pass gives; a NaN
    field may differ from it in its sign bit (see the second point):

    - The path quantities (r, the three fractional pows, a, v and the
      upwind flux) are pointwise and do not read psi, so `_path_block`
      computes them for _BLOCK consecutive steps at once, on (steps, span)
      arrays over the union of the block's windows plus one cell.  The march
      then walks the block from its last step to its first and does only the
      work that reads psi.  Outside the span every cell of a row equals the
      row's vacuum cell, and each summand becomes a grid row through
      `grid._embed` before its reduction.  Each step keeps its bits:
      elementwise ufuncs, fractional pow included, give an element the same
      result wherever it lies in a contiguous array, `.sum(axis=1)` sums
      each row as a 1-D sum does, min and max do not depend on order, and
      every scalar accumulator adds its steps in the order of the march.
    - Tests with bit-equal thetas share one dual row while their clamps act
      alike.  A clamp that does not bind at a step (eta <= a <= cap on every
      cell) gives clip(a) == a bit for bit and a mismatch of +-0 on every
      cell.  Its coeff_sq addition is then +0.0, which is skipped, and its
      coefficient pairing equals a zero row's: +-0, an exact no-op on an
      accumulator that is never -0.0, or NaN alike if the Laplacian is not
      finite.  That NaN's sign bit follows the zeros it came from: the
      +0.0 row's here, the mismatch row's, which carry r's sign, in a
      single-test pass.  So a test whose clamp does not bind marches psi
      with a itself.  Each step keys a test by its clamp if that clamp binds, else
      by a; a row whose tests' keys differ splits into one row per key.
      Rows never merge, so the rows are the distinct (row, key) pairs of the
      tests in test order, and they are renumbered only when one splits.
      A row's sums split with it: each part starts from a copy of them.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("need at least one (theta, eta, cap) test")
    times = np.asarray(times, dtype=float)
    n_steps = times.size - 1
    if n_steps < 1:
        raise ValueError("need at least two time stamps")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time stamps must be strictly increasing")
    grid = tests[0][0].grid
    n_cells = rho_eps_path.shape[-1]
    shape = (times.size, n_cells)
    for name, path in (("rho_eps", rho_eps_path), ("rho_tilde", rho_tilde_path),
                       ("momentum", momentum_path)):
        if path.shape != shape:
            raise ValueError(f"{name} path has shape {path.shape}, expected {shape}")
    if abs(params.pme_coeff * params.alpha - 1.0) > 1e-12:
        raise ValueError(
            "the duality identity requires pme_coeff == 1/alpha "
            f"(got pme_coeff={params.pme_coeff}, alpha={params.alpha})"
        )
    clamps: dict[tuple[float, float], int] = {}
    for i, (theta, eta, cap) in enumerate(tests):
        if theta.grid.n_cells != n_cells:
            raise ValueError(f"test {i}: theta has {theta.grid.n_cells} cells, "
                             f"the paths have {n_cells}")
        if theta.grid != grid:
            raise ValueError(f"test {i}: theta's grid {theta.grid} differs from "
                             f"test 0's {grid}")
        if not 0.0 < eta < cap:
            raise ValueError(f"test {i}: need 0 < eta < cap, got eta={eta}, cap={cap}")
        check_support_margin(np.abs(theta.values), grid, lo=0.0, strict=True)
        clamps.setdefault((eta, cap), len(clamps))

    dx = grid.dx
    alpha = params.alpha
    inv_alpha = 1.0 / alpha
    floor = max(rho_floor, 0.0)
    clamp_list = list(clamps)
    clamp_of = [clamps[(eta, cap)] for _, eta, cap in tests]
    paths = (rho_eps_path, rho_tilde_path, momentum_path)

    def residual(k: int) -> np.ndarray:
        """rho_eps - rho_tilde at step k, on the whole grid."""
        rho_e, rho_t = (_embed(values, lo, n_cells, vacuum) for lo, values, vacuum
                        in (rho_eps_path.window(k), rho_tilde_path.window(k)))
        return rho_e - rho_t

    # one dual row per distinct theta at first; row_of maps each test to its
    # row, keys holds each row's coefficient row (0 is a itself) and sums its
    # coeff_term, momentum_term, dual_energy_sq and grad_psi_sq (named below).
    # Elementwise work acts on all rows at once; every dot is a 1-D call on
    # one row, and every sum runs along a row, so each certificate keeps its
    # bits.
    first_of: dict[bytes, int] = {}
    row_of = [first_of.setdefault(theta.values.tobytes(), len(first_of))
              for theta, _, _ in tests]
    psi = np.stack([tests[row_of.index(j)][0].values for j in range(len(first_of))])
    faces = np.zeros((len(psi), n_cells + 1))   # zero-flux walls stay zero
    keys = [0] * len(psi)
    sums = [[0.0] * 4 for _ in psi]
    keyed_by = []                # the binding clamps that keys were drawn for
    zero_row = np.zeros(n_cells)
    r_final = residual(n_steps)
    lhs = [dx * float(r_final @ theta.values) for theta, _, _ in tests]

    coeff_sq = [0.0] * len(clamps)      # sum dt dx (a - a_n)^2 R^2 / a_n
    mom_sq = 0.0                        # sum dt dx F^2

    for dt, mom_step, binding, a, coef, flux, r in _path_steps(paths, times, alpha, floor,
                                                                dx, clamp_list):
        mom_sq += mom_step
        # coefficient row 0 is a itself, row b + 1 the b-th binding clamp's;
        # step_rows holds each one times dt / alpha
        coeff_rows, step_rows, mismatch = [a], [coef], [zero_row]
        for c in binding:
            a_c = np.clip(a, *clamp_list[c])
            mismatch.append((a - a_c) * r)
            coeff_sq[c] += dt * dx * float((mismatch[-1] * mismatch[-1] / a_c).sum())
            coeff_rows.append(a_c)
            step_rows.append(dt * inv_alpha * a_c)
        if binding != keyed_by:
            # an unchanged set of binding clamps keeps every key
            slot = {c: b + 1 for b, c in enumerate(binding)}
            pairs: dict[tuple[int, int], int] = {}
            row_of = [pairs.setdefault((j, slot.get(clamp_of[i], 0)), len(pairs))
                      for i, j in enumerate(row_of)]
            if len(pairs) > len(psi):
                psi = psi[[j for j, _ in pairs]]
                sums = [list(sums[j]) for j, _ in pairs]
                faces = np.zeros((len(psi), n_cells + 1))
            keys = [key for _, key in pairs]
            keyed_by = binding
        if binding:
            a_n = np.array([coeff_rows[key] for key in keys])
            coef = np.array([step_rows[key] for key in keys])
        else:
            a_n = a

        # the zero-flux stencil -(F[1:] - F[:-1]) / dx of the faces
        # F = -1.0 * dpsi / dx; dividing by -dx is the same negation, exactly
        dpsi = psi[:, 1:] - psi[:, :-1]
        np.divide(dpsi, -dx, out=faces[:, 1:-1])
        lap_psi = faces[:, 1:] - faces[:, :-1]
        np.divide(lap_psi, -dx, out=lap_psi)
        energy = (a_n * lap_psi * lap_psi).sum(axis=1).tolist()
        dpsi_sq = (dpsi * dpsi).sum(axis=1).tolist()
        # a zero mismatch row pairs to +-0 with a finite Laplacian, which a
        # finite energy implies; adding +-0 or 0.0 leaves an accumulator that
        # is never -0.0 as it is
        for row_sums, key, lap_row, dpsi_row, energy_row, dpsi_sq_row in zip(
                sums, keys, lap_psi, dpsi, energy, dpsi_sq):
            row_sums[0] += (dt * inv_alpha * dx * float(mismatch[key] @ lap_row)
                            if key or not math.isfinite(energy_row) else 0.0)
            row_sums[1] += dt * float(flux @ dpsi_row)
            row_sums[2] += dt * dx * energy_row
            row_sums[3] += dt * dx * dpsi_sq_row / (dx * dx)

        lap_psi *= coef
        psi += lap_psi

    r_initial = residual(0)
    elapsed = times[-1] - times[0]
    certs = []
    for i, (theta, eta, cap) in enumerate(tests):
        coeff_term, momentum_term, dual_energy_sq, grad_psi_sq = sums[row_of[i]]
        initial_term = dx * float(r_initial @ psi[row_of[i]])
        identity_residual = abs(lhs[i] - initial_term - coeff_term - momentum_term)
        # |lhs| <= |initial| + |coeff| + |momentum| + residual holds by
        # definition of the residual; Cauchy-Schwarz majorizes the two middle
        # terms
        bound = (abs(initial_term)
                 + inv_alpha * math.sqrt(coeff_sq[clamp_of[i]]) * math.sqrt(dual_energy_sq)
                 + math.sqrt(mom_sq) * math.sqrt(grad_psi_sq)
                 + identity_residual)
        grad_theta = lp_norm(derivative(theta), 2)
        if params.epsilon > 0.0 and elapsed > 0.0 and grad_theta > 0.0:
            measured_c = bound / (grad_theta * math.sqrt(params.epsilon * elapsed))
        else:
            measured_c = math.nan
        certs.append(DualCertificate(
            eta=eta, cap=cap, theta=theta, lhs=lhs[i],
            rhs_coeff_term=coeff_term, rhs_momentum_term=momentum_term,
            initial_term=initial_term, bound=bound,
            identity_residual=identity_residual, measured_c=measured_c,
        ))
    return certs
