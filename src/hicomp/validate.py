"""Built-in invariant suite: quick seeded checks of the solver guarantees
(analytic oracle, contraction, comparison, maximum principles, conservation,
pressureless reduction)."""

from __future__ import annotations

import numpy as np

from .cns import well_prepared_init
from .config import tent_field
from .grid import Field, Grid, advance, integrate, lp_norm, march
from .params import PhysParams
from .pme import PmeState, barenblatt_field, barenblatt_params

__all__ = ["random_compact_density", "pair_property_drifts", "run_validation"]


def random_compact_density(rng: np.random.Generator, grid: Grid,
                           max_height: float = 1.0) -> Field:
    """Sum of 1-3 random nonnegative parabolic bumps supported well inside
    the domain."""
    x = grid.centers
    span = grid.x_max - grid.x_min
    vals = np.zeros(grid.n_cells)
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(grid.x_min + 0.35 * span, grid.x_max - 0.35 * span)
        width = rng.uniform(0.05 * span, 0.15 * span)
        height = rng.uniform(0.2, 1.0) * max_height
        vals += height * np.maximum(1.0 - ((x - center) / width) ** 2, 0.0)
    if vals.max() > max_height:
        vals *= max_height / vals.max()
    return Field(grid, vals)


def pair_property_drifts(rho1: Field, rho2: Field, params: PhysParams,
                         t_end: float) -> tuple[float, float, float, float]:
    """Evolve two densities with a shared dt sequence and track the discrete
    structure: returns (contraction drift, comparison violation, max-principle
    violation, relative mass drift), each maximized over the whole run.

    The comparison number is only meaningful when rho1 <= rho2 initially.
    """
    dx = rho1.grid.dx
    pos_part = dx * float(np.maximum(rho1.values - rho2.values, 0.0).sum())
    max1 = float(rho1.values.max())
    mass1 = integrate(rho1)
    contraction = comparison = max_violation = 0.0
    states = (PmeState(t=0.0, rho=rho1), PmeState(t=0.0, rho=rho2))
    for states, _ in march(states, params, t_end):
        r1, r2 = states[0].rho.values, states[1].rho.values
        new_pos = dx * float(np.maximum(r1 - r2, 0.0).sum())
        contraction = max(contraction, new_pos - pos_part)
        pos_part = new_pos
        comparison = max(comparison, new_pos)
        max_violation = max(max_violation, float(r1.max()) - max1)
    mass_drift = abs(integrate(states[0].rho) - mass1) / mass1
    return contraction, comparison, max_violation, mass_drift


def run_validation(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every built-in check; returns (name, passed, detail) rows."""
    rows: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(seed)

    # analytic self-similar oracle
    grid = Grid(-8.0, 8.0, 1024)
    params2 = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
    bb = barenblatt_params(2.0, 1.0, params2.pme_coeff)
    state = PmeState(t=0.5, rho=barenblatt_field(bb, 0.5, grid))
    (state,), _ = advance((state,), params2, 1.0)
    exact = barenblatt_field(bb, 1.0, grid)
    rel_l1 = lp_norm(Field(grid, state.rho.values - exact.values), 1) / lp_norm(exact, 1)
    rows.append(("barenblatt-oracle", rel_l1 <= 2e-2, f"rel L1 error {rel_l1:.2e}"))

    # monotone-scheme structure on seeded pairs
    small = Grid(-8.0, 8.0, 256)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(4):
        alpha = float(rng.uniform(1.2, 2.2))
        params = PhysParams(alpha=alpha, gamma=2.0, epsilon=0.0)
        r1 = random_compact_density(rng, small)
        bump = random_compact_density(rng, small, max_height=0.5)
        r2 = Field(small, r1.values + bump.values)
        drifts = pair_property_drifts(r1, r2, params, t_end=0.05)
        worst = [max(w, d) for w, d in zip(worst, drifts)]
    rows.append(("l1-contraction", worst[0] <= 1e-10, f"max drift {worst[0]:.2e}"))
    rows.append(("comparison-principle", worst[1] <= 1e-10, f"max violation {worst[1]:.2e}"))
    rows.append(("max-principle", worst[2] <= 1e-12, f"max violation {worst[2]:.2e}"))
    rows.append(("pme-mass-conservation", worst[3] <= 1e-12, f"max rel drift {worst[3]:.2e}"))

    # flow solver conservation
    params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
    rho0 = random_compact_density(rng, small)
    cns = well_prepared_init(rho0)
    mass0 = integrate(cns.rho)
    (cns,), _ = advance((cns,), params, 0.05)
    drift = abs(integrate(cns.rho) - mass0) / mass0
    rows.append(("cns-mass-conservation", drift <= 1e-10, f"rel drift {drift:.2e}"))

    # flow maximum principle at an alpha above 1/CFL, where the diffusive
    # CFL factor is capped
    params3 = PhysParams(alpha=3.0, gamma=2.0, epsilon=0.0)
    cns = well_prepared_init(tent_field(Grid(-8.0, 8.0, 512), 1.0))
    peaks = [float(cns.rho.values.max())]
    peaks += [float(s.rho.values.max()) for (s,), _ in march((cns,), params3, 0.05)]
    rise = float(np.max(np.diff(peaks), initial=0.0))
    rows.append(("flow-max-principle", rise <= 0.0, f"max one-step peak rise {rise:.2e}"))

    # pressureless reduction: flow density must equal the limit path exactly
    params0 = PhysParams(alpha=1.5, gamma=2.0, epsilon=0.0)
    cns = well_prepared_init(random_compact_density(rng, small))
    equal = [np.array_equal(flow.rho.values, limit.rho.values)
             for (flow, limit), _ in march((cns, PmeState(t=0.0, rho=cns.rho)), params0, 0.4)]
    rows.append(("pressureless-reduction", all(equal),
                 f"bitwise equal for {len(equal)} steps" if all(equal) else "paths diverged"))
    return rows
