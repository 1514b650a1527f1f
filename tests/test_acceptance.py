"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import time

import numpy as np
import pytest

from hicomp.analysis import (
    darcy_residual,
    default_clamp_bounds,
    dual_certificate,
)
from hicomp.cns import well_prepared_init
from hicomp.config import parse_config, tent_field
from hicomp.grid import Field, Grid, derivative, integrate, lp_norm
from hicomp.params import PhysParams
from hicomp.pme import (
    CFL,
    PmeState,
    barenblatt_field,
    barenblatt_params,
    pme_pressure,
)
from hicomp.study import (
    bump_test_function,
    run_paired_paths,
    run_rate_study,
    saturating_velocity,
    support_study,
)
from hicomp.validate import pair_property_drifts, random_compact_density
from reference import (advance, cfl_dt, cns_step, diagnostics, march, pme_step,
                       stability_limit)

SEED = 20260809


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def rate_study_result():
    cfg = parse_config(json.dumps({
        "thresholds": {"support": 1e-8, "floor": 1e-10},
    }))
    t0 = time.monotonic()
    result = run_rate_study(cfg)
    return result, time.monotonic() - t0


def test_criterion_1_barenblatt_oracle():
    params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
    bb = barenblatt_params(2.0, 1.0, params.pme_coeff)

    def run(n):
        grid = Grid(-8.0, 8.0, n)
        state = PmeState(t=0.5, rho=barenblatt_field(bb, 0.5, grid))
        (state,), _ = advance((state,), params, 1.0)
        exact = barenblatt_field(bb, 1.0, grid)
        return lp_norm(Field(grid, state.rho.values - exact.values), 1) / lp_norm(exact, 1)

    t0 = time.monotonic()
    err = run(2048)
    elapsed = time.monotonic() - t0
    err_fine = run(4096)
    factor = err / err_fine
    ok = err <= 2e-2 and factor >= 1.7 and elapsed <= 10.0
    assert report(1, "barenblatt oracle", ok,
                  f"rel L1 {err:.3e} (<=2e-2), halving factor {factor:.2f} (>=1.7), "
                  f"runtime {elapsed:.1f}s (<=10s)")


def test_criterion_2_monotone_scheme_properties():
    rng = np.random.default_rng(SEED)
    grid = Grid(-8.0, 8.0, 192)
    t0 = time.monotonic()
    worst_contraction = worst_comparison = worst_max = worst_pme_mass = 0.0
    worst_cns_mass = 0.0
    for _ in range(50):
        alpha = float(rng.uniform(1.2, 2.2))
        params = PhysParams(alpha=alpha, gamma=float(rng.uniform(1.5, 2.5)),
                            epsilon=0.0)
        r1 = random_compact_density(rng, grid)
        bump = random_compact_density(rng, grid, max_height=0.5)
        r2 = Field(grid, r1.values + bump.values)
        con, comp, mx, mass = pair_property_drifts(r1, r2, params, t_end=0.04)
        worst_contraction = max(worst_contraction, con)
        worst_comparison = max(worst_comparison, comp)
        worst_max = max(worst_max, mx)
        worst_pme_mass = max(worst_pme_mass, mass)

        eps = float(rng.uniform(1e-3, 1e-1))
        params_eps = PhysParams(alpha=alpha, gamma=2.0, epsilon=eps)
        cns = well_prepared_init(r1)
        m0 = integrate(cns.rho)
        (cns,), _ = advance((cns,), params_eps, 0.02)
        worst_cns_mass = max(worst_cns_mass, abs(integrate(cns.rho) - m0) / m0)
    elapsed = time.monotonic() - t0
    ok = (worst_contraction <= 1e-10 and worst_comparison <= 1e-10
          and worst_max <= 1e-12 and worst_pme_mass <= 1e-10
          and worst_cns_mass <= 1e-10 and elapsed <= 60.0)
    assert report(2, "monotone scheme, 50 seeded pairs", ok,
                  f"contraction {worst_contraction:.1e} (<=1e-10), "
                  f"comparison {worst_comparison:.1e} (<=1e-10), "
                  f"max-principle {worst_max:.1e} (<=1e-12), "
                  f"mass pme {worst_pme_mass:.1e} / cns {worst_cns_mass:.1e} (<=1e-10), "
                  f"runtime {elapsed:.0f}s (<=60s)")


def test_criterion_3_effective_velocity_bound():
    grid = Grid(-8.0, 8.0, 1024)
    rho0 = tent_field(grid, 1.0)
    details = []
    ok = True
    for eps in (1e-2, 1e-3):
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
        state = well_prepared_init(rho0)
        sup = 0.0
        for (s,), dt in march((state,), params, 0.5,
                              snapshot_times=(0.125, 0.25, 0.375, 0.5)):
            rec = diagnostics(s, params)
            sup = max(sup, rec.sqrt_rho_v_l2)
        envelope = 1.05 * math.sqrt(eps) / math.sqrt(params.gamma - 1.0) \
            * lp_norm(rho0, params.gamma) ** (params.gamma / 2.0)
        ok &= sup <= envelope
        details.append(f"eps={eps:g}: sup {sup:.3e} <= {envelope:.3e}")
    assert report(3, "effective-velocity bound", ok, "; ".join(details))


def test_criterion_4_rate_study(rate_study_result):
    result, elapsed = rate_study_result
    ok = (result.slope_h1 >= 0.45 and result.r2_h1 >= 0.98
          and result.slope_l2 >= 0.20 and result.r2_l2 >= 0.95
          and result.gate_passed and elapsed <= 900.0)
    assert report(4, "rate study", ok,
                  f"H^-1 slope {result.slope_h1:.3f} (>=0.45) r2 {result.r2_h1:.4f} (>=0.98), "
                  f"L2 slope {result.slope_l2:.3f} (>=0.20) r2 {result.r2_l2:.4f} (>=0.95), "
                  f"grid ratio {result.grid_convergence_ratio:.3f} (<=0.1), "
                  f"runtime {elapsed:.0f}s (<=900s)")


def test_criterion_5_mass_leakage(rate_study_result):
    result, _ = rate_study_result
    ok = result.slope_mass >= 0.20 and result.r2_mass >= 0.9
    assert report(5, "mass leakage", ok,
                  f"slope {result.slope_mass:.3f} (>=0.20), r2 {result.r2_mass:.4f} (>=0.9)")


def test_criterion_6_support_growth_and_smoothing():
    ok = True
    details = []
    for alpha in (1.5, 2.0):
        cfg = parse_config(json.dumps({
            "grid": {"n_cells": 512},
            "params": {"alpha": alpha},
            "t_end": 6.0,
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        }))
        growth, _, decay, _ = support_study(cfg)
        target = 1.0 / (alpha + 1.0)
        ok &= abs(growth - target) <= 0.05 and abs(decay + target) <= 0.05
        details.append(f"alpha={alpha}: growth {growth:+.3f} (vs {target:+.3f}), "
                       f"decay {decay:+.3f} (vs {-target:+.3f})")
    assert report(6, "support growth and smoothing decay", ok, "; ".join(details))


def test_criterion_7_darcy_law():
    params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0, pme_coeff=1.0)
    bb = barenblatt_params(2.0, 1.0, 1.0)
    residuals = {}
    for n in (1024, 2048, 4096):
        grid = Grid(-8.0, 8.0, n)
        state = PmeState(t=1.0, rho=barenblatt_field(bb, 1.0, grid))
        residuals[n] = darcy_residual(state, params, dt_probe=0.1)
    grid = Grid(-8.0, 8.0, 4096)
    state = PmeState(t=1.0, rho=barenblatt_field(bb, 1.0, grid))
    allowed = 0.1 * float(np.abs(derivative(pme_pressure(state, params)).values).max())
    r1 = residuals[2048] / residuals[1024]
    r2 = residuals[4096] / residuals[2048]
    ok = residuals[4096] <= allowed and r1 <= 0.7 and r2 <= 0.7
    assert report(7, "interface law", ok,
                  f"residual(4096) {residuals[4096]:.3e} (<= {allowed:.3e}), "
                  f"halving ratios {r1:.2f}, {r2:.2f} (<=0.7)")


def test_criterion_8_duality_certificate():
    grid = Grid(-8.0, 8.0, 512)
    rho0 = tent_field(grid, 1.0)
    thetas = [bump_test_function(grid, 0.0, 2.0), bump_test_function(grid, 1.0, 1.0)]
    eta, cap = default_clamp_bounds(float(rho0.values.max()),
                                    PhysParams(alpha=1.25, gamma=2.0, epsilon=1.0))
    ok = True
    details = []
    c_by_theta = {0: [], 1: []}
    for eps in (1e-2, 1e-3):
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
        v0 = saturating_velocity(rho0, params)
        times, path = run_paired_paths(rho0, params, 0.5, v0=v0)
        certs = dual_certificate(times, path, [(theta, eta, cap) for theta in thetas], params)
        for i, cert in enumerate(certs):
            scale = (abs(cert.lhs) + abs(cert.rhs_coeff_term)
                     + abs(cert.rhs_momentum_term))
            ok &= cert.identity_residual <= 1e-6 * scale
            ok &= abs(cert.lhs) <= cert.bound
            c_by_theta[i].append(cert.measured_c)
    spreads = [max(cs) / min(cs) for cs in c_by_theta.values()]
    ok &= all(s < 2.0 for s in spreads)
    details.append(f"C spread across eps: {', '.join(f'{s:.2f}' for s in spreads)} (<2)")

    # exactly prepared data must satisfy the identity and the bound as well
    params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
    times, path = run_paired_paths(rho0, params, 0.5)
    (cert,) = dual_certificate(times, path, [(thetas[0], eta, cap)], params)
    scale = abs(cert.lhs) + abs(cert.rhs_coeff_term) + abs(cert.rhs_momentum_term)
    ok &= cert.identity_residual <= 1e-6 * scale and abs(cert.lhs) <= cert.bound
    details.append(f"prepared-run identity residual {cert.identity_residual / scale:.1e} (<=1e-6 rel)")
    assert report(8, "duality certificate", ok, "; ".join(details))


def test_criterion_9_well_prepared_reduction():
    grid = Grid(-8.0, 8.0, 256)
    params = PhysParams(alpha=1.25, gamma=2.0, epsilon=0.0)
    cns = well_prepared_init(tent_field(grid, 1.0))
    pme = PmeState(t=0.0, rho=cns.rho)
    identical = True
    for _ in range(1000):
        dt = min(CFL * stability_limit(pme, params), cfl_dt(cns, params))
        cns = cns_step(cns, params, dt)
        pme = pme_step(pme, params, dt)
        if not np.array_equal(cns.rho.values, pme.rho.values):
            identical = False
            break
    momentum_clean = bool(np.all(cns.momentum_v.values == 0.0))
    ok = identical and momentum_clean
    assert report(9, "well-prepared reduction", ok,
                  f"density paths bitwise equal for 1000 steps: {identical}; "
                  f"momentum identically zero: {momentum_clean}")
