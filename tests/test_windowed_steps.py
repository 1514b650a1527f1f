"""The windowed update kernels against full-grid reference steps.

`pme._limit_update` and `cns._flow_row_update` compute only on a state's
active window plus a halo; here they run under the reference `march`,
`pme_step` and `cns_step` of `tests/reference.py`.  The reference functions
below are the full-grid steps they replaced, kept here as the oracle: on
every step dt, the densities, the momentum, v, u and the logged floored
and clipped masses must be equal (`==`), and the support-margin error must
come at the same step.
"""

import math
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hicomp.cns import CnsState, _flow_row_update
from hicomp.grid import CFL, Field, Grid, _derivative, _embed, check_support_margin
from hicomp.params import PhysParams
from hicomp.pme import PmeState, _limit_update, _pme_window
from reference import diffusive_face_flux as reference_flux
from reference import march, step_span, velocities


def reference_upwind(q, vel):
    flux = np.zeros(q.size + 1)
    vface = 0.5 * (vel[:-1] + vel[1:])
    flux[1:-1] = np.where(vface >= 0.0, q[:-1], q[1:])
    return flux


def reference_pme_dt(rho, params, dx):
    rho_max = float(rho.max())
    if rho_max <= 0.0:
        return math.inf
    return CFL * (dx * dx / (2.0 * params.pme_coeff * params.alpha
                             * rho_max ** (params.alpha - 1.0)))


def reference_pme_step(rho, clipped, params, dt, dx):
    w = rho ** params.alpha
    rho_new = rho - (dt / dx) * np.diff(reference_flux(w, dx, params.pme_coeff))
    if float(rho_new.min()) < 0.0:
        clipped -= dx * float(np.minimum(rho_new, 0.0).sum())
        rho_new = np.maximum(rho_new, 0.0)
    return rho_new, clipped


def reference_cfl(rho, mom, floor, params, dx):
    rho_max = float(rho.max())
    diff_cand = dx * dx * min(params.alpha, 1.0 / CFL) / (
        2.0 * rho_max ** (params.alpha - 1.0))
    v = np.where(rho > floor, mom / rho, 0.0)
    a = params.alpha
    u = v - _derivative(rho ** (a - 1.0), dx) / (a - 1.0)
    speed = max(float(np.abs(u).max()), float(np.abs(v).max()), 1e-14)
    wave = math.sqrt(params.epsilon * params.gamma * rho_max ** (params.gamma - 1.0))
    wave_cand = dx / wave if wave > 0.0 else math.inf
    return CFL * min(diff_cand, dx / speed, wave_cand), v, u


def reference_cns_step(rho, mom, floor, floored, t, params, dt, dx):
    _, v, u = reference_cfl(rho, mom, floor, params, dx)
    w = rho ** params.alpha
    flux_rho = reference_upwind(mom, v) + reference_flux(w, dx, 1.0 / params.alpha)
    rho_new = rho - (dt / dx) * np.diff(flux_rho)
    flux_mom = reference_upwind(mom * u, u)
    pressure_grad = _derivative(rho ** params.gamma, dx)
    mom_new = mom - (dt / dx) * np.diff(flux_mom) - dt * params.epsilon * pressure_grad
    low = float(rho_new.min())
    if low < -1000.0 * floor:
        raise RuntimeError(f"density went negative ({low}) at t={t}; the run is unstable")
    if low < floor:
        floored += dx * float(np.maximum(floor - rho_new, 0.0).sum())
        rho_new = np.maximum(rho_new, floor)
    return rho_new, mom_new, floored


def reference_margin(rho, grid):
    check_support_margin(rho, grid, lo=1e-6 * float(rho.max()))


def windowed_march(state, params, steps):
    """Up to `steps` march steps: ((state, dt) per step yielded, the error
    that ended the march or None)."""
    seen = []
    try:
        # no horizon, so that every step is the CFL step
        for (s,), dt in islice(march((state,), params, math.inf), steps):
            seen.append((s, dt))
    except (RuntimeError, ValueError) as e:
        return seen, e
    if len(seen) < steps:
        raise AssertionError("the march ended before its steps")
    return seen, None


def reference_march(step, steps):
    """Up to `steps` calls of step(); (results, the error that ended it)."""
    out = []
    try:
        for _ in range(steps):
            out.append(step())
    except (RuntimeError, ValueError) as e:
        return out, e
    return out, None


def assert_same_end(err, ref_err):
    assert (err is None) == (ref_err is None), (err, ref_err)
    if err is not None:
        assert type(err) is type(ref_err) and str(err) == str(ref_err)


@st.composite
def densities(draw):
    """(grid, profile, floor_value, block): random positive values on a
    block of cells, zero or a constant floor elsewhere; the block may sit
    in the margin bands or touch a boundary cell."""
    n = draw(st.integers(16, 72))
    kind = draw(st.sampled_from(["compact", "floored", "boundary"]))
    width = draw(st.integers(1, n // 2))
    if kind == "boundary":
        lo = draw(st.sampled_from([0, n - width]))
    else:
        lo = draw(st.integers(1, n - width - 1))
    values = draw(st.lists(st.floats(1e-3, 2.0), min_size=width, max_size=width))
    profile = np.zeros(n)
    profile[lo:lo + width] = values
    floor = draw(st.floats(1e-4, 0.3)) * max(values) if kind == "floored" else 0.0
    return Grid(-8.0, 8.0, n), profile, floor, (lo, lo + width)


alphas = st.floats(1.0, 4.0, exclude_min=True)
epsilons = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))


@settings(max_examples=120, deadline=None)
@given(data=densities(), alpha=alphas, steps=st.integers(1, 40))
def test_pme_step_matches_full_grid_reference(data, alpha, steps):
    grid, profile, floor, _ = data
    params = PhysParams(alpha=alpha, epsilon=0.0)
    rho0 = np.maximum(profile, floor)
    seen, err = windowed_march(PmeState(t=0.0, rho=Field(grid, rho0)), params, steps)

    rho, clipped = rho0, 0.0

    def step():
        nonlocal rho, clipped
        dt = reference_pme_dt(rho, params, grid.dx)
        if not dt > 0.0:
            raise RuntimeError("dt")
        rho, clipped = reference_pme_step(rho, clipped, params, dt, grid.dx)
        reference_margin(rho, grid)
        return dt, rho, clipped

    ref, ref_err = reference_march(step, steps)
    assert len(seen) == len(ref)
    for (state, dt), (ref_dt, ref_rho, ref_clipped) in zip(seen, ref):
        assert dt == ref_dt
        assert np.array_equal(state.rho.values, ref_rho)
        assert state.clipped_mass == ref_clipped
    assert_same_end(err, ref_err)


@settings(max_examples=60, deadline=None)
@given(data=densities(), alpha=alphas, overshoot=st.floats(2.0, 20.0))
def test_pme_clipping_matches_full_grid_reference(data, alpha, overshoot):
    # A march keeps a step at most its stability limit, where the update
    # never undershoots.  Calling the update kernel with a larger step lets
    # one unstable step undershoot, so the clipping branch and its full-grid
    # mass sum are compared too.
    grid, profile, floor, _ = data
    params = PhysParams(alpha=alpha, epsilon=0.0)
    rho0 = np.maximum(profile, floor)
    state = PmeState(t=0.0, rho=Field(grid, rho0))
    dt = overshoot * reference_pme_dt(rho0, params, grid.dx) / CFL
    ref_rho, ref_clipped = reference_pme_step(rho0, 0.0, params, dt, grid.dx)
    rho = rho0.copy()
    s0, s1 = step_span(state)
    clipped = _limit_update(rho, s0, s1, dt, grid.dx, params, 0.0, np.empty(s1 - s0 + 1))
    assert np.array_equal(rho, ref_rho)
    assert clipped == ref_clipped


def flow_state(data, eps, alpha, floor_frac, v_scale, v_spread, v_seed):
    """A flow state, and the reference's copies of its arrays.  Its velocity
    is nonzero on the data's block widened by v_spread cells, so vacuum
    density can carry momentum."""
    grid, profile, _, (lo, hi) = data
    params = PhysParams(alpha=alpha, epsilon=eps)
    floor = floor_frac * float(profile.max())
    rho0 = np.maximum(profile, floor)
    lo, hi = max(lo - v_spread, 0), min(hi + v_spread, grid.n_cells)
    v0 = np.zeros(grid.n_cells)
    v0[lo:hi] = v_scale * np.random.default_rng(v_seed).uniform(-1.0, 1.0, hi - lo)
    mom0 = rho0 * v0
    state = CnsState(t=0.0, rho=Field(grid, rho0), momentum_v=Field(grid, mom0),
                     rho_floor=floor)
    return state, params, rho0, mom0, floor


flow_draws = dict(data=densities(), alpha=alphas, eps=epsilons,
                  floor_frac=st.sampled_from([1e-10, 1e-3, 3e-2]),
                  v_scale=st.floats(0.1, 3.0), v_spread=st.integers(0, 8),
                  v_seed=st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(overshoot=st.floats(2.0, 10.0), **{**flow_draws, "floor_frac": st.floats(0.05, 0.5)})
def test_cns_flooring_matches_full_grid_reference(overshoot, data, alpha, eps, floor_frac,
                                                  v_scale, v_spread, v_seed):
    # As for clipping: calling the update kernel with a step past the CFL
    # step lets many cells dip below the floor, so the floored mass sums
    # many terms.
    state, params, rho0, mom0, floor = flow_state(data, eps, alpha, floor_frac, v_scale,
                                                  v_spread, v_seed)
    dt, v, u = velocities(state, params)
    dt *= overshoot
    rho, mom = rho0.copy(), mom0.copy()

    def step():
        return _flow_row_update(rho, mom, *step_span(state), v, u, dt, params, floor, 0.0,
                                data[0], False)

    try:
        ref_rho, ref_mom, ref_floored = reference_cns_step(rho0, mom0, floor, 0.0, 0.0,
                                                           params, dt, data[0].dx)
    except RuntimeError as ref_err:
        with pytest.raises(RuntimeError) as err:
            step()
        assert str(err.value) == str(ref_err)
        return
    floored = step()
    assert np.array_equal(rho, ref_rho)
    assert np.array_equal(mom, ref_mom)
    assert floored == ref_floored


@settings(max_examples=120, deadline=None)
@given(steps=st.integers(1, 40), **flow_draws)
def test_cns_step_matches_full_grid_reference(steps, data, alpha, eps, floor_frac,
                                              v_scale, v_spread, v_seed):
    grid = data[0]
    state, params, rho0, mom0, floor = flow_state(data, eps, alpha, floor_frac, v_scale,
                                                  v_spread, v_seed)
    memos = []

    def observe_memo(state):
        dt, v, u = velocities(state, params)
        s0 = step_span(state)[0]
        memos.append((dt, _embed(v, s0, grid.n_cells, 0.0), _embed(u, s0, grid.n_cells, 0.0)))

    observe_memo(state)
    seen, err = windowed_march(state, params, steps)
    for s, _ in seen:
        observe_memo(s)

    rho, mom, floored, t = rho0, mom0, 0.0, 0.0
    ref_memos = [reference_cfl(rho0, mom0, floor, params, grid.dx)]

    def step():
        nonlocal rho, mom, floored, t
        dt = ref_memos[-1][0]
        rho, mom, floored = reference_cns_step(rho, mom, floor, floored, t, params, dt,
                                               grid.dx)
        t = t + dt
        reference_margin(rho, grid)
        ref_memos.append(reference_cfl(rho, mom, floor, params, grid.dx))
        return dt, rho, mom, floored

    ref, ref_err = reference_march(step, steps)
    assert len(seen) == len(ref)
    for (state, dt), (ref_dt, ref_rho, ref_mom, ref_floored) in zip(seen, ref):
        assert dt == ref_dt
        assert np.array_equal(state.rho.values, ref_rho)
        assert np.array_equal(state.momentum_v.values, ref_mom)
        assert state.floored_mass == ref_floored
    for (dt, v, u), (ref_dt, ref_v, ref_u) in zip(memos, ref_memos):
        assert dt == ref_dt
        assert np.array_equal(v, ref_v) and np.array_equal(u, ref_u)
    assert_same_end(err, ref_err)


@pytest.mark.parametrize("make", [
    lambda grid, rho: PmeState(t=0.0, rho=Field(grid, rho)),
    lambda grid, rho: CnsState(t=0.0, rho=Field(grid, np.maximum(rho, 1e-8)),
                               momentum_v=Field(grid, np.zeros(grid.n_cells)),
                               rho_floor=1e-8),
], ids=["pme", "cns"])
def test_window_is_the_non_vacuum_span(make):
    grid = Grid(-8.0, 8.0, 64)
    rho = np.zeros(64)
    rho[20:30] = 1.0
    assert make(grid, rho)._window == (20, 30)
    assert make(grid, np.full(64, 1e-9))._window == (0, 0)
    rho[0] = 0.5
    assert make(grid, rho)._window == (0, 64)


def reference_window(rho, s0, s1):
    """The active window by a full scan of the cells [s0, s1)."""
    n = rho.size
    if rho[-1] != rho[0]:
        return 0, n
    active = np.flatnonzero(rho[s0:s1] != rho[0])
    if active.size == 0:
        return 0, 0
    lo, hi = s0 + int(active[0]), s0 + int(active[-1]) + 1
    return (0, n) if lo == 0 or hi == n else (lo, hi)


def test_window_matches_the_full_scan_on_every_small_row():
    # every row of 7 cells over {0.0, -0.0, 1.0} and every span of it: the
    # span's two edge cells on either side vacuum (the scan), active, or one
    # of each; spans of 1 to 7 cells; spans touching cell 0 or cell 6; a last
    # cell unlike the first; -0.0 beside a 0.0 vacuum, and 0.0 cells active
    # beside a 1.0 vacuum
    n = 7
    spans = [(s0, s1) for s0 in range(n) for s1 in range(s0 + 1, n + 1)]
    for cells in product((0.0, -0.0, 1.0), repeat=n):
        rho = np.array(cells)
        for s0, s1 in spans:
            assert _pme_window(rho, s0, s1) == reference_window(rho, s0, s1), (cells, s0, s1)
        assert _pme_window(rho) == reference_window(rho, 0, n), cells
