import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hicomp.cns import (CnsState, FlowStack, advective_face_flux, well_prepared_init,
                        write_cns_snapshot)
from hicomp.grid import Field, Grid, _embed, derivative, integrate, lp_norm
from hicomp.params import PhysParams
from hicomp.pme import CFL, PmeState
from reference import (advance, cfl_dt, cns_step, constant_field, march, pme_step, recover_u,
                       stability_limit, step_span, velocities)


def tent(grid, mass=1.0):
    return Field(grid, mass * np.maximum(1.0 - np.abs(grid.centers), 0.0))


def effective_v(state, params):
    """The effective velocity v, evaluated on the step span, as a grid row."""
    return _embed(velocities(state, params)[1], step_span(state)[0], state.rho.grid.n_cells,
                  0.0)


def dx_phi(state, alpha):
    """d_x phi(rho) = d_x(rho**(alpha-1)) / (alpha-1), evaluated independently."""
    w = Field(state.rho.grid, state.rho.values ** (alpha - 1.0))
    return derivative(w).values / (alpha - 1.0)


class TestWellPreparedInit:
    def test_effective_momentum_exactly_zero(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.5, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        assert np.all(state.momentum_v.values == 0.0)
        v = effective_v(state, params)
        assert math.sqrt(integrate(Field(grid, state.rho.values * v * v))) == 0.0

    def test_alpha_two_velocity_is_minus_density_gradient(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        u = recover_u(state, params)
        expected = -derivative(state.rho).values
        assert np.array_equal(u.values, expected)

    def test_mass_perturbation_from_floor(self):
        grid = Grid(-8.0, 8.0, 256)
        rho0 = tent(grid)
        state = well_prepared_init(rho0)
        n_floor = int(np.sum(rho0.values < state.rho_floor))
        expected = integrate(rho0) + n_floor * state.rho_floor * grid.dx
        assert integrate(state.rho) == pytest.approx(expected, rel=1e-12)
        assert abs(integrate(state.rho) - integrate(rho0)) <= 1e-8 * integrate(rho0)

    def test_support_touching_margin_rejected(self):
        grid = Grid(-8.0, 8.0, 128)
        x = grid.centers
        edge_bump = Field(grid, np.maximum(1.0 - np.abs(x + 7.5), 0.0))
        with pytest.raises(RuntimeError, match="margin"):
            well_prepared_init(edge_bump)

    def test_zero_density_rejected(self):
        grid = Grid(-8.0, 8.0, 128)
        with pytest.raises(ValueError, match="zero"):
            well_prepared_init(constant_field(grid, 0.0))


class TestDxPhi:
    # with zero momentum v = 0, so recover_u returns exactly -d_x phi(rho)

    def test_constant_density_gives_zero(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=1.7, epsilon=0.0)
        state = CnsState(t=0.0, rho=constant_field(grid, 2.0),
                         momentum_v=constant_field(grid, 0.0), rho_floor=1e-10)
        assert np.all(recover_u(state, params).values == 0.0)

    def test_alpha_two_equals_density_gradient(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        rho = Field(grid, 1.0 + 0.5 * np.sin(grid.centers))
        state = CnsState(t=0.0, rho=rho, momentum_v=constant_field(grid, 0.0),
                         rho_floor=1e-10)
        assert np.array_equal(recover_u(state, params).values, -derivative(rho).values)

    def test_alpha_three_halves_on_parabola(self):
        # rho = x^2: d_x phi = d_x(2 sqrt(rho)) = 2 sign(x), away from the kink
        grid = Grid(-2.0, 2.0, 256)
        params = PhysParams(alpha=1.5, epsilon=0.0)
        rho = Field(grid, grid.centers**2 + 1e-12)
        state = CnsState(t=0.0, rho=rho, momentum_v=constant_field(grid, 0.0),
                         rho_floor=1e-13)
        vals = recover_u(state, params).values
        x = grid.centers
        away = np.abs(x) > 0.5
        assert np.allclose(vals[away], -2.0 * np.sign(x[away]), rtol=0, atol=1e-6)


class TestRecoverU:
    def test_well_prepared_u_is_minus_dx_phi(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.5, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        assert np.all(effective_v(state, params) == 0.0)
        assert np.array_equal(recover_u(state, params).values, -dx_phi(state, 1.5))

    def test_constant_density_uniform_velocity(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=1.5, epsilon=0.0)
        c = 0.3
        state = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                         momentum_v=constant_field(grid, c), rho_floor=1e-10)
        assert np.allclose(recover_u(state, params).values, c, rtol=0, atol=1e-15)

    def test_round_trip_identity(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.3, epsilon=1e-2)
        rng = np.random.default_rng(5)
        rho = Field(grid, 0.5 + 0.2 * np.abs(np.sin(grid.centers)))
        mom = Field(grid, 0.01 * rng.normal(size=128))
        state = CnsState(t=0.0, rho=rho, momentum_v=mom, rho_floor=1e-10)
        u = recover_u(state, params).values
        v = effective_v(state, params)
        assert np.array_equal(v, mom.values / rho.values)
        v_back = u + dx_phi(state, 1.3)
        assert np.allclose(v_back, v, rtol=1e-12, atol=1e-15)


class TestCflDt:
    def test_uniform_state_is_diffusion_limited(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
        state = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                         momentum_v=constant_field(grid, 0.0), rho_floor=1e-10)
        assert cfl_dt(state, params) == pytest.approx(0.4 * grid.dx**2, rel=1e-12)

    def test_doubling_density_power_halves_diffusive_step(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
        s1 = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                      momentum_v=constant_field(grid, 0.0), rho_floor=1e-12)
        s2 = CnsState(t=0.0, rho=constant_field(grid, 2.0),
                      momentum_v=constant_field(grid, 0.0), rho_floor=1e-12)
        assert cfl_dt(s2, params) == pytest.approx(0.5 * cfl_dt(s1, params), rel=1e-12)

    def test_pressure_wave_enters_for_large_eps(self):
        grid = Grid(-2.0, 2.0, 64)
        quiet = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
        loud = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e6)
        state = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                         momentum_v=constant_field(grid, 0.0), rho_floor=1e-10)
        assert cfl_dt(state, loud) < cfl_dt(state, quiet)


class TestCnsStep:
    def test_uniform_rest_state_is_steady(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=0.5)
        state = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                         momentum_v=constant_field(grid, 0.0), rho_floor=1e-10)
        out = cns_step(state, params, cfl_dt(state, params))
        assert np.array_equal(out.rho.values, state.rho.values)
        assert np.all(out.momentum_v.values == 0.0)

    def test_cfl_violation_rejected(self):
        grid = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=0.0)
        state = CnsState(t=0.0, rho=constant_field(grid, 1.0),
                         momentum_v=constant_field(grid, 0.0), rho_floor=1e-10)
        with pytest.raises(ValueError, match="CFL"):
            cns_step(state, params, 10.0 * cfl_dt(state, params))

    def test_pressureless_reduction_is_bitwise(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=0.0)
        cns = well_prepared_init(tent(grid))
        pme = PmeState(t=0.0, rho=cns.rho)
        for _ in range(300):
            dt = min(CFL * stability_limit(pme, params), cfl_dt(cns, params))
            cns = cns_step(cns, params, dt)
            pme = pme_step(pme, params, dt)
            assert np.array_equal(cns.rho.values, pme.rho.values)
        assert np.all(cns.momentum_v.values == 0.0)

    def test_effective_velocity_bound(self):
        # kinetic part of the entropy stays below the pressure-energy budget
        grid = Grid(-8.0, 8.0, 256)
        eps = 1e-2
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
        rho0 = tent(grid)
        state = well_prepared_init(rho0)
        envelope = 1.05 * math.sqrt(eps) / math.sqrt(params.gamma - 1.0) \
            * lp_norm(rho0, params.gamma) ** (params.gamma / 2.0)
        worst = 0.0
        for _ in range(400):
            state = cns_step(state, params, cfl_dt(state, params))
            v = effective_v(state, params)
            norm = math.sqrt(integrate(Field(grid, state.rho.values * v * v)))
            worst = max(worst, norm)
        assert worst <= envelope


MARGIN = 7  # cells kept empty at each end of the 64-cell grid, past its 10% band


@st.composite
def ordered_pairs(draw):
    """alpha in (1, 6] and rough nonnegative densities r1 <= r2 on a 64-cell
    grid, empty in the outer margins."""
    alpha = draw(st.floats(1.0, 6.0, exclude_min=True))
    heights = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    r1 = draw(arrays(np.float64, 64 - 2 * MARGIN, elements=heights))
    bump = draw(arrays(np.float64, 64 - 2 * MARGIN, elements=heights))
    assume(r1.max() > 0.0)
    return alpha, np.pad(r1, MARGIN), np.pad(r1 + bump, MARGIN)


class TestMonotoneStepProperty:
    @settings(max_examples=200, deadline=None)
    @given(ordered_pairs())
    def test_shared_step_keeps_order_and_maximum(self, pair):
        alpha, r1, r2 = pair
        grid = Grid(-8.0, 8.0, 64)
        params = PhysParams(alpha=alpha, gamma=2.0, epsilon=0.0)
        s1 = well_prepared_init(Field(grid, r1))
        s2 = well_prepared_init(Field(grid, r2))
        dt = min(cfl_dt(s1, params), cfl_dt(s2, params))
        out1, out2 = cns_step(s1, params, dt), cns_step(s2, params, dt)
        assert np.all(out1.rho.values <= out2.rho.values)
        assert out1.rho.values.max() <= s1.rho.values.max()


class TestCnsSolveTo:
    def test_identity_at_current_time(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.5, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        (out,), snaps = advance((state,), params, 0.0)
        assert out is state
        assert snaps == []

    def test_mass_conservation_with_floor_accounting(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        m0 = integrate(state.rho)
        (out,), _ = advance((state,), params, 0.2)
        assert abs(integrate(out.rho) - m0) <= 1e-10 * m0
        assert out.floored_mass <= 1e-10 * m0

    def test_snapshots_land_exactly(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.5, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        _, snaps = advance((state,), params, 0.02, snapshot_times=(0.01, 0.02))
        assert [s.t for (s,) in snaps] == [0.01, 0.02]

    def test_smaller_eps_tracks_limit_more_closely(self):
        from hicomp.analysis import error_pair

        grid = Grid(-8.0, 8.0, 256)
        snaps_t = (0.1, 0.2)
        errors = {}
        params0 = PhysParams(alpha=1.25, gamma=2.0, epsilon=0.0)
        base = well_prepared_init(tent(grid))
        pme_states = []
        pme = PmeState(t=0.0, rho=base.rho)
        for t in snaps_t:
            (pme,), _ = advance((pme,), params0, t)
            pme_states.append(pme)
        for eps in (1e-2, 1e-3):
            params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
            state = well_prepared_init(tent(grid))
            _, snaps = advance((state,), params, snaps_t[-1], snapshot_times=snaps_t)
            errors[eps] = [error_pair(s.rho, p.rho)[0]
                           for (s,), p in zip(snaps, pme_states)]
        assert all(e3 < e2 for e2, e3 in zip(errors[1e-2], errors[1e-3]))

    def test_max_density_bounded(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        m0 = float(state.rho.values.max())
        (out,), _ = advance((state,), params, 0.2)
        assert float(out.rho.values.max()) <= m0 * (1.0 + 1e-2)

    def test_accepted_steps_stay_within_parabolic_scale(self):
        # instrumented sweep: every accepted dt lies in (0, dx^2]
        grid = Grid(-8.0, 8.0, 512)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        dts = [dt for _, dt in march((state,), params, 0.05)]
        assert all(0.0 < dt <= grid.dx**2 for dt in dts)

    def test_bd_entropy_nearly_nonincreasing(self):
        from reference import diagnostics

        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        records = [diagnostics(s, params) for (s,), _ in march((state,), params, 0.2)]
        for r1, r2 in zip(records, records[1:]):
            allowed = r1.bd_entropy * (1.0 + 1e-3 * (r2.t - r1.t)) + 1e-15
            assert r2.bd_entropy <= allowed


class TestAdvectiveFaceFlux:
    @pytest.mark.parametrize("a, b", [
        (-5e-324, 0.0), (0.0, -5e-324), (-5e-324, -5e-324), (5e-324, -1e-323),
        (-0.0, -0.0), (-0.0, 0.0), (1.0, -1.0), (1e-300, -2e-300),
        (np.inf, -1.0), (-np.inf, 1.0), (np.inf, -np.inf), (np.nan, 1.0)])
    def test_upwind_side_is_the_face_average_sign(self, a, b):
        # the side the face average 0.5 * (a + b) picks, also where halving
        # a subnormal sum rounds
        with np.errstate(invalid="ignore"):
            flux = advective_face_flux(np.array([1.0, 2.0]), np.array([a, b]))
            left = np.float64(0.5) * (np.float64(a) + np.float64(b)) >= 0.0
        assert flux.tolist() == [0.0, 1.0 if left else 2.0, 0.0]


class TestSnapshotWriter:
    def test_columns_and_params_header(self, tmp_path):
        grid = Grid(-8.0, 8.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(grid))
        flow = FlowStack(state, [params])
        path = tmp_path / "cns.csv"
        write_cns_snapshot(state, flow.v, flow.u, params, path)
        text = path.read_text()
        assert "x,rho,v,u" in text
        assert "alpha=1.5" in text
