import math
import struct
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hicomp.analysis import (
    DiagnosticsRecord,
    darcy_residual,
    default_clamp_bounds,
    diagnostics,
    dual_certificate,
    edge_pressure_slope,
    error_pair,
    h_minus1_norm,
    mass_outside_support,
    write_diagnostics_csv,
)
from hicomp.cns import CnsState, _cfl_memo, advective_face_flux, well_prepared_init
from hicomp.grid import Field, Grid, _embed, constant_field, integrate, lp_norm
from hicomp.params import PhysParams
from hicomp.pme import (
    PmeState,
    barenblatt_field,
    barenblatt_params,
    diffusive_face_flux,
)
from hicomp.study import bump_test_function, run_paired_paths, saturating_velocity
from test_dual_reference import full_rows, whole_rows


def tent(grid, mass=1.0):
    return Field(grid, mass * np.maximum(1.0 - np.abs(grid.centers), 0.0))


class TestHMinus1Norm:
    def test_zero_field(self):
        g = Grid(-4.0, 4.0, 64)
        assert h_minus1_norm(constant_field(g, 0.0)) == 0.0

    def test_dipole_plateau(self):
        # unit-mass box bumps at -1 and +1 of width w: the primitive is a
        # plateau of height 1 with linear ramps, |Phi|_2^2 = 2 - w/3
        g = Grid(-4.0, 4.0, 512)
        w = 32 * g.dx
        x = g.centers
        vals = np.where(np.abs(x + 1.0) < w / 2, 1.0 / w, 0.0) \
            - np.where(np.abs(x - 1.0) < w / 2, 1.0 / w, 0.0)
        val = h_minus1_norm(Field(g, vals))
        assert val == pytest.approx(math.sqrt(2.0 - w / 3.0), abs=5 * g.dx)
        assert val == pytest.approx(math.sqrt(2.0), abs=0.1)

    def test_nonzero_mean_rejected_with_measured_mean(self):
        g = Grid(-4.0, 4.0, 64)
        f = Field(g, np.where(np.abs(g.centers) < 1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="zero mean") as exc:
            h_minus1_norm(f)
        assert "integral=" in str(exc.value)

    @pytest.mark.parametrize("c", [0.5, -2.0, 1000.0])
    def test_homogeneity(self, c):
        g = Grid(-4.0, 4.0, 256)
        x = g.centers
        vals = np.sin(np.pi * x) * np.exp(-(x**2))
        vals -= vals.mean()  # enforce zero discrete mean
        base = h_minus1_norm(Field(g, vals))
        assert h_minus1_norm(Field(g, c * vals)) == pytest.approx(abs(c) * base, rel=1e-12)


class TestErrorPair:
    def test_identical_fields(self):
        g = Grid(-4.0, 4.0, 64)
        f = tent(g)
        assert error_pair(f, f) == (0.0, 0.0)

    def test_symmetry(self):
        g = Grid(-4.0, 4.0, 256)
        f1 = tent(g)
        vals = f1.values + 0.01 * np.sin(np.pi * g.centers) * np.exp(-g.centers**2)
        vals = vals - (vals.mean() - f1.values.mean())
        f2 = Field(g, vals)
        assert error_pair(f1, f2) == pytest.approx(error_pair(f2, f1), rel=1e-14)

    def test_grid_mismatch_rejected(self):
        f1 = tent(Grid(-4.0, 4.0, 64))
        f2 = tent(Grid(-4.0, 4.0, 128))
        with pytest.raises(ValueError, match="grid"):
            error_pair(f1, f2)

    def test_composition_of_primitives(self):
        g = Grid(-4.0, 4.0, 512)
        f1 = tent(g)
        w = 32 * g.dx
        x = g.centers
        dip = np.where(np.abs(x + 1.0) < w / 2, 1.0 / w, 0.0) \
            - np.where(np.abs(x - 1.0) < w / 2, 1.0 / w, 0.0)
        f2 = Field(g, f1.values + dip)
        h1, l2 = error_pair(f2, f1)
        assert h1 == pytest.approx(h_minus1_norm(Field(g, dip)), rel=1e-14)
        assert l2 == pytest.approx(lp_norm(Field(g, dip), 2), rel=1e-14)


class TestDiagnostics:
    def test_rest_state_energies_coincide(self):
        g = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(g))
        rec = diagnostics(state, params)
        pressure_only = params.epsilon / (params.gamma - 1.0) \
            * integrate(Field(g, state.rho.values ** params.gamma))
        assert rec.sqrt_rho_v_l2 == 0.0
        assert rec.bd_entropy == pytest.approx(pressure_only, rel=1e-14)
        # u = -d_x phi is nonzero, so the physical energy exceeds the entropy
        assert rec.energy >= rec.bd_entropy

    def test_uniform_translation_kinetic_energy(self):
        g = Grid(-2.0, 2.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=0.0)
        c = 0.7
        state = CnsState(t=0.0, rho=constant_field(g, 1.0),
                         momentum_v=constant_field(g, c), rho_floor=1e-10)
        rec = diagnostics(state, params)
        assert rec.energy == pytest.approx(c**2 / 2.0 * 4.0, rel=1e-12)

    def test_bd_entropy_dominates_kinetic_term(self):
        g = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.3, gamma=2.0, epsilon=1e-3)
        rng = np.random.default_rng(2)
        rho = Field(g, np.maximum(tent(g).values, 1e-10))
        mom = Field(g, 1e-3 * rng.normal(size=128) * rho.values)
        state = CnsState(t=0.0, rho=rho, momentum_v=mom, rho_floor=1e-10)
        rec = diagnostics(state, params)
        assert rec.bd_entropy >= rec.sqrt_rho_v_l2**2 / 2.0

    def test_csv_writer(self, tmp_path):
        g = Grid(-8.0, 8.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=1e-2)
        state = well_prepared_init(tent(g))
        rec = diagnostics(state, params)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv([(rec, 1e-4)], path, extra_comments=("config_hash=ff",))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config_hash=ff"
        assert lines[1].startswith("t,dt,mass")
        assert len(lines) == 3

    def test_csv_writer_failure_leaves_no_file(self, tmp_path):
        g = Grid(-8.0, 8.0, 64)
        params = PhysParams(alpha=1.5, gamma=2.0, epsilon=1e-2)
        rec = diagnostics(well_prepared_init(tent(g)), params)
        path = tmp_path / "diag.csv"
        # the second row cannot be formatted, after the header and first row
        with pytest.raises(TypeError):
            write_diagnostics_csv([(rec, 1e-4), (rec, "bad")], path)
        assert list(tmp_path.iterdir()) == []


def reference_diagnostics(state, params):
    """`diagnostics` as it was before it computed on the step span: every
    term on the whole grid, one sum per term."""
    dx = state.rho.grid.dx
    rho = state.rho.values
    v, u = (_embed(row, state.step_span[0], rho.size, 0.0)
            for row in _cfl_memo(state, params)[1:])
    pressure_part = params.epsilon / (params.gamma - 1.0) * rho ** params.gamma
    return DiagnosticsRecord(
        t=state.t,
        mass=dx * float(rho.sum()),
        energy=dx * float((0.5 * rho * u * u + pressure_part).sum()),
        bd_entropy=dx * float((0.5 * rho * v * v + pressure_part).sum()),
        sqrt_rho_v_l2=math.sqrt(dx * float((rho * v * v).sum())),
        max_rho=float(rho.max()),
    )


@st.composite
def flow_states(draw):
    """A flow state whose active window is empty, interior, near or at a
    boundary, or the whole grid, with cells inside it that sit on the floor
    or carry no momentum."""
    n = draw(st.integers(8, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    floor = draw(st.sampled_from([1e-10, 1e-3, 0.37]))
    kind = draw(st.sampled_from(["empty", "interior", "near", "boundary", "whole"]))
    if kind == "empty":
        lo = hi = 0
    elif kind == "whole":
        lo, hi = 0, n
    else:
        width = draw(st.integers(1, n - 2))
        lo = {"interior": draw(st.integers(3, max(3, n - width - 3))),
              "near": draw(st.integers(1, 2)),
              "boundary": draw(st.sampled_from([0, n - width]))}[kind]
        lo, hi = min(lo, n - 1), min(lo + width, n)
    rho = np.full(n, floor)
    mom = np.zeros(n)
    scale = draw(st.sampled_from([1e-6, 1.0, 50.0]))
    rho[lo:hi] = floor + scale * rng.uniform(0.0, 1.0, hi - lo) * (rng.uniform(size=hi - lo) < 0.8)
    mom[lo:hi] = scale * rng.normal(size=hi - lo) * (rng.uniform(size=hi - lo) < 0.7)
    grid = Grid(-8.0, 8.0, n)
    return CnsState(t=draw(st.floats(0.0, 10.0)), rho=Field(grid, rho),
                    momentum_v=Field(grid, mom), rho_floor=floor)


@settings(max_examples=300, deadline=None)
@given(state=flow_states(),
       alpha=st.sampled_from([1.1, 1.25, 1.5, 2.0, 3.0]),
       gamma=st.sampled_from([1.4, 5.0 / 3.0, 2.0, 3.0]),
       epsilon=st.sampled_from([0.0, 1e-3, 0.1, 10.0]))
def test_diagnostics_matches_full_grid_reference(state, alpha, gamma, epsilon):
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=epsilon)
    got, expected = diagnostics(state, params), reference_diagnostics(state, params)
    assert [struct.pack("<d", x) for x in astuple(got)] == [
        struct.pack("<d", x) for x in astuple(expected)]


class TestMassOutsideSupport:
    def test_fully_inside_is_zero(self):
        g = Grid(-8.0, 8.0, 256)
        assert mass_outside_support(tent(g), (-2.0, 2.0)) == 0.0

    def test_whole_grid_window_is_zero(self):
        g = Grid(-8.0, 8.0, 256)
        assert mass_outside_support(tent(g), (-8.0, 8.0)) == 0.0

    def test_half_tent_outside(self):
        g = Grid(-8.0, 8.0, 512)
        val = mass_outside_support(tent(g), (0.0, 8.0))
        assert val == pytest.approx(0.5, abs=g.dx)

    def test_monotone_in_window(self):
        g = Grid(-8.0, 8.0, 256)
        f = tent(g)
        vals = [mass_outside_support(f, (-w, w)) for w in (0.25, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_floor_subtraction(self):
        g = Grid(-8.0, 8.0, 256)
        floor = 1e-6
        f = Field(g, np.maximum(tent(g).values, floor))
        lifted = mass_outside_support(f, (-2.0, 2.0), floor=floor)
        assert lifted == pytest.approx(0.0, abs=1e-18)

    def test_bad_window_rejected(self):
        g = Grid(-8.0, 8.0, 256)
        with pytest.raises(ValueError, match="s_left"):
            mass_outside_support(tent(g), (2.0, -2.0))


class TestDarcy:
    def test_self_similar_edge_speed(self):
        # both sides approach the analytic edge speed; the residual shrinks
        # under refinement
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0, pme_coeff=1.0)
        bb = barenblatt_params(2.0, 1.0, 1.0)
        residuals = []
        for n in (512, 1024, 2048):
            grid = Grid(-8.0, 8.0, n)
            state = PmeState(t=1.0, rho=barenblatt_field(bb, 1.0, grid))
            residuals.append(darcy_residual(state, params, dt_probe=0.2))
        speed = math.sqrt(bb.c_const / bb.kappa) / 3.0
        assert residuals[-1] <= 0.15 * speed
        assert residuals[-1] <= residuals[0]

    def test_edge_slope_matches_analytic(self):
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0, pme_coeff=1.0)
        bb = barenblatt_params(2.0, 1.0, 1.0)
        grid = Grid(-8.0, 8.0, 2048)
        state = PmeState(t=1.0, rho=barenblatt_field(bb, 1.0, grid))
        slope = edge_pressure_slope(state, params)
        exact = -math.sqrt(bb.c_const / bb.kappa) / 3.0  # -edge/(3 s^{4/3}), s=1
        assert slope == pytest.approx(exact, rel=0.05)

    def test_stationary_uniform_state(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0, pme_coeff=1.0)
        state = PmeState(t=0.0, rho=constant_field(grid, 1.0))
        assert darcy_residual(state, params, dt_probe=1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_vanished_support_rejected(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=0.0)
        state = PmeState(t=0.0, rho=constant_field(grid, 0.0))
        with pytest.raises(ValueError, match="support"):
            darcy_residual(state, params, dt_probe=1e-3)


def reference_certificate(times, pe, pt, pm, theta, eta, cap, alpha, floor):
    """One test's backward march written as a plain per-test loop, the
    reference the shared pass must match bit for bit: (lhs, coeff term,
    momentum term, initial term, bound, identity residual)."""
    dx = theta.grid.dx
    psi = theta.values.copy()
    lhs = dx * float((pe[-1] - pt[-1]) @ theta.values)
    coeff = momentum = coeff_sq = energy_sq = mom_sq = grad_sq = 0.0
    for k in range(times.size - 2, -1, -1):
        dt = times[k + 1] - times[k]
        r = pe[k] - pt[k]
        near = np.abs(r) < 1e-12
        a = np.where(near, alpha * pe[k] ** (alpha - 1.0),
                     (pe[k] ** alpha - pt[k] ** alpha) / np.where(near, 1.0, r))
        a_n = np.clip(a, eta, cap)
        lap = -np.diff(diffusive_face_flux(psi, dx, 1.0)) / dx
        mismatch = (a - a_n) * r
        coeff += dt * (1.0 / alpha) * dx * float(mismatch @ lap)
        coeff_sq += dt * dx * float((mismatch * mismatch / a_n).sum())
        energy_sq += dt * dx * float((a_n * lap * lap).sum())
        flux = advective_face_flux(pm[k], np.where(pe[k] > floor, pm[k] / pe[k], 0.0))
        dpsi = np.diff(psi)
        momentum += dt * float(flux[1:-1] @ dpsi)
        mom_sq += dt * dx * float((flux[1:-1] * flux[1:-1]).sum())
        grad_sq += dt * dx * float((dpsi * dpsi).sum()) / (dx * dx)
        psi = psi + dt * (1.0 / alpha) * a_n * lap
    initial = dx * float((pe[0] - pt[0]) @ psi)
    residual = abs(lhs - initial - coeff - momentum)
    bound = (abs(initial) + (1.0 / alpha) * math.sqrt(coeff_sq) * math.sqrt(energy_sq)
             + math.sqrt(mom_sq) * math.sqrt(grad_sq) + residual)
    return lhs, coeff, momentum, initial, bound, residual


class TestDualCertificate:
    def make_linear_paths(self, grid, a_const, n_steps, dt):
        """Paths that satisfy the discrete forward relation exactly with a
        constant quotient coefficient: for alpha=2 the quotient equals
        rho_e + rho_t, so rho_{e,t} = (a_const +/- r)/2 with r evolved by the
        linear diffusion recursion."""
        x = grid.centers
        r = 0.1 * np.exp(-((x - 0.5) ** 2))
        alpha = 2.0
        rho_e = [(a_const + r) / 2.0]
        rho_t = [(a_const - r) / 2.0]
        for _ in range(n_steps):
            w_diff = rho_e[-1] ** alpha - rho_t[-1] ** alpha
            flux = diffusive_face_flux(w_diff, grid.dx, 1.0 / alpha)
            r = r - (dt / grid.dx) * np.diff(flux)
            rho_e.append((a_const + r) / 2.0)
            rho_t.append((a_const - r) / 2.0)
        times = dt * np.arange(n_steps + 1)
        zeros = np.zeros((n_steps + 1, grid.n_cells))
        return times, np.vstack(rho_e), np.vstack(rho_t), zeros

    def test_zero_residual_path(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(grid).values + 0.1, (5, 1))
        zeros = np.zeros_like(rho)
        times = 1e-4 * np.arange(5)
        theta = bump_test_function(grid, 0.0, 2.0)
        (cert,) = dual_certificate(times, whole_rows(rho), whole_rows(rho.copy()),
                                   whole_rows(zeros), [(theta, 1e-3, 1e3)], params)
        assert cert.lhs == 0.0
        assert cert.rhs_coeff_term == 0.0
        assert cert.identity_residual == 0.0

    def test_constant_coefficient_adjoint_identity(self):
        # a constant in space-time inside the clamp window: the coefficient
        # term vanishes identically and the duality identity is exact
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        a_const = 2.0
        dt = 0.2 * grid.dx**2 / a_const
        times, pe, pt, pm = self.make_linear_paths(grid, a_const, 200, dt)
        theta = bump_test_function(grid, 0.0, 2.0)
        (cert,) = dual_certificate(times, whole_rows(pe), whole_rows(pt), whole_rows(pm),
                                   [(theta, 1e-3, 1e3)], params)
        assert cert.rhs_coeff_term == 0.0
        scale = abs(cert.lhs) + abs(cert.rhs_momentum_term) + abs(cert.initial_term)
        assert cert.identity_residual <= 1e-12 * scale
        assert abs(cert.lhs) <= cert.bound

    def test_solver_paths_identity_and_bound(self):
        grid = Grid(-8.0, 8.0, 256)
        eps = 1e-2
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
        rho0 = tent(grid)
        v0 = saturating_velocity(rho0, params)
        times, pe, pt, pm, floor = run_paired_paths(rho0, params, 0.1, v0=v0)
        theta = bump_test_function(grid, 0.0, 2.0)
        eta, cap = default_clamp_bounds(1.0, params)
        (cert,) = dual_certificate(times, pe, pt, pm, [(theta, eta, cap)], params,
                                   rho_floor=floor)
        scale = abs(cert.lhs) + abs(cert.rhs_coeff_term) + abs(cert.rhs_momentum_term)
        assert cert.identity_residual <= 1e-6 * scale
        assert abs(cert.lhs) <= cert.bound
        assert cert.initial_term == 0.0

    def test_clamp_window_validated(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(grid).values + 0.1, (3, 1))
        zeros = np.zeros_like(rho)
        times = 1e-4 * np.arange(3)
        theta = bump_test_function(grid, 0.0, 2.0)
        with pytest.raises(ValueError, match="eta"):
            dual_certificate(times, whole_rows(rho), whole_rows(rho), whole_rows(zeros),
                             [(theta, 1.0, 0.5)], params)

    def test_wrong_normalization_rejected(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=1.0)
        rho = np.tile(tent(grid).values + 0.1, (3, 1))
        zeros = np.zeros_like(rho)
        times = 1e-4 * np.arange(3)
        theta = bump_test_function(grid, 0.0, 2.0)
        with pytest.raises(ValueError, match="pme_coeff"):
            dual_certificate(times, whole_rows(rho), whole_rows(rho), whole_rows(zeros),
                             [(theta, 1e-3, 1e3)], params)

    def test_boundary_supported_theta_rejected(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(grid).values + 0.1, (3, 1))
        zeros = np.zeros_like(rho)
        times = 1e-4 * np.arange(3)
        theta = constant_field(grid, 1.0)
        with pytest.raises(RuntimeError, match="margin"):
            dual_certificate(times, whole_rows(rho), whole_rows(rho), whole_rows(zeros),
                             [(theta, 1e-3, 1e3)], params)

    @pytest.mark.parametrize("n_cells", [256, 512])
    def test_shared_pass_matches_single_test_passes(self, n_cells):
        grid = Grid(-8.0, 8.0, n_cells)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        rho0 = tent(grid)
        v0 = saturating_velocity(rho0, params)
        times, *paths, floor = run_paired_paths(rho0, params, 0.05, v0=v0)
        full = [full_rows(path) for path in paths]
        # the default window never binds on this path; the tight one does
        windows = (default_clamp_bounds(1.0, params), (0.5, 1.0))
        tests = [(bump_test_function(grid, center, width), eta, cap)
                 for center, width in ((0.0, 2.0), (1.0, 1.0)) for eta, cap in windows]
        shared = dual_certificate(times, *paths, tests, params, rho_floor=floor)
        assert len(shared) == len(tests)
        for test, cert in zip(tests, shared):
            (alone,) = dual_certificate(times, *paths, [test], params, rho_floor=floor)
            assert cert.to_dict() == alone.to_dict()
            assert (cert.lhs, cert.rhs_coeff_term, cert.rhs_momentum_term, cert.initial_term,
                    cert.bound, cert.identity_residual) == reference_certificate(
                        times, *full, *test, params.alpha, floor)
        assert shared[0].rhs_coeff_term == 0.0 != shared[1].rhs_coeff_term

    @pytest.mark.parametrize("n_cells", [256, 512])
    def test_window_store_matches_full_rows(self, n_cells):
        # the certificate reads the stored windows exactly as it reads the
        # full (steps+1, n) arrays of the same rows
        grid = Grid(-8.0, 8.0, n_cells)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        rho0 = tent(grid)
        times, *stored, floor = run_paired_paths(rho0, params, 0.05,
                                                 v0=saturating_velocity(rho0, params))
        full = [full_rows(path) for path in stored]
        windows = (default_clamp_bounds(1.0, params), (0.5, 1.0))
        tests = [(bump_test_function(grid, center, width), eta, cap)
                 for center, width in ((0.0, 2.0), (1.0, 1.0)) for eta, cap in windows]
        from_store = dual_certificate(times, *stored, tests, params, rho_floor=floor)
        from_rows = dual_certificate(times, *map(whole_rows, full), tests, params,
                                     rho_floor=floor)
        assert [c.to_dict() for c in from_store] == [c.to_dict() for c in from_rows]
        assert sum(path.nbytes for path in stored) < sum(rows.nbytes for rows in full)

    def test_empty_test_list_rejected(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(grid).values + 0.1, (3, 1))
        with pytest.raises(ValueError, match="at least one"):
            dual_certificate(1e-4 * np.arange(3), whole_rows(rho), whole_rows(rho),
                             whole_rows(np.zeros_like(rho)), [], params)

    @pytest.mark.parametrize("grid, eta, cap, message", [
        (Grid(-8.0, 8.0, 128), 1e-3, 1e-3, r"test 1: need 0 < eta < cap"),
        (Grid(-8.0, 8.0, 64), 1e-3, 1e3, r"test 1: theta has 64 cells, the paths have 128"),
        (Grid(-7.0, 9.0, 128), 1e-3, 1e3, r"test 1: theta's grid .* differs from test 0's"),
    ], ids=["eta_not_below_cap", "fewer_cells", "shifted_domain"])
    def test_bad_test_named_by_index(self, grid, eta, cap, message):
        paths_grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(paths_grid).values + 0.1, (3, 1))
        tests = [(bump_test_function(paths_grid, 0.0, 2.0), 1e-3, 1e3),
                 (bump_test_function(grid, 0.0, 2.0), eta, cap)]
        with pytest.raises(ValueError, match=message):
            dual_certificate(1e-4 * np.arange(3), whole_rows(rho), whole_rows(rho),
                             whole_rows(np.zeros_like(rho)), tests, params)

    def test_first_theta_off_the_paths_grid_named(self):
        params = PhysParams(alpha=2.0, gamma=2.0, epsilon=1e-2, pme_coeff=0.5)
        rho = np.tile(tent(Grid(-8.0, 8.0, 128)).values + 0.1, (3, 1))
        theta = bump_test_function(Grid(-8.0, 8.0, 256), 0.0, 2.0)
        with pytest.raises(ValueError, match="test 0: theta has 256 cells, the paths have 128"):
            dual_certificate(1e-4 * np.arange(3), whole_rows(rho), whole_rows(rho),
                             whole_rows(np.zeros_like(rho)), [(theta, 1e-3, 1e3)], params)
