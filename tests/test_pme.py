import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from hicomp.grid import Field, Grid, integrate, lp_norm, march_rows
from hicomp.params import PhysParams
from hicomp.pme import (
    CFL,
    BarenblattParams,
    LimitRow,
    PmeState,
    _profile_mass,
    _scipy_extension,
    barenblatt_eval,
    barenblatt_field,
    barenblatt_params,
    interface_positions,
    pme_pressure,
    write_pme_snapshot,
)
import reference
from reference import advance, cfl_dt, constant_field, march, pme_step, stability_limit


def closed_form_c(alpha: float, mass: float) -> float:
    """Independent oracle: the profile mass has a Beta-function closed form,
    mass = C**(p+1/2) * kappa**(-1/2) * B(1/2, p+1) with p = 1/(alpha-1)."""
    p = 1.0 / (alpha - 1.0)
    kappa = (alpha - 1.0) / (2.0 * alpha * (alpha + 1.0))
    beta = math.sqrt(math.pi) * gamma_fn(p + 1.0) / gamma_fn(p + 1.5)
    return (mass * math.sqrt(kappa) / beta) ** (1.0 / (p + 0.5))


class TestBarenblattParams:
    def test_kappa_alpha_two(self):
        p = barenblatt_params(2.0, 1.0)
        assert p.kappa == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_round_trip_unit_c(self):
        # for alpha=2 the profile is a parabola; mass at C=1 is (4/3)*sqrt(12)
        mass = (4.0 / 3.0) * math.sqrt(12.0)
        p = barenblatt_params(2.0, mass)
        assert p.c_const == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("alpha,mass", [(1.25, 0.5), (1.5, 1.0), (2.0, 3.0), (3.0, 10.0)])
    def test_matches_closed_form(self, alpha, mass):
        p = barenblatt_params(alpha, mass)
        assert p.c_const == pytest.approx(closed_form_c(alpha, mass), rel=1e-8)

    @pytest.mark.parametrize("alpha", [1.005, 1.02, 1.026])
    def test_alpha_near_one_carries_the_mass(self, alpha):
        # below alpha ~ 1.027 the profile at C = 1e8 overflows, so the
        # bracket's upper end is lowered there
        p = barenblatt_params(alpha, 1.0)
        power = 1.0 / (alpha - 1.0)
        log_beta = math.lgamma(power + 1.0) - math.lgamma(power + 1.5)
        mass = p.c_const ** (power + 0.5) / math.sqrt(p.kappa) * math.sqrt(math.pi) \
            * math.exp(log_beta)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            barenblatt_params(2.0, 0.0)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            barenblatt_params(1.0, 1.0)


def reference_profile_mass(c_const: float, alpha: float, kappa: float) -> float:
    """The profile mass through the public scipy.integrate.quad."""
    edge = math.sqrt(c_const / kappa)
    p = 1.0 / (alpha - 1.0)

    def f(xi):
        return max(c_const - kappa * xi * xi, 0.0) ** p

    val, _ = quad(f, -edge, edge, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def reference_c_const(alpha: float, mass: float) -> float:
    """The inversion through the public scipy.optimize.brentq."""
    kappa = (alpha - 1.0) / (2.0 * alpha * (alpha + 1.0))

    def g(c):
        return reference_profile_mass(c, alpha, kappa) - mass

    lo, hi = 1e-8, 10.0 ** min(8.0, 300.0 * (alpha - 1.0))
    if not (g(lo) < 0.0 < g(hi)):
        raise ValueError(
            f"mass {mass} cannot be bracketed by C in [{lo}, {hi}]"
        )
    return float(brentq(g, lo, hi, rtol=1e-14, maxiter=200))


def outcome(fn, *args):
    """A float result by its bits, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


class TestInversionBits:
    """The inversion calls the compiled QUADPACK and Brent routines that
    scipy's public quad and brentq call, so it must reproduce them bit for
    bit, failures included."""

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.01, 6.0), log_c=st.floats(-8.0, 8.0))
    def test_profile_mass_matches_quad(self, alpha, log_c):
        c_const = 10.0 ** log_c
        kappa = (alpha - 1.0) / (2.0 * alpha * (alpha + 1.0))
        assert (outcome(_profile_mass, c_const, alpha, kappa)
                == outcome(reference_profile_mass, c_const, alpha, kappa))

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(1.01, 6.0), mass=st.floats(0.05, 20.0))
    def test_c_const_matches_brentq(self, alpha, mass):
        assert (outcome(lambda: barenblatt_params(alpha, mass).c_const)
                == outcome(reference_c_const, alpha, mass))

    @pytest.mark.parametrize("alpha,mass", [(1.25, 1.0), (2.0, 1.0), (1.5, 0.8)])
    def test_config_data_match_brentq(self, alpha, mass):
        assert barenblatt_params(alpha, mass).c_const.hex() == reference_c_const(alpha, mass).hex()

    @pytest.mark.parametrize("alpha,mass", [(2.0, 1e30), (1.5, 1e-300)])
    def test_unbracketed_mass_raises_same_error(self, alpha, mass):
        with pytest.raises(ValueError, match="cannot be bracketed") as raised:
            barenblatt_params(alpha, mass)
        assert outcome(reference_c_const, alpha, mass) == ("ValueError", str(raised.value))


def test_missing_scipy_routine_is_named():
    with pytest.raises(ModuleNotFoundError, match="scipy.integrate._no_such_routine"):
        _scipy_extension("scipy.integrate._no_such_routine")


class TestBarenblattEval:
    def test_zero_outside_support(self):
        p = barenblatt_params(2.0, 1.0, 0.5)
        s = 0.5 * 2.0
        edge = math.sqrt(p.c_const / p.kappa) * s ** (1.0 / 3.0)
        assert barenblatt_eval(p, 2.0, edge * 1.01) == 0.0
        assert barenblatt_eval(p, 2.0, -edge * 1.01) == 0.0

    def test_peak_value_alpha_two(self):
        # C=1 fixed directly: peak is s**(-1/3) * C**(1/(alpha-1))
        p = BarenblattParams(alpha=2.0, mass=math.nan, kappa=1.0 / 12.0,
                             c_const=1.0, pme_coeff=1.0)
        for t in (0.5, 1.0, 2.0):
            assert barenblatt_eval(p, t, 0.0) == pytest.approx(t ** (-1.0 / 3.0), rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_mass_conserved(self, t):
        p = barenblatt_params(1.5, 2.0, 1.0 / 1.5)
        s = p.pme_coeff * t
        edge = math.sqrt(p.c_const / p.kappa) * s ** (1.0 / 2.5)
        val, _ = quad(lambda x: barenblatt_eval(p, t, x), -edge, edge,
                      epsabs=0.0, epsrel=1e-11, limit=200)
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_nonpositive_time_rejected(self):
        p = barenblatt_params(2.0, 1.0)
        with pytest.raises(ValueError, match="t > 0"):
            barenblatt_eval(p, 0.0, 0.0)


class TestPmeStep:
    def test_constant_is_steady(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=1.5, epsilon=0.0)
        state = PmeState(t=0.0, rho=constant_field(g, 0.7))
        out = pme_step(state, params, 0.5 * stability_limit(state, params))
        assert np.array_equal(out.rho.values, state.rho.values)

    def test_vacuum_is_steady(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        state = PmeState(t=0.0, rho=constant_field(g, 0.0))
        out = pme_step(state, params, 1.0)
        assert np.array_equal(out.rho.values, np.zeros(32))

    def test_unstable_dt_rejected(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        state = PmeState(t=0.0, rho=constant_field(g, 1.0))
        with pytest.raises(ValueError, match="stability"):
            pme_step(state, params, 2.0 * stability_limit(state, params))

    def test_negative_density_rejected(self):
        g = Grid(-2.0, 2.0, 32)
        with pytest.raises(ValueError, match="nonnegative"):
            PmeState(t=0.0, rho=constant_field(g, -1.0))

    @pytest.mark.parametrize("block", [[1e250], [1.0, 1e250, 1.0], [1e-3, 1e200, 1e250],
                                       [1e250, 1e250]],
                             ids=["spike", "flanked", "ramp", "plateau"])
    def test_overflowing_step_rejected(self, block):
        # rho**alpha overflows to inf: the first three blocks' new cells
        # reach -inf, which the clip turns into 0, and +inf; the plateau's
        # inf - inf gives NaN cells, which skip the clip
        values = np.zeros(64)
        values[30:30 + len(block)] = block
        state = PmeState(t=0.0, rho=Field(Grid(-8.0, 8.0, 64), values))
        params = PhysParams(alpha=1.5, epsilon=0.0)
        row = LimitRow(state, params)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^field contains non-finite values$"):
                pme_step(state, params, cfl_dt(state, params))
            with pytest.raises(ValueError, match="^field contains non-finite values$"):
                next(march_rows((row,), 0.0, 1.0))

    def test_local_error_shrinks_with_dt(self):
        # one step against the analytic solution: the local error carries
        # dt^2 and dt*dx^2 terms, so halving dt at fixed dx at least halves it
        grid = Grid(-8.0, 8.0, 512)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        bb = barenblatt_params(2.0, 1.0, params.pme_coeff)
        t0 = 0.5
        state = PmeState(t=t0, rho=barenblatt_field(bb, t0, grid))
        dt = CFL * stability_limit(state, params)

        def local_err(step):
            out = pme_step(state, params, step)
            exact = barenblatt_field(bb, t0 + step, grid)
            return lp_norm(Field(grid, out.rho.values - exact.values), 1)

        e1, e2 = local_err(dt), local_err(dt / 2.0)
        assert e2 <= 0.75 * e1


class TestPmeSolveTo:
    def test_identity_when_already_there(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        state = PmeState(t=1.0, rho=constant_field(g, 1.0))
        (out,), _ = advance((state,), params, 1.0)
        assert out is state

    def test_backwards_rejected(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        state = PmeState(t=1.0, rho=constant_field(g, 1.0))
        with pytest.raises(ValueError, match="t_end"):
            advance((state,), params, 0.5)

    def test_barenblatt_accuracy(self):
        grid = Grid(-8.0, 8.0, 1024)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        bb = barenblatt_params(2.0, 1.0, params.pme_coeff)
        state = PmeState(t=0.5, rho=barenblatt_field(bb, 0.5, grid))
        (state,), _ = advance((state,), params, 1.0)
        exact = barenblatt_field(bb, 1.0, grid)
        rel = lp_norm(Field(grid, state.rho.values - exact.values), 1) / lp_norm(exact, 1)
        assert rel <= 2e-2
        assert state.t == 1.0


class TestPmePressure:
    def test_vacuum(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        p = pme_pressure(PmeState(t=0.0, rho=constant_field(g, 0.0)), params)
        assert np.all(p.values == 0.0)

    def test_unit_density_alpha_two(self):
        g = Grid(-2.0, 2.0, 32)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        p = pme_pressure(PmeState(t=0.0, rho=constant_field(g, 1.0)), params)
        assert np.allclose(p.values, 2.0, rtol=0, atol=1e-15)

    def test_barenblatt_closed_form(self):
        # alpha=2: pressure is the truncated parabola 2 s^{-2/3}(C - k x^2 s^{-2/3})_+
        grid = Grid(-8.0, 8.0, 512)
        params = PhysParams(alpha=2.0, epsilon=0.0, pme_coeff=1.0)
        bb = barenblatt_params(2.0, 1.0, 1.0)
        t = 1.0
        state = PmeState(t=t, rho=barenblatt_field(bb, t, grid))
        s = 1.0
        x = grid.centers
        expected = 2.0 * s ** (-2.0 / 3.0) * np.maximum(
            bb.c_const - bb.kappa * x**2 * s ** (-2.0 / 3.0), 0.0)
        assert np.allclose(pme_pressure(state, params).values, expected,
                           rtol=1e-12, atol=1e-14)


class TestInterfacePositions:
    def test_barenblatt_edge(self):
        # C=1, s=1: support edge at sqrt(C/kappa) = sqrt(12)
        grid = Grid(-8.0, 8.0, 2048)
        bb = BarenblattParams(alpha=2.0, mass=math.nan, kappa=1.0 / 12.0,
                              c_const=1.0, pme_coeff=1.0)
        state = PmeState(t=1.0, rho=barenblatt_field(bb, 1.0, grid))
        s_left, s_right = interface_positions(state, 1e-6)
        assert abs(s_right - math.sqrt(12.0)) <= grid.dx
        assert abs(s_left + math.sqrt(12.0)) <= grid.dx

    def test_single_cell_support(self):
        grid = Grid(0.0, 1.0, 8)
        vals = np.zeros(8)
        vals[3] = 1.0
        state = PmeState(t=0.0, rho=Field(grid, vals))
        s_left, s_right = interface_positions(state, 1e-6)
        x0 = grid.centers[3]
        assert s_left == pytest.approx(x0 - grid.dx / 2)
        assert s_right == pytest.approx(x0 + grid.dx / 2)

    def test_all_zero_rejected(self):
        grid = Grid(0.0, 1.0, 8)
        state = PmeState(t=0.0, rho=constant_field(grid, 0.0))
        with pytest.raises(ValueError, match="support"):
            interface_positions(state, 1e-6)

    def test_bad_threshold_rejected(self):
        grid = Grid(0.0, 1.0, 8)
        state = PmeState(t=0.0, rho=constant_field(grid, 1.0))
        with pytest.raises(ValueError, match="threshold"):
            interface_positions(state, 2.0)


class TestInvariants:
    def setup_method(self):
        self.grid = Grid(-8.0, 8.0, 256)
        self.params = PhysParams(alpha=1.5, epsilon=0.0)
        x = self.grid.centers
        self.rho0 = Field(self.grid, np.maximum(1.0 - np.abs(x), 0.0))

    def test_mass_conservation(self):
        state = PmeState(t=0.0, rho=self.rho0)
        m0 = integrate(state.rho)
        (out,), _ = advance((state,), self.params, 0.5)
        assert abs(integrate(out.rho) - m0) <= 1e-12 * m0
        assert out.clipped_mass <= 1e-14 * m0

    def test_l1_contraction(self):
        x = self.grid.centers
        r2 = Field(self.grid, np.maximum(0.8 - np.abs(x - 0.5), 0.0))
        s1, s2 = PmeState(t=0.0, rho=self.rho0), PmeState(t=0.0, rho=r2)
        dx = self.grid.dx
        pos = dx * float(np.maximum(s1.rho.values - s2.rho.values, 0.0).sum())
        drift = 0.0
        while s1.t < 0.05:
            dt = CFL * min(stability_limit(s1, self.params),
                           stability_limit(s2, self.params))
            dt = min(dt, 0.05 - s1.t)
            s1, s2 = pme_step(s1, self.params, dt), pme_step(s2, self.params, dt)
            new = dx * float(np.maximum(s1.rho.values - s2.rho.values, 0.0).sum())
            drift = max(drift, new - pos)
            pos = new
        assert drift <= 1e-10

    def test_maximum_principle(self):
        state = PmeState(t=0.0, rho=self.rho0)
        m0 = float(state.rho.values.max())
        (out,), _ = advance((state,), self.params, 0.5)
        assert float(out.rho.values.max()) <= m0 + 1e-12

    def test_smoothing_decay_exponent(self):
        grid = Grid(-8.0, 8.0, 512)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        bb = barenblatt_params(2.0, 1.0, params.pme_coeff)
        state = PmeState(t=0.5, rho=barenblatt_field(bb, 0.5, grid))
        ts, peaks = [], []
        for t in np.geomspace(0.5, 4.0, 10):
            (state,), _ = advance((state,), params, float(t))
            ts.append(state.t)
            peaks.append(float(state.rho.values.max()))
        slope = np.polyfit(np.log(ts), np.log(peaks), 1)[0]
        assert abs(slope + 1.0 / 3.0) <= 0.05

    def test_finite_propagation_one_cell_per_step(self):
        state = PmeState(t=0.0, rho=self.rho0)
        prev = np.nonzero(state.rho.values > 0.0)[0]
        for _ in range(200):
            dt = CFL * stability_limit(state, self.params)
            state = pme_step(state, self.params, dt)
            cur = np.nonzero(state.rho.values > 0.0)[0]
            assert cur[0] >= prev[0] - 1
            assert cur[-1] <= prev[-1] + 1
            prev = cur


class TestAdvance:
    def setup_method(self):
        self.grid = Grid(-8.0, 8.0, 256)
        self.params = PhysParams(alpha=1.5, epsilon=0.0)
        x = self.grid.centers
        self.rho0 = Field(self.grid, np.maximum(1.0 - np.abs(x), 0.0))

    def test_pair_lands_together(self):
        x = self.grid.centers
        r2 = Field(self.grid, np.maximum(0.5 - np.abs(x + 0.3), 0.0))
        (s1, s2), _ = advance((PmeState(t=0.0, rho=self.rho0),
                               PmeState(t=0.0, rho=r2)), self.params, 0.02)
        assert s1.t == 0.02 and s2.t == 0.02

    def test_comparison_principle_under_shared_dt(self):
        x = self.grid.centers
        r2 = Field(self.grid, self.rho0.values
                   + 0.4 * np.maximum(1.0 - np.abs(x - 1.2) / 0.5, 0.0))
        (out1, out2), _ = advance((PmeState(t=0.0, rho=self.rho0),
                                   PmeState(t=0.0, rho=r2)), self.params, 0.05)
        violation = float(np.max(out1.rho.values - out2.rho.values))
        assert violation <= 1e-10

    def test_pair_steps_with_the_smaller_cfl_step(self):
        s1 = PmeState(t=0.0, rho=self.rho0)
        s2 = PmeState(t=0.0, rho=Field(self.grid, 2.0 * self.rho0.values))
        dts = [dt for _, dt in march((s1, s2), self.params, 0.01)]
        assert dts[0] == CFL * stability_limit(s2, self.params)
        assert dts[0] < CFL * stability_limit(s1, self.params)

    def test_march_yields_every_step_and_snapshots_land(self, monkeypatch):
        seen = []
        original = reference.march

        def recorded(*args):
            for states, dt in original(*args):
                seen.append((states[0], dt))
                yield states, dt

        monkeypatch.setattr(reference, "march", recorded)
        final, snaps = advance((PmeState(t=0.0, rho=self.rho0),), self.params, 0.02,
                               snapshot_times=(0.0, 0.01))
        assert [s.t for (s,) in snaps] == [0.0, 0.01]
        assert snaps[0][0].rho is self.rho0
        assert final[0] is seen[-1][0] and final[0].t == 0.02
        assert sum(dt for _, dt in seen) == pytest.approx(0.02, rel=1e-12)
        # every yielded state owns its array: steps never reuse buffers
        assert len({id(s.rho.values) for s, _ in seen}) == len(seen)

    def test_states_at_different_times_rejected(self):
        with pytest.raises(ValueError, match="share a time"):
            advance((PmeState(t=0.0, rho=self.rho0), PmeState(t=0.1, rho=self.rho0)),
                    self.params, 0.2)

    def test_snapshot_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="snapshot"):
            advance((PmeState(t=0.0, rho=self.rho0),), self.params, 0.1,
                    snapshot_times=(0.2,))

    def test_support_reaching_margin_rejected(self):
        x = self.grid.centers
        wide = Field(self.grid, np.maximum(1.0 - np.abs(x) / 6.0, 0.0))
        with pytest.raises(RuntimeError, match="margin"):
            advance((PmeState(t=0.0, rho=wide),), self.params, 0.5)

    def test_non_positive_cfl_step_rejected(self, monkeypatch):
        monkeypatch.setattr(reference, "stability_limit", lambda state, params: 0.0)
        with pytest.raises(RuntimeError, match="not positive"):
            advance((PmeState(t=0.0, rho=self.rho0),), self.params, 0.1)


class TestSnapshotWriter:
    def test_writes_time_and_columns(self, tmp_path):
        g = Grid(-2.0, 2.0, 16)
        params = PhysParams(alpha=2.0, epsilon=0.0)
        state = PmeState(t=0.25, rho=constant_field(g, 1.0))
        path = tmp_path / "snap.csv"
        write_pme_snapshot(state, params, path)
        text = path.read_text()
        assert text.startswith("# t=0.25\n")
        assert "x,rho,pressure" in text
        assert len(text.strip().splitlines()) == 2 + 16
