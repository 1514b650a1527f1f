import json
import math
import weakref

import numpy as np
import pytest

from hicomp.cns import well_prepared_init
from hicomp.config import ConfigError, parse_config
from hicomp.grid import Field, Grid, derivative, integrate, lp_norm
from hicomp.params import PhysParams
from hicomp.pme import PmeState
from hicomp.study import (
    PairedPath,
    bump_test_function,
    fit_loglog_slope,
    run_certificates,
    run_paired_paths,
    run_rate_study,
    saturating_velocity,
    support_study,
)
from reference import march
from test_dual_reference import full_rows


def cfg_from(overrides: dict):
    return parse_config(json.dumps(overrides))


class TestFitLoglogSlope:
    def test_exact_square_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, intercept, r2 = fit_loglog_slope(xs, xs**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_flat(self):
        slope, _, _ = fit_loglog_slope([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_square_root_law(self):
        rng = np.random.default_rng(42)
        xs = np.geomspace(0.1, 1.0, 12)
        ys = 2.5 * np.sqrt(xs) * (1.0 + 0.01 * rng.standard_normal(12))
        slope, _, _ = fit_loglog_slope(xs, ys)
        assert 0.45 <= slope <= 0.55

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3"):
            fit_loglog_slope([1.0, 2.0], [1.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])

    def test_degenerate_xs_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestRateStudy:
    def test_single_eps_rejected(self):
        cfg = cfg_from({"grid": {"n_cells": 128}, "eps_values": [1e-2],
                        "t_end": 0.01, "snapshot_times": [0.01]})
        with pytest.raises(ValueError, match="3"):
            run_rate_study(cfg)

    @pytest.mark.parametrize("eps_values", [[], [1e-1, 1e-2]])
    def test_too_few_eps_rejected_up_front(self, eps_values):
        cfg = cfg_from({"grid": {"n_cells": 128}, "eps_values": eps_values,
                        "t_end": 0.01, "snapshot_times": [0.01]})
        with pytest.raises(ConfigError, match="at least 3 eps_values"):
            run_rate_study(cfg)

    def test_small_study_structure(self):
        cfg = cfg_from({
            "grid": {"n_cells": 256},
            "eps_values": [1e-1, 3e-2, 1e-2],
            "t_end": 0.2,
            "snapshot_times": [0.1, 0.2],
            "thresholds": {"support": 1e-8, "floor": 1e-10},
        })
        res = run_rate_study(cfg)
        assert res.errors_h1.shape == (2, 3)
        assert list(res.eps_values) == sorted(res.eps_values, reverse=True)
        assert np.all(res.errors_h1 > 0.0)
        # monotone in eps at every snapshot, 5% slack
        for mat in (res.errors_h1, res.errors_l2):
            for row in mat:
                assert np.all(np.diff(row) <= 0.05 * row[:-1])
        assert res.slope_h1 >= 0.45
        assert res.slope_l2 >= 0.20
        assert math.isfinite(res.grid_convergence_ratio)
        doc = res.to_dict()
        assert set(doc) >= {"slope_h1", "errors_h1", "gate_passed"}

    @pytest.mark.filterwarnings("ignore:grid convergence ratio")
    def test_prepares_one_start_state_per_grid(self, monkeypatch):
        import hicomp.study

        cells = []
        monkeypatch.setattr(hicomp.study, "well_prepared_init",
                            lambda rho0, *a: cells.append(rho0.grid.n_cells)
                            or well_prepared_init(rho0, *a))
        cfg = cfg_from({"grid": {"n_cells": 128}, "eps_values": [1e-1, 3e-2, 1e-2],
                        "t_end": 0.02, "snapshot_times": [0.01, 0.02]})
        run_rate_study(cfg)
        # the limit reference and every eps flow start from one state per grid
        assert cells == [128, 64]

    def test_alpha_beyond_l2_hypothesis_flagged(self):
        cfg = cfg_from({
            "grid": {"n_cells": 128},
            "params": {"alpha": 1.75},
            "eps_values": [1e-1, 3e-2, 1e-2],
            "t_end": 0.02,
            "snapshot_times": [0.02],
        })
        with pytest.warns(UserWarning, match="3/2"):
            run_rate_study(cfg)


class TestSupportStudies:
    @pytest.fixture(scope="class")
    def barenblatt_alpha_two(self):
        return support_study(cfg_from({
            "grid": {"n_cells": 512},
            "params": {"alpha": 2.0},
            "t_end": 6.0,
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        }))

    def test_barenblatt_alpha_two_growth(self, barenblatt_alpha_two):
        growth, growth_r2, _, _ = barenblatt_alpha_two
        assert abs(growth - 1.0 / 3.0) <= 0.05
        assert growth_r2 >= 0.99

    def test_barenblatt_alpha_two_decay(self, barenblatt_alpha_two):
        _, _, decay, decay_r2 = barenblatt_alpha_two
        assert abs(decay + 1.0 / 3.0) <= 0.05
        assert decay_r2 >= 0.99

    def test_one_march_for_both_exponents(self, monkeypatch):
        import hicomp.study

        calls = []
        original = hicomp.study.advance_limit
        monkeypatch.setattr(hicomp.study, "advance_limit",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        cfg = cfg_from({
            "grid": {"n_cells": 128},
            "params": {"alpha": 2.0},
            "t_end": 4.0,
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        })
        support_study(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("t_end", [2.0, 6.0])
    def test_generic_growth_fit_samples_after_the_edge_moves(self, monkeypatch, t_end):
        import hicomp.study

        fits = []
        original = hicomp.study.fit_loglog_slope
        monkeypatch.setattr(hicomp.study, "fit_loglog_slope",
                            lambda xs, ys: fits.append(len(xs)) or original(xs, ys))
        # the tent waits before its edge moves: samples spread from t = 1e-6
        # left the growth fit 3 points
        support_study(cfg_from({"grid": {"n_cells": 128}, "params": {"alpha": 2.0},
                                "t_end": t_end, "snapshot_times": []}))
        growth_points, decay_points = fits
        assert growth_points >= 8 and decay_points == 16

    def test_waiting_march_result_is_pinned(self):
        # the tent marches to its waiting time t_w before sampling; these are
        # the four floats that march gave when it ran on immutable states
        assert support_study(cfg_from({"grid": {"n_cells": 128}, "params": {"alpha": 2.0},
                                       "t_end": 2.0, "snapshot_times": []})) == (
            0.5205879096515983, 0.973236959821236, -0.19537629889685706, 0.9680481966358088)

    def test_insufficient_growth_rejected(self):
        cfg = cfg_from({
            "grid": {"n_cells": 256},
            "params": {"alpha": 2.0},
            "t_end": 0.55,
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        })
        with pytest.raises(ValueError, match="growth"):
            support_study(cfg)

    def test_zero_datum_rejected(self, tmp_path):
        from hicomp.grid import write_field_csv
        from reference import constant_field

        grid = Grid(-8.0, 8.0, 256)
        path = tmp_path / "zero.csv"
        write_field_csv(constant_field(grid, 0.0), path)
        cfg = cfg_from({
            "grid": {"n_cells": 256},
            "t_end": 2.0,
            "initial_datum": {"kind": "from_csv", "path": str(path)},
        })
        with pytest.raises(ValueError, match="support"):
            support_study(cfg)

    @pytest.mark.parametrize("center", [-3.0, 3.0])
    def test_exponents_do_not_depend_on_where_the_datum_sits(self, tmp_path, center):
        assert (shifted_tent_study(tmp_path, center, 2.0)
                == pytest.approx(shifted_tent_study(tmp_path, 0.0, 2.0), rel=1e-9))

    @pytest.mark.parametrize("center", [-3.0, 0.0, 3.0])
    def test_short_run_rejected_wherever_the_datum_sits(self, tmp_path, center):
        # the support widens from 2 to about 3.1: less than the doubling asked for
        with pytest.raises(ConfigError, match="insufficient support growth"):
            shifted_tent_study(tmp_path, center, 0.5)

    def test_short_growth_tail_rejected(self, tmp_path):
        from hicomp.grid import write_field_csv

        # a low side bump clears the 10% support threshold only once the tall
        # central spike has decayed, so the edge jumps in the last sample
        grid = Grid(-8.0, 8.0, 128)
        x = grid.centers
        rho = (10.0 * np.maximum(1.0 - np.abs(x) / 0.25, 0.0)
               + 0.5 * np.maximum(1.0 - np.abs(x - 3.0) / 0.5, 0.0))
        path = tmp_path / "spike.csv"
        write_field_csv(Field(grid, rho), path)
        cfg = cfg_from({
            "grid": {"n_cells": 128},
            "params": {"alpha": 2.0},
            "t_end": 0.01,
            "snapshot_times": [],
            "thresholds": {"support": 0.1},
            "initial_datum": {"kind": "from_csv", "path": str(path)},
        })
        with pytest.raises(ConfigError, match="tail fit"):
            support_study(cfg)


def shifted_tent_study(tmp_path, center, t_end):
    """support_study at alpha = 2 on the CSV tent (1 - |x - center|)_+."""
    from hicomp.grid import write_field_csv

    grid = Grid(-8.0, 8.0, 256)
    path = tmp_path / f"tent_{center:g}.csv"
    write_field_csv(Field(grid, np.maximum(1.0 - np.abs(grid.centers - center), 0.0)), path)
    return support_study(cfg_from({
        "grid": {"n_cells": 256},
        "params": {"alpha": 2.0},
        "t_end": t_end,
        "snapshot_times": [],
        "initial_datum": {"kind": "from_csv", "path": str(path)},
    }))


class TestSupportStudyInputs:
    def test_t_end_before_datum_start_rejected(self):
        cfg = cfg_from({
            "grid": {"n_cells": 256},
            "params": {"alpha": 2.0},
            "t_end": 0.4,
            "snapshot_times": [],
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        })
        with pytest.raises(ConfigError, match="t_end"):
            support_study(cfg)


def full_paired_paths(rho0, params, t_end, v0=None):
    """Reference for run_paired_paths: the same paired march, keeping every
    step as full-grid rows (times, rho_eps, rho_tilde, momentum)."""
    flow = well_prepared_init(rho0, v0=v0)
    rows = [(0.0, flow.rho.values, flow.rho.values, flow.momentum_v.values)]
    rows += [(flow.t, flow.rho.values, limit.rho.values, flow.momentum_v.values)
             for (flow, limit), _ in march((flow, PmeState(t=0.0, rho=flow.rho)), params,
                                           t_end)]
    times, *paths = zip(*rows)
    return (np.asarray(times), *map(np.vstack, paths))


def tent(grid):
    return Field(grid, np.maximum(1.0 - np.abs(grid.centers), 0.0))


class TestPairedPaths:
    def test_paths_share_stamps_and_start(self):
        grid = Grid(-8.0, 8.0, 128)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        rho0 = tent(grid)
        times, path = run_paired_paths(rho0, params, 0.02)
        assert path.shape == (times.size, 128)
        pe, pt, pm = full_rows(path)
        assert np.array_equal(pe[0], pt[0])
        assert np.all(pm[0] == 0.0)
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.02)
        assert path.floor == pytest.approx(1e-10 * float(rho0.values.max()))

    @pytest.mark.parametrize("velocity", ["saturating", "whole_grid"])
    def test_stored_rows_rebuild_the_march(self, velocity):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        rho0 = tent(grid)
        if velocity == "saturating":
            v0 = saturating_velocity(rho0, params)
        else:
            # momentum in every cell, of both signs: the flow's window is the
            # whole grid from the first row on
            v0 = Field(grid, 1e-3 * np.cos(grid.centers))
        times, path = run_paired_paths(rho0, params, 0.05, v0=v0)
        ref_times, *full = full_paired_paths(rho0, params, 0.05, v0=v0)
        assert np.array_equal(times, ref_times)
        assert path.shape == full[0].shape
        for rows, ref in zip(full_rows(path), full):
            assert np.array_equal(rows, ref)
            assert np.array_equal(np.signbit(rows), np.signbit(ref))
        # the limit equation's vacuum is the floored datum's boundary value
        assert np.all(full[1][:, 0] == path.floor) and path.floor > 0.0
        flow_bytes = sum(flow.nbytes for _, flow, *_ in path.steps)
        if velocity == "whole_grid":
            assert flow_bytes == 2 * full[0].nbytes
        else:
            assert flow_bytes < 2 * full[0].nbytes

    def test_tent_stores_less_than_full_rows(self):
        grid = Grid(-8.0, 8.0, 256)
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        rho0 = tent(grid)
        times, path = run_paired_paths(rho0, params, 0.05, v0=saturating_velocity(rho0, params))
        assert 0 < path.nbytes < 3 * times.size * grid.n_cells * 8
        assert path.itemsize == 8


class TestPairedPathStore:
    FLOOR = 0.0625
    STEPS = [(0, np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -0.0, 0.0, -1.0]]),   # whole flow,
              1, np.array([7.0, 8.0]), 0.5),                                 # inner limit
             (1, np.array([[5.0, 6.0], [-0.0, 2.0]]),                         # inner flow,
              0, np.array([1.0, 2.0, 3.0, 4.0]), 0.25),                      # whole limit
             (2, np.empty((2, 0)), 4, np.empty(0), 0.125),                   # all vacuum
             (2, np.array([[9.0], [3.0]]), 2, np.array([9.5]), 0.0)]         # one cell
    F = FLOOR
    # rows[q, k]: q = flow density, limit density, momentum
    ROWS = np.array([[[1.0, 2.0, 3.0, 4.0], [F, 5.0, 6.0, F], [F, F, F, F], [F, F, 9.0, F]],
                     [[0.5, 7.0, 8.0, 0.5], [1.0, 2.0, 3.0, 4.0], [0.125] * 4,
                      [0.0, 0.0, 9.5, 0.0]],
                     [[0.5, -0.0, 0.0, -1.0], [0.0, -0.0, 2.0, 0.0], [0.0] * 4,
                      [0.0, 0.0, 3.0, 0.0]]])

    def test_rows_and_blocks_rebuild_the_stored_steps(self):
        path = PairedPath(4, self.FLOOR, self.STEPS)
        assert path.shape == (4, 4) and path.floor == self.FLOOR
        assert path.itemsize == 8 and path.nbytes == (8 + 2 + 4 + 4 + 0 + 0 + 2 + 1) * 8
        for k in (0, 1, 2, 3, -1, np.int64(1)):
            rows = path.rows(k)
            assert np.array_equal(rows, self.ROWS[:, k])
            assert np.array_equal(np.signbit(rows), np.signbit(self.ROWS[:, k]))
        # each block spans its windows' union widened by one cell, within the grid
        for (k0, k1), (s0, s1) in {(0, 4): (0, 4), (1, 3): (0, 4), (2, 3): (0, 1),
                                   (3, 4): (1, 4), (2, 4): (1, 4)}.items():
            assert path.block(k0, k1)[0] == s0
            assert np.array_equal(path.block(k0, k1)[1], self.ROWS[:, k0:k1, s0:s1])
        assert np.array_equal(full_rows(path), self.ROWS)

    def test_stored_values_are_read_only_and_reads_are_fresh(self):
        path = PairedPath(4, self.FLOOR, [(lo, flow.copy(), limit_lo, limit.copy(), vacuum)
                                          for lo, flow, limit_lo, limit, vacuum in self.STEPS])
        for _, flow, _, limit, _ in path.steps:
            with pytest.raises(ValueError, match="read-only"):
                flow[...] = 9.0
            with pytest.raises(ValueError, match="read-only"):
                limit[...] = 9.0
        path.rows(0)[:] = 9.0
        path.block(0, 4)[1][:] = 9.0
        assert np.array_equal(path.rows(0), self.ROWS[:, 0])

    def test_bad_step_index_rejected(self):
        path = PairedPath(4, self.FLOOR, self.STEPS)
        with pytest.raises(IndexError):
            path.rows(4)
        with pytest.raises(TypeError):
            path.rows(1.0)
        with pytest.raises(TypeError):
            path.block(0.0, 2)


class TestBumpAndVelocity:
    def test_bump_unit_gradient(self):
        grid = Grid(-8.0, 8.0, 512)
        theta = bump_test_function(grid, 0.5, 1.5)
        assert lp_norm(derivative(theta), 2) == pytest.approx(1.0, rel=1e-12)
        assert theta.values[0] == 0.0 and theta.values[-1] == 0.0

    def test_saturating_velocity_hits_entropy_ceiling(self):
        grid = Grid(-8.0, 8.0, 512)
        rho0 = Field(grid, np.maximum(1.0 - np.abs(grid.centers), 0.0))
        params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
        v0 = saturating_velocity(rho0, params)
        got = math.sqrt(integrate(Field(grid, rho0.values * v0.values**2)))
        target = math.sqrt(params.epsilon / (params.gamma - 1.0)) \
            * math.sqrt(integrate(Field(grid, rho0.values ** params.gamma)))
        assert got == pytest.approx(target, rel=1e-12)


class TestCertificateSweep:
    def test_sweep_consistency(self):
        cfg = cfg_from({
            "grid": {"n_cells": 256},
            "eps_values": [1e-2, 1e-3],
            "t_end": 0.1,
            "snapshot_times": [0.1],
        })
        entries = run_certificates(cfg)
        assert len(entries) == 8  # 2 eps x 2 thetas x 2 clamp windows
        for e in entries:
            scale = abs(e["lhs"]) + abs(e["rhs_coeff_term"]) + abs(e["rhs_momentum_term"])
            assert e["identity_residual"] <= 1e-6 * scale
            assert abs(e["lhs"]) <= e["bound"]
        cs = [e["measured_c"] for e in entries]
        assert max(cs) / min(cs) < 2.0

    def test_one_backward_pass_per_eps(self, monkeypatch):
        import hicomp.study

        calls, bumps = [], []
        original = hicomp.study.dual_certificate
        monkeypatch.setattr(hicomp.study, "dual_certificate",
                            lambda *a, **k: calls.append(len(a[2])) or original(*a, **k))
        original_bump = hicomp.study.bump_test_function
        monkeypatch.setattr(hicomp.study, "bump_test_function",
                            lambda *a: bumps.append(1) or original_bump(*a))
        cfg = cfg_from({
            "grid": {"n_cells": 128},
            "eps_values": [1e-2, 1e-3],
            "t_end": 0.02,
            "snapshot_times": [0.02],
        })
        entries = run_certificates(cfg)
        assert calls == [4, 4]  # one pass per eps, 2 thetas x 2 clamp windows each
        assert len(bumps) == 2  # one bump per theta for the whole run
        assert len(entries) == 8

    def test_paths_freed_before_next_march(self, monkeypatch):
        import hicomp.study

        refs, alive_at_start = [], []
        original = hicomp.study.run_paired_paths

        def recorded(*args, **kwargs):
            alive_at_start.append([ref() is not None for ref in refs])
            result = original(*args, **kwargs)
            refs.append(weakref.ref(result[1]))
            return result

        monkeypatch.setattr(hicomp.study, "run_paired_paths", recorded)
        cfg = cfg_from({
            "grid": {"n_cells": 128},
            "eps_values": [1e-2, 1e-3],
            "t_end": 0.02,
            "snapshot_times": [0.02],
        })
        run_certificates(cfg)
        assert alive_at_start == [[], [False]]

    def test_no_eps_rejected(self):
        cfg = cfg_from({"grid": {"n_cells": 128}, "eps_values": [], "t_end": 0.02,
                        "snapshot_times": [0.02]})
        with pytest.raises(ConfigError, match="eps_values"):
            run_certificates(cfg)
