import json
import math
import warnings

import numpy as np
import pytest

from hicomp.cli import dispatch


def small_config(tmp_path, **overrides):
    doc = {
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 128},
        "eps_values": [1e-2],
        "t_end": 0.01,
        "snapshot_times": [0.005, 0.01],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 64
        assert "unknown command" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert capsys.readouterr().out == (
            "usage: hicomp COMMAND [--config PATH] [--output DIR] [--verbose]\n"
            "\n"
            "commands:\n"
            "  simulate       one flow run (first eps value); snapshots + diagnostics CSV\n"
            "  pme            limit-equation run; snapshot CSVs\n"
            "  rate-study     eps sweep with slope fits; JSON + CSV tables\n"
            "  support-study  interface growth and peak decay exponents; JSON\n"
            "  certify        duality certificates over the eps sweep; JSON\n"
            "  validate       built-in invariant suite; prints a pass/fail table\n"
            "\n"
            "Every pipeline runs serially in one process.\n")

    def test_readme_command_table_lists_every_command_in_order(self):
        import re
        from pathlib import Path

        from hicomp.cli import COMMANDS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert re.findall(r"^\| `([a-z-]+)` +\|", readme, re.M) == list(COMMANDS)

    def test_missing_config_names_path(self, capsys):
        code = dispatch(["rate-study", "--config", "missing.json"])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_is_validation_failure(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"t_end": 0.1, "\xff": 1}')
        assert dispatch(["pme", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("target", ["file", "below a file"])
    def test_uncreatable_output_dir_is_validation_failure(self, tmp_path, capsys, target):
        blocker = tmp_path / "F"
        blocker.write_text("not a directory")
        out = blocker if target == "file" else blocker / "sub"
        path = small_config(tmp_path)
        assert dispatch(["pme", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and str(out) in err
        assert blocker.read_text() == "not a directory"

    def test_validate_creates_no_output_dir(self, tmp_path):
        out = tmp_path / "D"
        path = small_config(tmp_path)
        assert dispatch(["validate", "--config", str(path), "--output", str(out)]) == 0
        assert not out.exists()

    def test_failed_rate_study_creates_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "D"
        path = small_config(tmp_path, eps_values=[1e-2])
        assert dispatch(["rate-study", "--config", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("cmd, overrides", [
        ("simulate", {"snapshot_times": [math.nan, 0.005]}),
        ("pme", {"snapshot_times": [math.nan, 0.005]}),
        ("pme", {"initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": math.inf}}),
        ("simulate", {"initial_datum": {"kind": "tent", "mass": math.inf}}),
    ])
    def test_non_finite_config_value_is_validation_failure(self, tmp_path, capsys, cmd,
                                                           overrides):
        # json.dumps writes NaN and Infinity, which the JSON reader accepts
        path = small_config(tmp_path, **overrides)
        assert dispatch([cmd, "--config", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or list(out.iterdir()) == []

    def test_invalid_config_value_is_validation_failure(self, tmp_path, capsys):
        path = small_config(tmp_path, params={"alpha": 0.5})
        assert dispatch(["simulate", "--config", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_numerical_value_error_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        import hicomp.cns

        def blow_up(flat, *args):
            # the kernel's (2, lanes, width) density and momentum, here of
            # simulate's one lane, with every density NaN
            new = flat.reshape(2, 1, -1).copy()
            new[0] = np.nan
            return new

        monkeypatch.setattr(hicomp.cns, "_flow_update", blow_up)
        path = small_config(tmp_path)
        assert dispatch(["simulate", "--config", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_empty_eps_values_names_the_key(self, tmp_path, capsys):
        path = small_config(tmp_path, eps_values=[])
        assert dispatch(["rate-study", "--config", str(path)]) == 1
        assert "eps_values" in capsys.readouterr().err

    def test_missing_csv_datum_is_validation_failure(self, tmp_path, capsys):
        path = small_config(tmp_path, initial_datum={"kind": "from_csv",
                                                     "path": str(tmp_path / "none.csv")})
        assert dispatch(["pme", "--config", str(path)]) == 1
        assert "none.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["simulate", "pme", "certify", "support-study"])
    def test_negative_csv_datum_is_validation_failure(self, tmp_path, capsys, cmd):
        from hicomp.config import tent_field
        from hicomp.grid import Field, Grid, write_field_csv

        tent = tent_field(Grid(-8.0, 8.0, 128), 1.0)
        values = tent.values.copy()
        values[60] = -1e-3
        write_field_csv(Field(tent.grid, values), tmp_path / "neg.csv")
        path = small_config(tmp_path, initial_datum={"kind": "from_csv",
                                                     "path": str(tmp_path / "neg.csv")})
        assert dispatch([cmd, "--config", str(path)]) == 1
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("datum", ["all-zero", "tent-at-6.8", "wide-barenblatt"])
    @pytest.mark.parametrize("cmd", ["simulate", "pme", "rate-study", "support-study",
                                     "certify"])
    def test_unfit_datum_is_validation_failure(self, tmp_path, capsys, cmd, datum):
        # every command checks its datum before it marches: not all zero, and
        # clear of the outer 10% margins above the vacuum floor
        from hicomp.grid import Field, Grid, write_field_csv

        t_end = 0.01
        if datum == "wide-barenblatt":
            # the profile covers the grid and one step is about 8e-10, so
            # t_end stays a few steps past the start
            spec = {"kind": "barenblatt", "mass": 1e30, "t0": 0.5}
            t_end = 4e-9 + (0.5 if cmd == "support-study" else 0.0)
        else:
            grid = Grid(-8.0, 8.0, 128)
            values = (np.zeros(grid.n_cells) if datum == "all-zero"
                      else np.maximum(1.0 - np.abs(grid.centers - 6.8), 0.0))
            write_field_csv(Field(grid, values), tmp_path / "rho0.csv")
            spec = {"kind": "from_csv", "path": str(tmp_path / "rho0.csv")}
        path = small_config(tmp_path, initial_datum=spec, t_end=t_end,
                            snapshot_times=[t_end], eps_values=[1e-1, 1e-2, 1e-3])
        assert dispatch([cmd, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: initial datum ")
        assert ("has no support" if datum == "all-zero" else "10% margin of [-8.0, 8.0]") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "pme"])
    def test_colliding_snapshot_names_rejected(self, tmp_path, capsys, cmd):
        path = small_config(tmp_path, t_end=0.0100000001,
                            snapshot_times=[0.01, 0.0100000001])
        assert dispatch([cmd, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "0.01" in err and "0.0100000001" in err
        assert list((tmp_path / "out").glob("*.csv")) == []

    @pytest.mark.parametrize("cmd, alpha", [
        ("simulate", 2.5), ("simulate", 3.0), ("rate-study", 3.0), ("certify", 3.0)])
    def test_flow_commands_run_at_large_alpha(self, tmp_path, cmd, alpha):
        path = small_config(tmp_path, params={"alpha": alpha}, eps_values=[1e-2, 3e-3, 1e-3])
        assert dispatch([cmd, "--config", str(path)]) == 0

    def test_rate_study_rejects_non_default_pme_coeff(self, tmp_path, capsys):
        # the flow's continuity diffusion is 1/alpha, so any other limit
        # coefficient would be measured against the wrong reference
        path = small_config(tmp_path, params={"pme_coeff": 0.5}, eps_values=[1e-2, 3e-3, 1e-3])
        assert dispatch(["rate-study", "--config", str(path)]) == 1
        assert "pme_coeff = 1/alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rate_study_rejects_odd_cell_count_before_marching(self, tmp_path, monkeypatch,
                                                                capsys):
        import hicomp.study

        def no_march(*args, **kwargs):
            raise AssertionError("marched before rejecting the config")

        monkeypatch.setattr(hicomp.study, "advance_limit", no_march)
        path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 129},
                            eps_values=[1e-1, 3e-2, 1e-2])
        assert dispatch(["rate-study", "--config", str(path)]) == 1
        assert "n_cells must be even, got 129" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"initial_datum": {"kind": "tent", "mass": 1e-300}},
        {"params": {"alpha": 6.0}},
        {"thresholds": {"floor": 0.5}},
        {"eps_values": [1e-300, 1e-310, 1e-320]},
    ], ids=["tiny-mass", "alpha-6", "floor-0.5", "tiny-eps"])
    def test_rate_study_whose_flow_equals_its_limit_is_validation_failure(
            self, tmp_path, capsys, overrides):
        # each march takes one step from rest, after which the flow equals
        # its limit bit for bit: every error is 0 and has no log-log slope
        path = small_config(tmp_path, **{"grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
                                         "eps_values": [1e-1, 1e-2, 1e-3],
                                         "snapshot_times": [0.01], **overrides})
        assert dispatch(["rate-study", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: every error at the last snapshot is 0: the flow equals "
                              "its limit there")
        assert "march longer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "certify"])
    def test_overflow_reports_one_runtime_failure_line(self, tmp_path, capsys, cmd):
        # rho**gamma overflows at this mass; the finiteness checks report it,
        # and numpy raises no floating-point warning on the way
        path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
                            snapshot_times=[0.01],
                            initial_datum={"kind": "tent", "mass": 1e200})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch([cmd, "--config", str(path)]) == 2
        assert [w.message for w in caught] == []
        err = capsys.readouterr().err
        assert err == "runtime failure: ValueError: field contains non-finite values\n"
        assert not (tmp_path / "out").exists()

    def test_certify_rejects_grid_too_coarse_for_its_velocity_before_marching(
            self, tmp_path, monkeypatch, capsys):
        # the tent covers under 4 cells of a 16-cell grid, too few for the
        # saturating velocity profile; simulate runs the same config
        import hicomp.study

        path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 16})
        assert dispatch(["simulate", "--config", str(path)]) == 0

        def no_march(*args, **kwargs):
            raise AssertionError("marched before rejecting the config")

        monkeypatch.setattr(hicomp.study, "run_paired_paths", no_march)
        out = tmp_path / "certify-out"
        assert dispatch(["certify", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: density support too small") and "n_cells=16" in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["simulate", "pme", "support-study", "certify"])
    def test_overflowing_datum_is_runtime_failure(self, tmp_path, capsys, cmd):
        # rho**alpha and rho**gamma overflow at the spike; certify meets the
        # overflow in its start velocity, the others in their first step
        from hicomp.grid import Field, Grid, write_field_csv

        values = np.zeros(64)
        values[30:33] = [1.0, 1e250, 1.0]
        write_field_csv(Field(Grid(-8.0, 8.0, 64), values), tmp_path / "spike.csv")
        path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
                            params={"alpha": 1.5},
                            initial_datum={"kind": "from_csv",
                                           "path": str(tmp_path / "spike.csv")})
        with np.errstate(over="ignore", invalid="ignore"):
            assert dispatch([cmd, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and "non-finite" in err
        assert "finer grid" not in err

    def test_certify_rejects_repeated_eps_before_marching(self, tmp_path, monkeypatch, capsys):
        import hicomp.study

        def no_march(*args, **kwargs):
            raise AssertionError("marched before rejecting the config")

        monkeypatch.setattr(hicomp.study, "run_paired_paths", no_march)
        path = small_config(tmp_path, eps_values=[1e-2, 1e-3, 1e-2])
        assert dispatch(["certify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eps_values" in err and "distinct" in err
        assert not (tmp_path / "out").exists()

    def test_pme_marches_to_t_end_after_last_snapshot(self, tmp_path, capsys):
        path = small_config(tmp_path, t_end=0.02, snapshot_times=[0.005])
        assert dispatch(["pme", "--config", str(path), "--verbose"]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["pme_t0.005.csv", "pme_t0.02.csv"]
        assert (out / "pme_t0.02.csv").read_text().startswith("# t=0.02\n")
        assert "reached t=0.02" in capsys.readouterr().out

    def test_simulate_evaluates_velocities_once_per_step(self, tmp_path, monkeypatch):
        import hicomp.cns

        calls = []
        original = hicomp.cns._velocity
        monkeypatch.setattr(hicomp.cns, "_velocity",
                            lambda *a: calls.append(1) or original(*a))
        path = small_config(tmp_path)
        assert dispatch(["simulate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        steps = len(np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=3, ndmin=2))
        assert len(list(out.glob("cns_t*.csv"))) == 2
        # the initial state's CFL step, then one per accepted step; the
        # per-step diagnostics and the snapshot writer read the row's v and u
        assert len(calls) == steps + 1

    def test_simulate_writes_snapshots_and_diagnostics(self, tmp_path):
        path = small_config(tmp_path)
        assert dispatch(["simulate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "cns_t0.005.csv").exists()
        assert (out / "cns_t0.01.csv").exists()
        diag = (out / "diagnostics.csv").read_text()
        assert diag.splitlines()[0].startswith("# config_hash=")

    def test_simulate_deterministic_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = small_config(tmp_path / "a")
        p2 = small_config(tmp_path / "b")
        assert dispatch(["simulate", "--config", str(p1)]) == 0
        assert dispatch(["simulate", "--config", str(p2)]) == 0
        f1 = (tmp_path / "a" / "out" / "cns_t0.01.csv").read_bytes()
        f2 = (tmp_path / "b" / "out" / "cns_t0.01.csv").read_bytes()
        assert f1 == f2

    def test_pme_writes_snapshots(self, tmp_path):
        path = small_config(tmp_path)
        assert dispatch(["pme", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "pme_t0.01.csv").exists()

    def test_rate_study_outputs(self, tmp_path):
        path = small_config(
            tmp_path,
            grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 128},
            eps_values=[1e-1, 3e-2, 1e-2],
            t_end=0.05,
            snapshot_times=[0.05],
        )
        assert dispatch(["rate-study", "--config", str(path)]) == 0
        out = tmp_path / "out"
        doc = json.loads((out / "rate_study.json").read_text())
        assert "slope_h1" in doc and "config_hash" in doc
        for name in ("errors_h1", "errors_l2", "mass_outside"):
            assert (out / f"{name}.csv").exists()

    @pytest.mark.filterwarnings("ignore:grid convergence ratio")
    def test_rate_study_without_leaked_mass_has_no_mass_rate(self, tmp_path):
        # at n = 64 and t = 0.03 no default eps flow has leaked mass past the
        # limit's interface: the mass fit and its grid ratio are NaN, as the
        # support fit is when it has nothing to fit, and the norm fits stand
        path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
                            eps_values=[1e-1, 3e-2, 1e-2, 3e-3, 1e-3], t_end=0.03,
                            snapshot_times=[0.03])
        assert dispatch(["rate-study", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "rate_study.json").read_text())
        assert doc["mass_outside"][-1] == [0.0] * 5
        for key in ("slope_mass", "r2_mass", "mass_convergence_ratio"):
            assert math.isnan(doc[key])
        assert math.isfinite(doc["slope_h1"]) and math.isfinite(doc["slope_l2"])

    def test_certify_outputs(self, tmp_path):
        path = small_config(tmp_path, eps_values=[1e-2, 1e-3], t_end=0.02,
                            snapshot_times=[0.02])
        assert dispatch(["certify", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
        assert len(doc["certificates"]) == 8
        for cert in doc["certificates"]:
            assert abs(cert["lhs"]) <= cert["bound"]

    def test_certify_verbose_reports_each_eps(self, tmp_path, capsys):
        import re

        path = small_config(tmp_path, eps_values=[1e-2, 1e-3], t_end=0.02,
                            snapshot_times=[0.02])
        assert dispatch(["certify", "--config", str(path)]) == 0
        quiet = (tmp_path / "out" / "certificates.json").read_bytes()
        capsys.readouterr()
        assert dispatch(["certify", "--config", str(path), "--verbose"]) == 0
        assert (tmp_path / "out" / "certificates.json").read_bytes() == quiet
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for eps, line in zip(("0.01", "0.001"), lines):
            m = re.fullmatch(rf"certify: eps={eps} steps=(\d+) path_mb=([\d.]+) "
                             r"forward_s=([\d.]+) backward_s=([\d.]+)", line)
            assert m, line
            steps, path_mb = int(m[1]), float(m[2])
            # three stored paths of (steps + 1) rows of 128 float64 cells
            assert path_mb == pytest.approx(3 * (steps + 1) * 128 * 8 / 1e6, abs=0.05)

    @pytest.mark.parametrize("cmd, line", [
        ("simulate", r"simulate: reached t=0\.01, eps=0\.01\n"),
        ("pme", r"pme: reached t=0\.01\n"),
        ("support-study", r"support-study: growth=0\.\d{4} decay=-0\.\d{4}\n"),
        ("rate-study", r"rate-study: slope_h1=\d\.\d{3} slope_l2=\d\.\d{3} "
                       r"slope_mass=\d\.\d{3} grid_ratio=0\.\d+\n"),
        ("certify", r"(?:certify: eps=0\.01 lhs=[-+]\S+ bound=\S+ C=\S+\n){4}"),
        ("validate", r"(?:[a-z1-]+ +pass  .+\n){9}"),
    ])
    def test_verbose_reports_steps_and_stepped_fraction(self, tmp_path, capsys, cmd, line):
        import re

        if cmd == "support-study":
            path = small_config(tmp_path, params={"alpha": 2.0}, t_end=4.0, snapshot_times=[],
                                initial_datum={"kind": "barenblatt", "mass": 1.0, "t0": 0.5})
        elif cmd == "rate-study":
            # a small config whose grid gate passes, so the quiet run prints nothing
            path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 256},
                                eps_values=[1.0, 0.3, 0.1], t_end=0.2, snapshot_times=[0.2])
        else:
            path = small_config(tmp_path)
        out = tmp_path / "out"
        assert dispatch([cmd, "--config", str(path)]) == 0
        # validate writes nothing, so it leaves no output directory to list
        quiet = {p.name: p.read_bytes() for p in out.glob("*")}
        quiet_out = capsys.readouterr().out
        assert dispatch([cmd, "--config", str(path), "--verbose"]) == 0
        assert {p.name: p.read_bytes() for p in out.glob("*")} == quiet
        m = re.fullmatch(rf"({line}){re.escape(cmd)}: steps=(\d+) stepped=(0\.\d{{3}})\n",
                         capsys.readouterr().out)
        assert m
        # validate prints its table either way; every other command is silent
        assert quiet_out == (m[1] if cmd == "validate" else "")
        # the tent, Barenblatt and validation data cover a small part of the grid
        assert int(m[2]) > 0 and 0.0 < float(m[3]) < 0.6

    # the steps=N stepped=F lines these configs printed before the eps stack
    # marched under grid.march_rows; rate-study's eps = 1000 lane steps on
    # alone after the other lanes have stopped
    @pytest.mark.parametrize("cmd, overrides, line", [
        ("simulate", {}, "simulate: steps=4 stepped=0.195"),
        ("certify", {"eps_values": [1e-2, 1e-3]}, "certify: steps=8 stepped=0.180"),
        ("rate-study", {"eps_values": [1000.0, 1.0, 0.1], "t_end": 0.03,
                        "snapshot_times": [0.005, 0.01, 0.02]},
         "rate-study: steps=60 stepped=0.264"),
    ])
    @pytest.mark.filterwarnings("ignore:grid convergence ratio")
    def test_verbose_step_counts_are_pinned(self, tmp_path, capsys, cmd, overrides, line):
        path = small_config(tmp_path, **overrides)
        assert dispatch([cmd, "--config", str(path), "--verbose"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    @pytest.mark.filterwarnings("ignore:grid convergence ratio")
    def test_rate_study_marches_to_the_last_snapshot(self, tmp_path, capsys):
        import re

        def run(t_end):
            out = tmp_path / f"out_{t_end}"
            path = small_config(tmp_path, grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 256},
                                eps_values=[1.0, 0.3, 0.1], t_end=t_end,
                                snapshot_times=[0.05, 0.1], output_dir=str(out))
            assert dispatch(["rate-study", "--config", str(path), "--verbose"]) == 0
            doc = json.loads((out / "rate_study.json").read_text())
            del doc["config_hash"]
            return doc, re.search(r" steps=(\d+) ", capsys.readouterr().out)[1]

        # nothing after the last snapshot is read, so a later t_end changes nothing
        doc, steps = run(0.1)
        assert run(0.2) == (doc, steps)
        # the step count of the per-eps marches: each eps row's step counts once
        assert steps == "516"

    def test_certify_hashes_the_config_once(self, tmp_path, monkeypatch):
        import hicomp.cli
        import hicomp.study

        calls = []
        original = hicomp.study.config_hash
        counted = lambda *a: calls.append(1) or original(*a)  # noqa: E731
        monkeypatch.setattr(hicomp.study, "config_hash", counted)
        monkeypatch.setattr(hicomp.cli, "config_hash", counted)
        path = small_config(tmp_path, eps_values=[1e-2, 1e-3], t_end=0.02,
                            snapshot_times=[0.02])
        assert dispatch(["certify", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
        assert len(calls) == 1
        assert {e["config_hash"] for e in doc["certificates"]} == {doc["config_hash"]}

    def test_certify_without_eps_names_the_key(self, tmp_path, capsys):
        path = small_config(tmp_path, eps_values=[])
        assert dispatch(["certify", "--config", str(path)]) == 1
        assert "eps_values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_support_study_outputs(self, tmp_path):
        path = small_config(
            tmp_path,
            grid={"x_min": -8.0, "x_max": 8.0, "n_cells": 256},
            params={"alpha": 2.0},
            t_end=4.0,
            snapshot_times=[],
            initial_datum={"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        )
        assert dispatch(["support-study", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "support_study.json").read_text())
        assert abs(doc["support_growth_exponent"] - 1.0 / 3.0) < 0.08

    def test_support_study_near_alpha_one(self, tmp_path):
        # the Barenblatt inversion at alpha = 1.02 overflowed on C = 1e8
        path = small_config(
            tmp_path,
            grid={"x_min": -20.0, "x_max": 20.0, "n_cells": 256},
            params={"alpha": 1.02},
            t_end=4.0,
            snapshot_times=[],
            initial_datum={"kind": "barenblatt", "mass": 1.0, "t0": 0.5},
        )
        assert dispatch(["support-study", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "support_study.json").read_text())
        assert abs(doc["support_growth_exponent"] - 1.0 / 2.02) < 0.02

    def test_uninvertible_barenblatt_is_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, params={"alpha": 2.0}, t_end=1.0, snapshot_times=[],
                            initial_datum={"kind": "barenblatt", "mass": 1e30, "t0": 0.5})
        assert dispatch(["support-study", "--config", str(path)]) == 1
        assert "alpha=2.0, mass=1e+30" in capsys.readouterr().err

    def test_validate_passes_on_defaults(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert dispatch(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "FAIL" not in out

    def test_output_flag_overrides_dir(self, tmp_path):
        path = small_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert dispatch(["simulate", "--config", str(path),
                         "--output", str(override)]) == 0
        assert (override / "diagnostics.csv").exists()

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["simulate", "--bogus"]) == 64

    def test_jobs_accepts_only_one_and_env_is_ignored(self, tmp_path, monkeypatch):
        path = small_config(tmp_path)
        assert dispatch(["pme", "--config", str(path), "--jobs", "1"]) == 0
        assert dispatch(["pme", "--config", str(path), "--jobs", "2"]) == 64
        monkeypatch.setenv("HICOMP_JOBS", "abc")
        assert dispatch(["pme", "--config", str(path)]) == 0


def head_lines(path):
    """The comment lines and the column header line of a CSV output."""
    lines = path.read_text().splitlines()
    n_comments = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:n_comments + 1]


class TestCsvHeaderLines:
    """The payload digests skip `#` lines, so the comment and column header
    lines of every CSV kind are pinned here, byte for byte."""

    HASH = "# config_hash=0e8619b6ca4edd1f"
    EPS = [1e-2, 3e-3, 1e-3]

    def test_field_csv(self, tmp_path):
        from hicomp.grid import Field, Grid, write_field_csv

        path = tmp_path / "field.csv"
        write_field_csv(Field(Grid(-3.3, 7.1, 777), np.ones(777)), path,
                        header_comments=("config_hash=deadbeef", "note two"))
        assert head_lines(path) == [
            "# config_hash=deadbeef",
            "# note two",
            "# grid: x_min=-3.2999999999999998 x_max=7.0999999999999996 n_cells=777",
            "x,value",
        ]

    def test_simulate_and_pme_snapshots_and_diagnostics(self, tmp_path):
        path = small_config(tmp_path, eps_values=self.EPS)
        assert dispatch(["simulate", "--config", str(path)]) == 0
        assert dispatch(["pme", "--config", str(path)]) == 0
        out = tmp_path / "out"
        params = "# alpha=1.25 gamma=2 epsilon=0.01 pme_coeff=0.80000000000000004"
        assert head_lines(out / "cns_t0.005.csv") == [
            "# t=0.0050000000000000001", params, self.HASH, "x,rho,v,u"]
        assert head_lines(out / "cns_t0.01.csv") == [
            "# t=0.01", params, self.HASH, "x,rho,v,u"]
        assert head_lines(out / "diagnostics.csv") == [
            self.HASH, "# epsilon=0.01",
            "t,dt,mass,energy,bd_entropy,sqrt_rho_v_l2,max_rho"]
        assert head_lines(out / "pme_t0.005.csv") == [
            "# t=0.0050000000000000001", self.HASH, "x,rho,pressure"]
        assert head_lines(out / "pme_t0.01.csv") == ["# t=0.01", self.HASH, "x,rho,pressure"]

    def test_rate_study_error_tables(self, tmp_path):
        path = small_config(tmp_path, eps_values=self.EPS)
        assert dispatch(["rate-study", "--config", str(path)]) == 0
        for name in ("errors_h1", "errors_l2", "mass_outside"):
            assert head_lines(tmp_path / "out" / f"{name}.csv") == [
                self.HASH, "t,eps=0.01,eps=0.0030000000000000001,eps=0.001"]
