import json

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
        assert "rate-study" in capsys.readouterr().out

    def test_missing_config_names_path(self, capsys):
        code = dispatch(["rate-study", "--config", "missing.json"])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_invalid_config_value_is_validation_failure(self, tmp_path, capsys):
        path = small_config(tmp_path, params={"alpha": 0.5})
        assert dispatch(["simulate", "--config", str(path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_numerical_value_error_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        import hicomp.cns

        def blow_up(state, params, dt):
            raise ValueError("field contains non-finite values")

        monkeypatch.setattr(hicomp.cns, "cns_step", blow_up)
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

    def test_certify_outputs(self, tmp_path):
        path = small_config(tmp_path, eps_values=[1e-2, 1e-3], t_end=0.02,
                            snapshot_times=[0.02])
        assert dispatch(["certify", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "certificates.json").read_text())
        assert len(doc["certificates"]) == 8
        for cert in doc["certificates"]:
            assert abs(cert["lhs"]) <= cert["bound"]

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
