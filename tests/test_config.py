import json

import numpy as np
import pytest

from hicomp.config import (
    BarenblattDatum,
    ConfigError,
    CsvDatum,
    TentDatum,
    build_initial_datum,
    config_hash,
    load_config,
    parse_config,
)
from hicomp.grid import Field, Grid, integrate, write_field_csv


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config("{}")
        assert cfg.grid == Grid(-8.0, 8.0, 2048)
        assert cfg.alpha == 1.25
        assert cfg.gamma == 2.0
        assert cfg.pme_coeff is None
        assert cfg.eps_values == (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        assert cfg.t_end == 0.5
        assert cfg.initial_datum == TentDatum(mass=1.0)
        assert cfg.support_threshold == 1e-6
        assert cfg.floor_frac == 1e-10
        assert cfg.seed == 0

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            parse_config(json.dumps({"params": {"alpha": 0.9}}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'alpha_'"):
            parse_config(json.dumps({"params": {"alpha_": 1.5}}))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(json.dumps({"grids": {}}))

    def test_parse_error_reports_position(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("{not json}")

    def test_snapshot_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match="snapshot_times"):
            parse_config(json.dumps({"t_end": 0.5, "snapshot_times": [0.6]}))

    def test_unsorted_snapshots_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            parse_config(json.dumps({"snapshot_times": [0.2, 0.1]}))

    @pytest.mark.parametrize("doc,key", [
        ({"grid": {"n_cells": 2048.7}}, "n_cells"),
        ({"grid": {"n_cells": 2048.0}}, "n_cells"),
        ({"grid": {"n_cells": True}}, "n_cells"),
        ({"grid": {"n_cells": "64"}}, "n_cells"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
    ])
    def test_non_integer_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("doc,key", [
        ({"grid": {"x_min": True}}, "grid.x_min"),
        ({"grid": {"x_max": "8"}}, "grid.x_max"),
        ({"params": {"alpha": True}}, "params.alpha"),
        ({"params": {"gamma": "2"}}, "params.gamma"),
        ({"params": {"pme_coeff": False}}, "params.pme_coeff"),
        ({"eps_values": [0.1, True]}, "eps_values"),
        ({"t_end": True}, "t_end"),
        ({"t_end": "0.5"}, "t_end"),
        ({"snapshot_times": ["0.25"]}, "snapshot_times"),
        ({"thresholds": {"support": True}}, "thresholds.support"),
        ({"thresholds": {"floor": "1e-10"}}, "thresholds.floor"),
        ({"initial_datum": {"kind": "tent", "mass": True}}, "initial_datum.mass"),
        ({"initial_datum": {"kind": "barenblatt", "t0": "0.5"}}, "initial_datum.t0"),
    ])
    def test_non_number_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
        pytest.param(10 ** 400, id="int_above_float_max"),
        pytest.param(-10 ** 400, id="int_below_float_min"),
    ])
    @pytest.mark.parametrize("key", [
        "grid.x_min", "grid.x_max", "params.alpha", "params.gamma", "params.pme_coeff",
        "eps_values", "t_end", "snapshot_times", "initial_datum.mass", "initial_datum.t0",
        "thresholds.support", "thresholds.floor",
    ])
    def test_non_finite_number_rejected(self, key, value):
        section, _, name = key.partition(".")
        if section == "t_end":
            doc = {section: value}
        elif section in ("eps_values", "snapshot_times"):
            doc = {section: [value]}
        elif section == "initial_datum":
            doc = {section: {"kind": "barenblatt", name: value}}
        else:
            doc = {section: {name: value}}
        # json.dumps writes NaN, Infinity and integers beyond the float range,
        # which the JSON reader accepts
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(json.dumps(doc))

    def test_integer_valued_floats_keep_their_hash(self):
        ints = parse_config(json.dumps({"grid": {"x_min": -8, "x_max": 8}, "t_end": 1,
                                        "snapshot_times": [1]}))
        floats = parse_config(json.dumps({"grid": {"x_min": -8.0, "x_max": 8.0},
                                          "t_end": 1.0, "snapshot_times": [1.0]}))
        assert config_hash(ints) == config_hash(floats)

    def test_duplicate_snapshots_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(json.dumps({"snapshot_times": [0.25, 0.25]}))

    @pytest.mark.parametrize("doc", [
        {"params": {"alpha": 0.9}},      # PhysParams validator
        {"grid": {"x_min": 1.0, "x_max": 0.0}},  # Grid validator
        {"t_end": None},                 # wrong JSON type
        {"eps_values": 5},
        {"t_end": True},                 # booleans are not numbers
        {"t_end": "0.5"},                # nor are numeric strings
        {"t_end": 10**400},              # beyond the float range
    ])
    def test_every_rejection_is_config_error(self, doc):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_datum_variants(self):
        cfg = parse_config(json.dumps(
            {"initial_datum": {"kind": "barenblatt", "mass": 2.0, "t0": 0.25}}))
        assert cfg.initial_datum == BarenblattDatum(mass=2.0, t0=0.25)
        cfg = parse_config(json.dumps(
            {"initial_datum": {"kind": "from_csv", "path": "x.csv"}}))
        assert cfg.initial_datum == CsvDatum(path="x.csv")

    def test_unknown_datum_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_config(json.dumps({"initial_datum": {"kind": "gauss"}}))

    def test_params_accessor_validates_epsilon(self):
        cfg = parse_config("{}")
        p = cfg.params(1e-3)
        assert p.epsilon == 1e-3
        assert p.pme_coeff == pytest.approx(1.0 / 1.25)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(ValueError, match="missing.json"):
            load_config(missing)

    def test_directory_is_a_config_error_naming_the_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file") as err:
            load_config(tmp_path)
        assert str(tmp_path) in str(err.value)

    def test_non_utf8_file_is_a_config_error_naming_the_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"t_end": 0.1, "caf\u00e9": 1}'.encode("latin-1"))
        with pytest.raises(ConfigError, match="latin1.json"):
            load_config(path)


class TestConfigHash:
    def test_deterministic(self):
        a = parse_config("{}")
        b = parse_config("{}")
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = parse_config("{}")
        b = parse_config(json.dumps({"t_end": 0.25, "snapshot_times": [0.25]}))
        assert config_hash(a) != config_hash(b)


class TestBuildInitialDatum:
    def test_tent_mass(self):
        cfg = parse_config(json.dumps({"grid": {"n_cells": 512},
                                       "initial_datum": {"kind": "tent", "mass": 2.0}}))
        rho0 = build_initial_datum(cfg)
        assert integrate(rho0) == pytest.approx(2.0, abs=1e-3)

    def test_barenblatt_mass(self):
        cfg = parse_config(json.dumps({
            "grid": {"n_cells": 512}, "params": {"alpha": 2.0},
            "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5}}))
        rho0 = build_initial_datum(cfg)
        assert integrate(rho0) == pytest.approx(1.0, abs=1e-4)

    def test_csv_round_trip(self, tmp_path):
        cfg = parse_config(json.dumps({"grid": {"n_cells": 64}}))
        grid = cfg.grid
        from hicomp.grid import Field
        f = Field(grid, np.maximum(1.0 - np.abs(grid.centers), 0.0))
        path = tmp_path / "rho0.csv"
        write_field_csv(f, path)
        cfg2 = parse_config(json.dumps({
            "grid": {"n_cells": 64},
            "initial_datum": {"kind": "from_csv", "path": str(path)}}))
        back = build_initial_datum(cfg2)
        assert np.array_equal(back.values, f.values)

    def test_csv_datum_on_inexact_grid_accepted(self, tmp_path):
        # x_max = 7.1 is not recovered as x[-1] + dx/2 from the cell centers
        grid = Grid(-3.3, 7.1, 777)
        f = Field(grid, np.maximum(1.0 - np.abs(grid.centers - 2.0), 0.0))
        path = tmp_path / "rho0.csv"
        write_field_csv(f, path)
        cfg = parse_config(json.dumps({
            "grid": {"x_min": -3.3, "x_max": 7.1, "n_cells": 777},
            "initial_datum": {"kind": "from_csv", "path": str(path)}}))
        assert np.array_equal(build_initial_datum(cfg).values, f.values)

    def test_csv_missing_file_is_config_error(self, tmp_path):
        cfg = parse_config(json.dumps({
            "initial_datum": {"kind": "from_csv", "path": str(tmp_path / "none.csv")}}))
        with pytest.raises(ConfigError, match="none.csv"):
            build_initial_datum(cfg)

    def test_csv_grid_mismatch_rejected(self, tmp_path):
        from hicomp.grid import Field
        grid = Grid(-4.0, 4.0, 64)
        f = Field(grid, np.ones(64))
        path = tmp_path / "rho0.csv"
        write_field_csv(f, path)
        cfg = parse_config(json.dumps({
            "grid": {"n_cells": 64},
            "initial_datum": {"kind": "from_csv", "path": str(path)}}))
        with pytest.raises(ValueError, match="grid"):
            build_initial_datum(cfg)
