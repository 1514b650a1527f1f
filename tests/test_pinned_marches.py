"""Pinned march internals that the output digests of test_pinned_outputs.py
do not see: the mass each solver adds back when it floors or clips a step,
and the step at which `march` stops a support that reaches the outer
margin.  Values are compared with `==`.
"""

import json

import pytest
from test_pinned_outputs import BASE, PIPELINES

from hicomp.cns import well_prepared_init
from hicomp.config import build_initial_datum, parse_config, tent_field
from hicomp.grid import Grid
from hicomp.params import PhysParams
from hicomp.pme import PmeState
from hicomp.study import saturating_velocity
from reference import advance, march


def pinned_config(command):
    return parse_config(json.dumps({**BASE, **PIPELINES[command]}))


def test_simulate_end_floored_mass():
    config = pinned_config("simulate")
    params = config.params(config.eps_values[0])
    state = well_prepared_init(build_initial_datum(config), config.floor_frac)
    (state,), _ = advance((state,), params, config.t_end, config.snapshot_times)
    assert state.t == config.t_end
    assert state.floored_mass == 0.0


def test_pme_end_clipped_mass():
    config = pinned_config("pme")
    times = sorted({*config.snapshot_times, config.t_end})
    (state,), _ = advance((PmeState(t=0.0, rho=build_initial_datum(config)),),
                          config.params(0.0), config.t_end, times)
    assert state.t == config.t_end
    assert state.clipped_mass == 0.0


def test_certify_paired_end_masses():
    # the forward march of run_paired_paths, whose states it does not return
    config = pinned_config("certify")
    params = config.params(config.eps_values[0])
    rho0 = build_initial_datum(config)
    floor = config.floor_frac * float(rho0.values.max())
    flow = well_prepared_init(rho0, config.floor_frac,
                              saturating_velocity(rho0, params, floor=floor))
    (flow, limit), _ = advance((flow, PmeState(t=0.0, rho=flow.rho)), params,
                               config.t_end)
    assert flow.t == limit.t == config.t_end
    assert flow.floored_mass == 0.0
    assert limit.clipped_mass == 0.0


@pytest.mark.parametrize("kind, steps", [("pme", 794), ("cns", 455)])
def test_steps_accepted_before_margin_error(kind, steps):
    grid = Grid(-8.0, 8.0, 128)
    params = PhysParams(alpha=1.25, epsilon=1e-2)
    rho0 = tent_field(grid, 1.0)
    state = PmeState(t=0.0, rho=rho0) if kind == "pme" else well_prepared_init(rho0)
    accepted = []
    with pytest.raises(RuntimeError, match="10% margin"):
        for _, dt in march((state,), params, 1e4):
            accepted.append(dt)
    assert len(accepted) == steps
