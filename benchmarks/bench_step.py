"""Layer benchmarks: the explicit steps and Field construction.

Each stepping benchmark marches STEPS steps from the tent datum on
Grid(-8, 8, n), so the per-step cost is the reported time divided by STEPS
(`extra_info["steps"]`):

- `test_cns_step`: `cfl_dt` plus `cns_step` of the flow at eps = 1e-2
- `test_flow_march`: `grid.march_rows` on one `cns.FlowRow`, the in-place
  flow march, to the time `test_cns_step`'s STEPS steps reach;
  `extra_info["steps"]` counts its steps
- `test_pair_march`: `march_rows` on a `FlowRow` and a `pme.LimitRow`, as
  `certify`'s paired paths march, to the same time; `extra_info["steps"]`
  counts its paired steps, so its cost is per paired step
- `test_cns_stack`: `advance_stack` of the five default eps rows, about
  STEPS steps each; `extra_info["steps"]` counts the row steps, so its
  cost is per row step
- `test_pme_step`: `cfl_dt` plus `pme_step` of the limit equation
- `test_limit_march`: `march_rows` on one `LimitRow`, the in-place limit
  march, to the time `test_pme_step`'s STEPS steps reach;
  `extra_info["steps"]` counts its steps
- `test_field`: STEPS `Field` constructions (the API-boundary validation)

each at n = 512 and 2048.

    PYTHONPATH=src python -m pytest benchmarks/bench_step.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

from collections import deque
from dataclasses import replace

import pytest

from hicomp.cns import FlowRow, advance_stack, cfl_dt, cns_step, well_prepared_init
from hicomp.config import DEFAULT_CONFIG, tent_field
from hicomp.grid import Field, Grid, march_rows, step_log
from hicomp.params import PhysParams
from hicomp.pme import LimitRow, PmeState, pme_step

STEPS = 64
PARAMS = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)


@pytest.fixture(scope="module", params=[512, 2048], ids=lambda n: f"n={n}")
def rho0(request):
    return tent_field(Grid(-8.0, 8.0, request.param), 1.0)


def march(state, step):
    # a fresh copy per round, so no round reuses the CFL memo of another
    state = replace(state)
    for _ in range(STEPS):
        state = step(state)
    return state


def test_cns_step(benchmark, rho0):
    state = well_prepared_init(rho0)
    benchmark.extra_info["steps"] = STEPS
    end = benchmark(march, state, lambda s: cns_step(s, PARAMS, cfl_dt(s, PARAMS)))
    assert end.t > 0.0


def last_step(rows, t_end):
    """The last (t, dt) of march_rows on fresh rows, which copy their states,
    so no round reuses another's work."""
    return deque(march_rows(rows(), 0.0, t_end), maxlen=1).pop()


def test_flow_march(benchmark, rho0):
    state = well_prepared_init(rho0)
    t_end = march(state, lambda s: cns_step(s, PARAMS, cfl_dt(s, PARAMS))).t

    def rows():
        return (FlowRow(state, PARAMS),)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == t_end


def test_pair_march(benchmark, rho0):
    state = well_prepared_init(rho0)
    limit = PmeState(t=0.0, rho=state.rho)
    t_end = march(state, lambda s: cns_step(s, PARAMS, cfl_dt(s, PARAMS))).t

    def rows():
        return FlowRow(state, PARAMS), LimitRow(limit, PARAMS)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == t_end


def test_cns_stack(benchmark, rho0):
    state = well_prepared_init(rho0)
    rows = [replace(PARAMS, epsilon=eps) for eps in DEFAULT_CONFIG["eps_values"]]
    # to the time the eps = 1e-2 flow reaches in STEPS steps; a row whose own
    # CFL steps differ takes a few steps more or fewer, so the row steps are counted
    t_end = march(state, lambda s: cns_step(s, PARAMS, cfl_dt(s, PARAMS))).t
    with step_log() as log:
        advance_stack(state, rows, (t_end,))
    benchmark.extra_info["steps"] = log.steps
    snaps = benchmark(advance_stack, state, rows, (t_end,))
    assert all(snap.t == t_end for (snap,) in snaps)


def test_pme_step(benchmark, rho0):
    state = PmeState(t=0.0, rho=rho0)
    benchmark.extra_info["steps"] = STEPS
    end = benchmark(march, state, lambda s: pme_step(s, PARAMS, s.cfl_dt(PARAMS)))
    assert end.t > 0.0


def test_limit_march(benchmark, rho0):
    state = PmeState(t=0.0, rho=rho0)
    t_end = march(state, lambda s: pme_step(s, PARAMS, s.cfl_dt(PARAMS))).t

    def rows():
        return (LimitRow(state, PARAMS),)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == t_end


def test_field(benchmark, rho0):
    def build():
        for _ in range(STEPS):
            field = Field(rho0.grid, rho0.values)
        return field

    benchmark.extra_info["steps"] = STEPS
    assert benchmark(build).values is rho0.values
