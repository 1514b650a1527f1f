"""Layer benchmarks: the in-place marches and Field construction.

Each stepping benchmark marches from the tent datum on Grid(-8, 8, n) to
the time that STEPS steps of a fresh row reach, so the per-step cost is the
reported time divided by `extra_info["steps"]`, the steps it counts:

- `test_flow_march`: `grid.march_rows` on one `cns.FlowRow` of the flow at
  eps = 1e-2, the in-place flow march, STEPS steps
- `test_pair_march`: `march_rows` on a `FlowRow` and a `pme.LimitRow`, as
  `certify`'s paired paths march, to the flow's time; its paired steps are
  counted, so its cost is per paired step
- `test_cns_stack`: `march_rows` on a `cns.FlowStack` of the five default
  eps lanes to the flow's time, about STEPS steps each; the lane steps are
  counted, so its cost is per lane step
- `test_limit_march`: `march_rows` on one `LimitRow`, the in-place limit
  march, STEPS steps
- `test_field`: STEPS `Field` constructions (the API-boundary validation)

each at n = 512 and 2048.

    PYTHONPATH=src python -m pytest benchmarks/bench_step.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

import math
from collections import deque
from dataclasses import replace
from itertools import islice

import pytest

from hicomp.cns import FlowRow, FlowStack, well_prepared_init
from hicomp.config import DEFAULT_CONFIG, tent_field
from hicomp.grid import Field, Grid, march_rows, step_log
from hicomp.params import PhysParams
from hicomp.pme import LimitRow, PmeState

STEPS = 64
PARAMS = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)


@pytest.fixture(scope="module", params=[512, 2048], ids=lambda n: f"n={n}")
def rho0(request):
    return tent_field(Grid(-8.0, 8.0, request.param), 1.0)


def reach(row):
    """The time that STEPS steps of march_rows on the fresh row reach."""
    (t,), _ = deque(islice(march_rows((row,), 0.0, math.inf), STEPS), maxlen=1).pop()
    return t


def last_step(rows, t_end):
    """The last (ts, dts) of march_rows on fresh rows, which copy their
    states, so no round reuses another's work."""
    return deque(march_rows(rows(), 0.0, t_end), maxlen=1).pop()


def test_flow_march(benchmark, rho0):
    state = well_prepared_init(rho0)
    t_end = reach(FlowRow(state, PARAMS))

    def rows():
        return (FlowRow(state, PARAMS),)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == [t_end]


def test_pair_march(benchmark, rho0):
    state = well_prepared_init(rho0)
    limit = PmeState(t=0.0, rho=state.rho)
    t_end = reach(FlowRow(state, PARAMS))

    def rows():
        return FlowRow(state, PARAMS), LimitRow(limit, PARAMS)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == [t_end]


def test_cns_stack(benchmark, rho0):
    state = well_prepared_init(rho0)
    lanes = [replace(PARAMS, epsilon=eps) for eps in DEFAULT_CONFIG["eps_values"]]
    # to the time the eps = 1e-2 flow reaches in STEPS steps; a lane whose own
    # CFL steps differ takes a few steps more or fewer, so the lane steps are counted
    t_end = reach(FlowRow(state, PARAMS))

    def rows():
        return (FlowStack(state, lanes),)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    ts, _ = benchmark(last_step, rows, t_end)
    assert ts == [t_end] * len(lanes)


def test_limit_march(benchmark, rho0):
    state = PmeState(t=0.0, rho=rho0)
    t_end = reach(LimitRow(state, PARAMS))

    def rows():
        return (LimitRow(state, PARAMS),)

    with step_log() as log:
        last_step(rows, t_end)
    benchmark.extra_info["steps"] = log.steps
    assert benchmark(last_step, rows, t_end)[0] == [t_end]


def test_field(benchmark, rho0):
    def build():
        for _ in range(STEPS):
            field = Field(rho0.grid, rho0.values)
        return field

    benchmark.extra_info["steps"] = STEPS
    assert benchmark(build).values is rho0.values
