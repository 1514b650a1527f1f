"""Layer benchmarks: the explicit steps and Field construction.

Each stepping benchmark marches STEPS steps from the tent datum on
Grid(-8, 8, n), so the per-step cost is the reported time divided by STEPS
(`extra_info["steps"]`):

- `test_cns_step`: `cfl_dt` plus `cns_step` of the flow at eps = 1e-2
- `test_pme_step`: `cfl_dt` plus `pme_step` of the limit equation
- `test_field`: STEPS `Field` constructions (the API-boundary validation)

each at n = 512 and 2048.

    PYTHONPATH=src python -m pytest benchmarks/bench_step.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

from dataclasses import replace

import pytest

from hicomp.cns import cfl_dt, cns_step, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid
from hicomp.params import PhysParams
from hicomp.pme import PmeState, pme_step

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


def test_pme_step(benchmark, rho0):
    state = PmeState(t=0.0, rho=rho0)
    benchmark.extra_info["steps"] = STEPS
    end = benchmark(march, state, lambda s: pme_step(s, PARAMS, s.cfl_dt(PARAMS)))
    assert end.t > 0.0


def test_field(benchmark, rho0):
    def build():
        for _ in range(STEPS):
            field = Field(rho0.grid, rho0.values)
        return field

    benchmark.extra_info["steps"] = STEPS
    assert benchmark(build).values is rho0.values
