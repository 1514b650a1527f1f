"""Layer benchmark: one backward step of the duality certificate.

Each benchmark runs `dual_certificate` over STEPS backward steps of the
paths `run_paired_paths` returns, the input `certify` passes, so the
per-step cost is the reported time divided by STEPS (`extra_info["steps"]`)
and includes rebuilding each step's rows from the stored windows.  It runs
at n = 512 and 2048 with one test and with the four (theta, clamp) tests of
the certificate sweep.

    PYTHONPATH=src python -m pytest benchmarks/bench_dual.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

import pytest

from hicomp.analysis import default_clamp_bounds, dual_certificate
from hicomp.config import tent_field
from hicomp.grid import Grid
from hicomp.params import PhysParams
from hicomp.study import bump_test_function, run_paired_paths, saturating_velocity

STEPS = 64
PARAMS = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)


@pytest.fixture(scope="module", params=[512, 2048], ids=lambda n: f"n={n}")
def paths(request):
    grid = Grid(-8.0, 8.0, request.param)
    rho0 = tent_field(grid, 1.0)
    # the diffusive step is 0.4 * dx^2 * alpha / 2 at unit peak density, so
    # this t_end gives at least STEPS steps
    t_end = 1.5 * STEPS * 0.2 * PARAMS.alpha * grid.dx ** 2
    times, pe, pt, pm, floor = run_paired_paths(
        rho0, PARAMS, t_end, v0=saturating_velocity(rho0, PARAMS))
    assert times.size > STEPS
    # the first STEPS steps, in the stored form run_paired_paths returns
    k = STEPS + 1
    eta, cap = default_clamp_bounds(1.0, PARAMS)
    tests = [(bump_test_function(grid, center, width), e, c)
             for center, width in ((0.0, 2.0), (1.0, 1.0))
             for e, c in ((eta, cap), (eta / 10.0, cap * 10.0))]
    return times[:k], pe[:k], pt[:k], pm[:k], floor, tests


@pytest.mark.parametrize("n_tests", [1, 4], ids=lambda t: f"tests={t}")
def test_backward_step(benchmark, paths, n_tests):
    times, pe, pt, pm, floor, tests = paths
    tests = tests[:n_tests]

    def backward():
        return dual_certificate(times, pe, pt, pm, tests, PARAMS, rho_floor=floor)

    benchmark.extra_info["steps"] = STEPS
    certs = benchmark(backward)
    assert len(certs) == n_tests
