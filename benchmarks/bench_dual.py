"""Layer benchmark: one backward step of the duality certificate.

Each benchmark runs `dual_certificate` over STEPS backward steps of the
path `run_paired_paths` returns, the input `certify` passes, so the
per-step cost is the reported time divided by STEPS (`extra_info["steps"]`).
The pass computes the path quantities a block of 16 steps at a time, and
STEPS = 64 is four full blocks, so the per-step cost includes a fair share
of that block work, reading the stored windows included.  It runs at
n = 512 and 2048 with three sets of tests:

- `tests=1`: one bump at the default clamp window.
- `tests=4`: the four (theta, clamp) tests of the certificate sweep, two
  bumps times the default window and one ten times wider.  Neither window
  binds on these paths, so the two tests of each bump share one dual row:
  two rows are marched.
- `tests=4-binding`: the same bumps with the window (5 eta, cap / 200),
  which binds on the support at every step, and the wide window.  No two
  tests act alike, so four rows are marched: the pass without sharing.

    PYTHONPATH=src python -m pytest benchmarks/bench_dual.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

import pytest

from hicomp.analysis import default_clamp_bounds, dual_certificate
from hicomp.config import tent_field
from hicomp.grid import Grid
from hicomp.params import PhysParams
from hicomp.study import PairedPath, bump_test_function, run_paired_paths, saturating_velocity

STEPS = 64
PARAMS = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
ETA, CAP = default_clamp_bounds(1.0, PARAMS)
WIDE = (ETA / 10.0, CAP * 10.0)
CASES = {"tests=1": ((ETA, CAP),), "tests=4": ((ETA, CAP), WIDE),
         "tests=4-binding": ((ETA * 5.0, CAP / 200.0), WIDE)}


@pytest.fixture(scope="module", params=[512, 2048], ids=lambda n: f"n={n}")
def paths(request):
    grid = Grid(-8.0, 8.0, request.param)
    rho0 = tent_field(grid, 1.0)
    # the diffusive step is 0.4 * dx^2 * alpha / 2 at unit peak density, so
    # this t_end gives at least STEPS steps
    t_end = 1.5 * STEPS * 0.2 * PARAMS.alpha * grid.dx ** 2
    times, path = run_paired_paths(rho0, PARAMS, t_end, v0=saturating_velocity(rho0, PARAMS))
    assert times.size > STEPS
    # the first STEPS steps, in the stored form run_paired_paths returns
    k = STEPS + 1
    head = PairedPath(path.n_cells, path.floor, path.steps[:k])
    thetas = [bump_test_function(grid, center, width)
              for center, width in ((0.0, 2.0), (1.0, 1.0))]
    return times[:k], head, thetas


@pytest.mark.parametrize("case", list(CASES))
def test_backward_step(benchmark, paths, case):
    times, path, thetas = paths
    tests = [(theta, eta, cap) for theta in thetas for eta, cap in CASES[case]]
    if case == "tests=1":
        tests = tests[:1]

    def backward():
        return dual_certificate(times, path, tests, PARAMS)

    benchmark.extra_info["steps"] = STEPS
    certs = benchmark(backward)
    assert len(certs) == len(tests)
    # only the binding window has a coefficient term
    assert [cert.rhs_coeff_term != 0.0 for cert in certs] == [
        cert.eta == ETA * 5.0 for cert in certs]
