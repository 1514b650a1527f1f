"""perfbench's tracer tags two spans from the values of hicomp calls: the
bytes of `run_paired_paths`'s result and the steps of `dual_certificate`'s
backward march.  `perfbench/tracer.py` is loaded by path, as it stands, and
its taggers are applied to a real paired march, so a change to either
signature that the tracer cannot read fails here."""

import importlib.util
from pathlib import Path

from hicomp.analysis import default_clamp_bounds
from hicomp.config import tent_field
from hicomp.grid import Grid
from hicomp.params import PhysParams
from hicomp.study import bump_test_function, run_paired_paths

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_taggers_read_the_paired_march_and_its_certificate():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    grid = Grid(-8.0, 8.0, 128)
    params = PhysParams(alpha=1.25, gamma=2.0, epsilon=1e-2)
    args = (tent_field(grid, 1.0), params, 0.02)
    result = run_paired_paths(*args)
    path_bytes = tracer.TAGGERS["study.run_paired_paths"](args, {}, result)
    tests = [(bump_test_function(grid, 0.0, 2.0), *default_clamp_bounds(1.0, params))]
    steps = tracer.TAGGERS["analysis.dual_certificate"]((*result, tests, params), {}, None)
    assert type(path_bytes) is int and type(steps) is int
    times = result[0]
    assert steps == times.size - 1 == 7
    assert path_bytes == 3 * times.size * grid.n_cells * 8 == 24576
