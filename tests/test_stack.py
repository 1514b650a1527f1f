"""`cns.FlowStack`, the stacked eps march, under `grid.march_rows` against
the per-eps reference `advance` of `tests/reference.py`.

The per-eps marches are the oracle: for every lane, every snapshot and the
state at t_end must be equal in time and floored mass (`==`) and in the
bytes of its density and momentum to those of
`advance((start,), params, t_end, snapshot_times)` for that lane's params.
The marches start at 0, 0.1 or 1/3, and the snapshot times repeat and fall
closer together than one step, so each lane's landing on its own clock is
checked.  A stack whose lanes fail raises the error of one of the failing
lanes; a stack whose lanes all pass raises nothing.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hicomp.cns import FlowStack, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid, march_rows, read_field_csv, step_log, write_field_csv
from hicomp.params import PhysParams
from reference import advance, cfl_dt

# eps = 1000 floors the tent's row at floor_frac 1e-3 and 3e-2 within tens of
# steps; the larger eps take more steps than the smaller ones
EPS_POOL = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0)


def start_state(n_cells, center, floor_frac, tmp_path, t0=0.0):
    """The prepared start at t0 of the tent (1 - |x - center|)_+: the config's
    tent at center 0, otherwise read back from a CSV file, as a `from_csv`
    datum."""
    grid = Grid(-8.0, 8.0, n_cells)
    if center == 0.0:
        rho0 = tent_field(grid, 1.0)
    else:
        path = tmp_path / f"tent_{n_cells}_{center!r}.csv"
        write_field_csv(Field(grid, np.maximum(1.0 - np.abs(grid.centers - center), 0.0)),
                        path)
        rho0 = read_field_csv(path)
    return replace(well_prepared_init(rho0, floor_frac), t=t0)


def assert_same_state(state, ref):
    # bytes, not values: a -0.0 where the reference holds +0.0 is a difference
    assert state.t == ref.t
    assert state.rho.values.tobytes() == ref.rho.values.tobytes()
    assert state.momentum_v.values.tobytes() == ref.momentum_v.values.tobytes()
    assert state.floored_mass == ref.floored_mass


def per_lane(start, lanes, t_end, times):
    """Each lane's snapshots and state at t_end from its own `advance`, or the
    error that stopped it."""
    out = []
    for params in lanes:
        try:
            (end,), snaps = advance((start,), params, t_end, times)
        except (RuntimeError, ValueError) as e:
            out.append(e)
        else:
            out.append(([s for (s,) in snaps], end))
    return out


def stacked(start, lanes, t_end, times):
    """Each lane's snapshots and state at t_end from one march of a
    FlowStack, kept as `study._rate_errors` keeps them."""
    stack = FlowStack(start, lanes)
    snaps = [[start] if start.t in times else [] for _ in lanes]
    ends = [start.t] * len(lanes)
    for ts, dts in march_rows((stack,), start.t, t_end, times):
        for k, (t, dt) in enumerate(zip(ts, dts)):
            if dt is not None:
                ends[k] = t
                if t in times:
                    snaps[k].append(stack.state(k, t))
    return [(lane, stack.state(k, t)) for k, (lane, t) in enumerate(zip(snaps, ends))]


@st.composite
def horizons(draw):
    """(t0, t_end, snapshot times as a function of the first step dt0): the
    start time, t_end, duplicates and times closer together than one step
    are among the snapshots."""
    t0 = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0]))
    t_end = t0 + draw(st.sampled_from([0.0, 2e-3, 1e-2, 3e-2]))
    inner = draw(st.lists(st.floats(t0, t_end), max_size=3))
    nudges = draw(st.lists(st.floats(0.0, 1.0), min_size=len(inner), max_size=len(inner)))
    picks = draw(st.lists(st.integers(0, 2 * len(inner) + 1), max_size=6))

    def times(dt0):
        close = [min(t + f * dt0, t_end) for t, f in zip(inner, nudges)]
        pool = [t0, t_end, *inner, *close]
        return tuple(pool[i] for i in picks)

    return t0, t_end, times


def fixed(t0, t_end, times):
    """A horizon with the given snapshot times."""
    return t0, t_end, lambda dt0: times


@settings(max_examples=80, deadline=None)
@given(n_cells=st.sampled_from([32, 48, 64]),
       center=st.sampled_from([0.0, -1.5, 0.3, 5.3]),
       floor_frac=st.sampled_from([1e-10, 1e-3, 3e-2]),
       eps=st.lists(st.sampled_from(EPS_POOL), min_size=1, max_size=5, unique=True),
       horizon=horizons())
@example(n_cells=64, center=0.0, floor_frac=1e-3, eps=[1000.0, 100.0, 1e-3],
         horizon=fixed(0.0, 3e-2, (0.0, 1e-2, 3e-2)))
@example(n_cells=48, center=-1.5, floor_frac=3e-2, eps=[1.0, 1000.0],
         horizon=fixed(0.0, 1e-2, (1e-2, 0.0)))
@example(n_cells=64, center=5.3, floor_frac=1e-10, eps=[1e-2, 10.0],
         horizon=fixed(0.0, 3e-2, (3e-2,)))
# the start span (22, 32) reaches the grid's edge, so every step takes the
# lanes' one-sided end stencils in full
@example(n_cells=32, center=5.3, floor_frac=1e-3, eps=[1000.0, 100.0, 1e-2],
         horizon=fixed(0.0, 3e-2, (1e-3, 3e-2)))
def test_stack_matches_per_eps_marches(tmp_path_factory, n_cells, center, floor_frac,
                                       eps, horizon):
    t0, t_end, make_times = horizon
    start = start_state(n_cells, center, floor_frac, tmp_path_factory.mktemp("csv"), t0)
    lanes = [PhysParams(alpha=1.25, gamma=2.0, epsilon=e) for e in eps]
    times = make_times(min(cfl_dt(start, params) for params in lanes))
    refs = per_lane(start, lanes, t_end, times)
    errors = [(type(r), str(r)) for r in refs if isinstance(r, Exception)]
    if errors:
        with pytest.raises((RuntimeError, ValueError)) as err:
            stacked(start, lanes, t_end, times)
        assert (type(err.value), str(err.value)) in errors
        return
    got = stacked(start, lanes, t_end, times)
    assert len(got) == len(lanes)
    for (snaps, end), (ref_snaps, ref_end) in zip(got, refs):
        assert len(snaps) == len(ref_snaps) == len(set(times))
        for snap, ref in zip(snaps, ref_snaps):
            assert_same_state(snap, ref)
        assert_same_state(end, ref_end)


def test_oracle_examples_cover_flooring_margin_and_step_counts(tmp_path):
    # the explicit examples above hold what the draws must cover
    start = start_state(64, 0.0, 1e-3, tmp_path)
    rows = [PhysParams(alpha=1.25, epsilon=e) for e in (1000.0, 100.0, 1e-3)]
    steps = []
    for params in rows:
        with step_log() as log:
            (end,), _ = advance((start,), params, 3e-2)
        steps.append((log.steps, end.floored_mass > 0.0))
    assert steps[0][1] and not steps[1][1] and not steps[2][1]
    assert len({n for n, _ in steps}) == 3
    shifted = start_state(64, 5.3, 1e-10, tmp_path)
    with pytest.raises(RuntimeError, match="10% margin"):
        advance((shifted,), rows[2], 3e-2)


def test_stack_logs_one_step_per_row_step(tmp_path):
    start = start_state(64, 0.0, 1e-3, tmp_path)
    lanes = [PhysParams(alpha=1.25, epsilon=e) for e in (1000.0, 100.0, 1e-3)]
    with step_log() as ref:
        for params in lanes:
            advance((start,), params, 1e-2)
    with step_log() as log:
        stacked(start, lanes, 1e-2, ())
    assert log.steps == ref.steps
    # every lane of a stack step computes on the union of the lanes' spans
    assert ref.grid_cells == log.grid_cells and ref.stepped_cells <= log.stepped_cells


def test_stack_rejects_lanes_of_other_alpha(tmp_path):
    start = start_state(32, 0.0, 1e-3, tmp_path)
    with pytest.raises(ValueError, match="share alpha and gamma"):
        FlowStack(start, [PhysParams(alpha=1.25), PhysParams(alpha=1.5)])
