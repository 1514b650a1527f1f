"""`cns.advance_stack`, the stacked eps march, against the per-eps reference
`advance` of `tests/reference.py`.

The per-eps marches are the oracle: for every row, every snapshot must be
equal in time and floored mass (`==`) and in the bytes of its density and
momentum to those of
`advance((start,), params, max(snapshot_times), snapshot_times)` for that
row's params.  A stack whose rows fail raises the error of one of the
failing rows; a stack whose rows all pass raises nothing.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hicomp.cns import advance_stack, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid, read_field_csv, step_log, write_field_csv
from hicomp.params import PhysParams
from reference import advance

# eps = 1000 floors the tent's row at floor_frac 1e-3 and 3e-2 within tens of
# steps; the larger eps take more steps than the smaller ones
EPS_POOL = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0)


def start_state(n_cells, center, floor_frac, tmp_path):
    """The prepared start of the tent (1 - |x - center|)_+: the config's tent
    at center 0, otherwise read back from a CSV file, as a `from_csv` datum."""
    grid = Grid(-8.0, 8.0, n_cells)
    if center == 0.0:
        rho0 = tent_field(grid, 1.0)
    else:
        path = tmp_path / f"tent_{n_cells}_{center!r}.csv"
        write_field_csv(Field(grid, np.maximum(1.0 - np.abs(grid.centers - center), 0.0)),
                        path)
        rho0 = read_field_csv(path)
    return well_prepared_init(rho0, floor_frac)


def assert_same_state(state, ref):
    # bytes, not values: a -0.0 where the reference holds +0.0 is a difference
    assert state.t == ref.t
    assert state.rho.values.tobytes() == ref.rho.values.tobytes()
    assert state.momentum_v.values.tobytes() == ref.momentum_v.values.tobytes()
    assert state.floored_mass == ref.floored_mass


def per_row(start, rows, times):
    """Each row's snapshots from its own `advance`, or the error that
    stopped it."""
    out = []
    for params in rows:
        try:
            _, snaps = advance((start,), params, max(times), times)
        except (RuntimeError, ValueError) as e:
            out.append(e)
        else:
            out.append([s for (s,) in snaps])
    return out


@st.composite
def snapshot_sets(draw):
    """Snapshot times that end at t_end: t_end, the start time 0.0 and times
    between, each possibly more than once."""
    t_end = draw(st.sampled_from([0.0, 2e-3, 1e-2, 3e-2]))
    inner = draw(st.lists(st.floats(0.0, t_end), max_size=3))
    ends = draw(st.lists(st.sampled_from([0.0, t_end]), max_size=3))
    return tuple(draw(st.permutations([t_end, *inner, *ends])))


@settings(max_examples=80, deadline=None)
@given(n_cells=st.sampled_from([32, 48, 64]),
       center=st.sampled_from([0.0, -1.5, 0.3, 5.3]),
       floor_frac=st.sampled_from([1e-10, 1e-3, 3e-2]),
       eps=st.lists(st.sampled_from(EPS_POOL), min_size=1, max_size=5, unique=True),
       times=snapshot_sets())
@example(n_cells=64, center=0.0, floor_frac=1e-3, eps=[1000.0, 100.0, 1e-3],
         times=(0.0, 1e-2, 3e-2))
@example(n_cells=48, center=-1.5, floor_frac=3e-2, eps=[1.0, 1000.0], times=(1e-2, 0.0))
@example(n_cells=64, center=5.3, floor_frac=1e-10, eps=[1e-2, 10.0], times=(3e-2,))
# the start span (22, 32) reaches the grid's edge, so every step takes the
# rows' one-sided end stencils in full
@example(n_cells=32, center=5.3, floor_frac=1e-3, eps=[1000.0, 100.0, 1e-2],
         times=(1e-3, 3e-2))
def test_stack_matches_per_eps_marches(tmp_path_factory, n_cells, center, floor_frac,
                                       eps, times):
    start = start_state(n_cells, center, floor_frac, tmp_path_factory.mktemp("csv"))
    rows = [PhysParams(alpha=1.25, gamma=2.0, epsilon=e) for e in eps]
    refs = per_row(start, rows, times)
    errors = [(type(r), str(r)) for r in refs if isinstance(r, Exception)]
    if errors:
        with pytest.raises((RuntimeError, ValueError)) as err:
            advance_stack(start, rows, times)
        assert (type(err.value), str(err.value)) in errors
        return
    snaps = advance_stack(start, rows, times)
    assert len(snaps) == len(rows)
    for row_snaps, ref_snaps in zip(snaps, refs):
        assert len(row_snaps) == len(ref_snaps) == len(set(times))
        for snap, ref in zip(row_snaps, ref_snaps):
            assert_same_state(snap, ref)


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
    rows = [PhysParams(alpha=1.25, epsilon=e) for e in (1000.0, 100.0, 1e-3)]
    with step_log() as ref:
        for params in rows:
            advance((start,), params, 1e-2)
    with step_log() as log:
        advance_stack(start, rows, (1e-2,))
    assert log.steps == ref.steps
    # every row of a stack step computes on the union of the rows' spans
    assert ref.grid_cells == log.grid_cells and ref.stepped_cells <= log.stepped_cells


def test_stack_rejects_rows_of_other_alpha_and_no_snapshot(tmp_path):
    start = start_state(32, 0.0, 1e-3, tmp_path)
    with pytest.raises(ValueError, match="share alpha and gamma"):
        advance_stack(start, [PhysParams(alpha=1.25), PhysParams(alpha=1.5)], (1e-3,))
    with pytest.raises(ValueError, match="last snapshot time"):
        advance_stack(start, [PhysParams(alpha=1.25)], ())
