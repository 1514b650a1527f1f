"""`grid.march_rows` on limit pairs and across restarts.

Two `pme.LimitRow`s, as `validate.pair_property_drifts` marches them, are
compared with the reference `march` on the two `PmeState`s step by step: time, step size,
both rows' bytes, active windows and clipped masses must be equal (`==`),
the step log must count the same steps and stepped cells, and a march that
fails must raise the same error after the same steps.

The restart test stops a paired march of a one-lane `cns.FlowStack` and a
`LimitRow` after k steps, rebuilds fresh rows from the stack's
`state(0, t)` and the limit row's `state(t)` and goes on: every step must
be bit for bit the unbroken march's.
"""

from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st
from test_limit_march import MARGIN_BOUND, plans, snapshot_times, start_state
from test_march import paired_start

from hicomp.cns import FlowStack
from hicomp.grid import march_rows, step_log
from hicomp.params import PhysParams
from hicomp.pme import LimitRow
from reference import cfl_dt, march


@st.composite
def limit_pairs(draw):
    """Two `test_limit_march` densities on one n-cell grid."""
    n = draw(st.integers(16, 64))
    pair = []
    for _ in range(2):
        kind = draw(st.sampled_from(["compact", "floored", "boundary"]))
        width = draw(st.integers(1, n // 3))
        if kind == "boundary":
            lo = draw(st.sampled_from([0, n - width]))
        else:
            lo = draw(st.integers(1, n - width - 1))
        values = draw(st.lists(st.floats(1e-3, 2.0), min_size=width, max_size=width))
        pair.append((n, kind, lo, values, draw(st.floats(1e-3, 0.3))))
    return tuple(pair)


def logged(run, *args):
    """The steps run(*args, out) showed, the error that ended it (or None),
    and the step log it left."""
    out, err = [], None
    with step_log() as log:
        try:
            run(*args, out)
        except (RuntimeError, ValueError) as e:
            err = (type(e), str(e))
    return out, err, (log.steps, log.stepped_cells, log.grid_cells)


def row_steps(starts, params, t_end, times, out):
    rows = [LimitRow(start, params) for start in starts]
    for (t,), (dt,) in march_rows(rows, starts[0].t, t_end, times):
        out.append((t, dt, *((row.rho.tobytes(), row.window, row.clipped_mass)
                             for row in rows)))


def state_steps(starts, params, t_end, times, out):
    for states, dt in march(starts, params, t_end, times):
        out.append((states[0].t, dt, *((s.rho.values.tobytes(), s._window, s.clipped_mass)
                                       for s in states)))


# MARGIN_BOUND's block reaches the margin band mid-march beside a partner
# that stays clear of it
MARGIN_PAIR = ((MARGIN_BOUND[0], (40, "compact", 16, [0.5] * 4, 0.1)), *MARGIN_BOUND[1:])


@settings(max_examples=120, deadline=None)
@given(pair=limit_pairs(), alpha=st.floats(1.1, 3.0),
       t0=st.sampled_from([0.0, 0.1, 1.0 / 3.0]), plan=plans())
@example(*MARGIN_PAIR)
@example(pair=((24, "boundary", 0, [0.5, 1.0, 0.7], 0.1), (24, "compact", 9, [2.0], 0.1)),
         alpha=1.25, t0=0.1, plan=(30.0, [0.5, 0.5], [0, 1, 2, 4, 6, 6], False))
@example(pair=((32, "floored", 12, [1.0, 2.0, 1.5], 0.2), (32, "compact", 5, [1.0], 0.1)),
         alpha=3.0, t0=1.0 / 3.0, plan=(20.0, [0.25], [0, 2, 3, 4], True))
def test_limit_row_pairs_match_march(pair, alpha, t0, plan):
    starts = tuple(start_state(data, t0) for data in pair)
    params = PhysParams(alpha=alpha, epsilon=0.0)
    times = snapshot_times(t0, min(cfl_dt(s, params) for s in starts), plan)
    got = logged(row_steps, starts, params, max(times), times)
    ref = logged(state_steps, starts, params, max(times), times)
    assert got == ref


def test_margin_pair_fails_mid_march():
    # MARGIN_PAIR above must stop on the margin error after several steps
    pair, alpha, t0, plan = MARGIN_PAIR
    starts = tuple(start_state(data, t0) for data in pair)
    params = PhysParams(alpha=alpha, epsilon=0.0)
    times = snapshot_times(t0, min(cfl_dt(s, params) for s in starts), plan)
    steps, err, _ = logged(row_steps, starts, params, max(times), times)
    assert err[0] is RuntimeError and "margin" in err[1]
    assert len(steps) > 1


def paired_rows(states, params):
    flow, limit = states
    return FlowStack(flow, [params]), LimitRow(limit, params)


def paired_steps(rows, t, t_end):
    """Each step of march_rows on a flow and a limit row: what a restart
    must carry on bit for bit."""
    flow, limit = rows
    for (t,), (dt,) in march_rows(rows, t, t_end):
        yield (t, dt, flow.rho.tobytes(), flow.mom.tobytes(), flow.window,
               flow.floored_mass[0], flow.cfl[0], limit.rho.tobytes(), limit.window,
               limit.clipped_mass, limit.cfl[0])


@pytest.fixture(scope="module")
def unbroken():
    """The whole paired march: its start, params, t_end and every step."""
    start, params = paired_start()
    t_end = 0.2
    return start, params, t_end, list(paired_steps(paired_rows(start, params), 0.0, t_end))


@pytest.mark.parametrize("where", ["first", "middle", "penultimate", "last"])
def test_stopped_rows_restart_bit_for_bit(unbroken, where):
    start, params, t_end, steps = unbroken
    n = len(steps)
    k = {"first": 1, "middle": n // 2, "penultimate": n - 1, "last": n}[where]
    rows = paired_rows(start, params)
    head = list(islice(paired_steps(rows, 0.0, t_end), k))
    t = head[-1][0]
    flow, limit = rows
    restarted = paired_rows([flow.state(0, t), limit.state(t)], params)
    tail = list(paired_steps(restarted, t, t_end))
    assert head + tail == steps
    assert steps[-1][0] == t_end
