"""`cns.FlowRow` under `grid.march_rows`, the in-place flow march, alone and
with a `pme.LimitRow` partner, against the reference `march` of
`tests/reference.py`.

`march((start,), params, t_end, snapshot_times)` is the oracle, step by
step: every yielded step must be equal (`==`) in time, step size, density
and momentum bytes, floored mass, active window and step span, CFL step, v
and u bytes and every `DiagnosticsRecord` field, and each snapshot state
that the row's `state(t)` builds must equal the marched state at that time.
The step log must count the same steps and stepped cells, and a march that
fails must raise the same error after the same steps.

With a limit partner the oracle is `march((start, PmeState(t0,
start.rho)), ...)`, and each step's limit row bytes, limit window and
clipped mass must be equal too.
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hicomp.analysis import _span_diagnostics
from hicomp.cns import FlowRow, _cns_window, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid, _check_margins, _margin_band, march_rows, step_log
from hicomp.params import PhysParams
from hicomp.pme import LimitRow, PmeState, advance_limit
from reference import cfl_dt, cns_step, diagnostics, march, pme_step, step_span, velocities


@st.composite
def densities(draw):
    """(n_cells, kind, lo, values, speeds, floor_frac): the unit tent, or
    random positive values on a block of cells from lo, with effective
    velocities of the given sizes and signs on the block.  The block keeps
    clear of the margin bands, but may touch one."""
    n = draw(st.integers(24, 64))
    kind = draw(st.sampled_from(["tent", "block"]))
    band = _margin_band(n)
    width = draw(st.integers(1, n - 2 * band))
    lo = draw(st.integers(band, n - band - width))
    values = draw(st.lists(st.floats(1e-3, 2.0), min_size=width, max_size=width))
    scale = draw(st.sampled_from([0.0, 0.1, 5.0]))
    speeds = [scale * s for s in draw(st.lists(st.floats(-1.0, 1.0), min_size=width,
                                               max_size=width))]
    return n, kind, lo, values, speeds, draw(st.sampled_from([1e-10, 1e-3, 0.1]))


def start_state(data, t0):
    n, kind, lo, values, speeds, floor_frac = data
    grid = Grid(-8.0, 8.0, n)
    if kind == "tent":
        return replace(well_prepared_init(tent_field(grid, 1.0), floor_frac), t=t0)
    rho, v = np.zeros(n), np.zeros(n)
    rho[lo:lo + len(values)] = values
    v[lo:lo + len(speeds)] = speeds
    return replace(well_prepared_init(Field(grid, rho), floor_frac, Field(grid, v)), t=t0)


@st.composite
def plans(draw):
    """(horizon in first steps, fractions of it, picks, bad): the snapshot
    times are picks from the start time, the end time, times between and
    times 0.3 steps and one ulp after those, so duplicates and
    near-coincident times occur; `bad` adds a time before the start
    ("time") or puts the end time before it ("end")."""
    horizon = draw(st.integers(0, 40)) + draw(st.floats(0.0, 1.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    picks = draw(st.lists(st.integers(0, 3 * len(fractions) + 1), max_size=8))
    return horizon, fractions, picks, draw(st.sampled_from([None] * 6 + ["time", "end"]))


def march_times(t0, dt0, plan):
    """(t_end, snapshot_times) of a plan."""
    horizon, fractions, picks, bad = plan
    t_end = t0 + horizon * dt0
    inner = [t0 + f * (t_end - t0) for f in fractions]
    close = [min(t + 0.3 * dt0, t_end) for t in inner]
    after = [min(float(np.nextafter(t, math.inf)), t_end) for t in inner]
    pool = [t0, t_end, *inner, *close, *after]
    times = tuple(pool[i] for i in picks)
    if bad == "time":
        times += (t0 - dt0,)
    return (t0 - dt0 if bad == "end" else t_end), times


def state_record(state, params):
    """What a marched state shows: its time, rows, floored mass, window,
    step span, CFL step, v, u and diagnostics."""
    cfl, v, u = velocities(state, params)
    return (state.t, state.rho.values.tobytes(), state.momentum_v.values.tobytes(),
            state.floored_mass, state._window, step_span(state), cfl, v.tobytes(),
            u.tobytes(), astuple(diagnostics(state, params)))


def partner_of(start, partner):
    """The limit partner of a march from `start`, or None without one."""
    return PmeState(t=start.t, rho=start.rho) if partner else None


def flow_steps(start, params, t_end, times, partner, out):
    """Append to `out` what each step of march_rows on a FlowRow from
    `start`, with its LimitRow partner or without, shows, and the state the
    flow row's `state(t)` builds at a snapshot time."""
    floor, dx = start.rho_floor, start.rho.grid.dx
    flow = FlowRow(start, params)
    rows = (flow, LimitRow(partner_of(start, partner), params)) if partner else (flow,)
    for (t,), (dt,) in march_rows(rows, start.t, t_end, times):
        diag = _span_diagnostics(t, flow.rho, flow.span, flow.v, flow.u, flow.rho_max,
                                 floor, dx, params)
        limit = None if not partner else (
            rows[1].rho.tobytes(), rows[1].window, rows[1].clipped_mass)
        out.append((t, dt, flow.rho.tobytes(), flow.mom.tobytes(), flow.floored_mass,
                    _cns_window(flow.rho, flow.mom, floor), flow.window, flow.span, flow.cfl[0],
                    flow.v.tobytes(), flow.u.tobytes(), astuple(diag), limit,
                    state_record(flow.state(t), params) if t in times else None))


def reference_steps(start, params, t_end, times, partner, out):
    """The same, read from the states of march."""
    states = (start, partner_of(start, partner)) if partner else (start,)
    for (state, *pair), dt in march(states, params, t_end, times):
        rec = state_record(state, params)
        limit = None if not pair else (
            pair[0].rho.values.tobytes(), pair[0]._window, pair[0].clipped_mass)
        # rec[4:] is the window, step span, CFL step, v, u and diagnostics
        out.append((state.t, dt, rec[1], rec[2], state.floored_mass, state._window, *rec[4:],
                    limit, rec if state.t in times else None))


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


# the tent at n = 128 reaches the margin band after 455 steps
# (tests/test_pinned_marches.py)
MARGIN_BOUND = ((128, "tent", 0, [], [], 1e-10), 1.25, 2.0, 1e-2, 0.0,
                (1e6, [], [], None))
# eps = 1000 lifts the tent's density to the floor within a few steps; beside
# a limit partner the flow's CFL step binds
FLOORING = ((64, "tent", 0, [], [], 1e-3), 1.25, 2.0, 1000.0, 0.0,
            (40.0, [0.5], [0, 2, 3, 4], None))
# a block carried away from the left margin band, which its limit partner
# diffuses into: the limit's margin check stops the pair after 17 steps
LIMIT_MARGIN = ((64, "block", 9, [0.5, 0.5, 1.0], [5.0, 5.0, 5.0], 1e-10), 2.0, 2.0, 1e-3,
                0.0, (1e6, [], [], None))


@settings(max_examples=120, deadline=None)
@given(data=densities(), alpha=st.floats(1.1, 3.0), gamma=st.sampled_from([1.4, 2.0, 3.0]),
       eps=st.sampled_from([0.0, 1e-3, 1e-2, 1.0, 1000.0]),
       t0=st.sampled_from([0.0, 0.1, 1.0 / 3.0]), plan=plans(), partner=st.booleans())
@example(*MARGIN_BOUND, False)
@example(*MARGIN_BOUND, True)
@example(*FLOORING, False)
@example(*FLOORING, True)
@example(*LIMIT_MARGIN, True)
# a snapshot time one ulp after another, and the start time among them
@example(data=(32, "block", 10, [0.5, 1.0, 0.7], [0.2, -0.4, 0.1], 1e-3), alpha=1.5,
         gamma=2.0, eps=1e-2, t0=0.1, plan=(12.0, [0.5], [0, 0, 2, 4, 4], None),
         partner=True)
@example(data=(32, "block", 10, [1.0, 2.0], [0.0, 0.0], 0.1), alpha=3.0, gamma=1.4,
         eps=1.0, t0=1.0 / 3.0, plan=(8.0, [0.25], [1, 2], "end"), partner=False)
@example(data=(24, "block", 6, [1.0], [0.0], 1e-10), alpha=2.0, gamma=2.0, eps=0.0,
         t0=0.0, plan=(6.0, [], [1], "time"), partner=True)
# a thin datum's first step lands from below half its target, where t + (target - t)
# rounds off the target
@example(data=(16, "block", 7, [1e-2, 1e-2], [0.0, 0.0], 0.1), alpha=2.0, gamma=2.0, eps=0.0,
         t0=1.0 / 3.0, plan=(0.9, [0.1], [2], None), partner=False)
def test_flow_rows_match_march(data, alpha, gamma, eps, t0, plan, partner):
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=eps)
    t_end, times = march_times(t0, cfl_dt(start, params), plan)
    got = logged(flow_steps, start, params, t_end, times, partner)
    ref = logged(reference_steps, start, params, t_end, times, partner)
    assert got[2] == ref[2]
    assert got[1] == ref[1]
    assert len(got[0]) == len(ref[0])
    for step, ref_step in zip(*(side[0] for side in (got, ref))):
        assert step == ref_step


def test_examples_reach_the_margin_and_the_floor():
    # MARGIN_BOUND must stop at the margin after several steps, and
    # FLOORING must lift mass to the floor
    data, alpha, gamma, eps, t0, plan = MARGIN_BOUND
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=eps)
    steps, err, _ = logged(flow_steps, start, params, *march_times(t0, cfl_dt(start, params),
                                                                   plan), False)
    assert err[0] is RuntimeError and "margin" in err[1]
    assert len(steps) == 455

    data, alpha, gamma, eps, t0, plan = FLOORING
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=eps)
    steps, err, _ = logged(flow_steps, start, params, *march_times(t0, cfl_dt(start, params),
                                                                   plan), False)
    assert err is None and steps[-1][4] > 0.0


def test_partner_examples_bind_on_the_flow_and_stop_on_the_limit():
    # FLOORING's pair steps on the flow's CFL step: it takes more steps than
    # its limit partner alone
    data, alpha, gamma, eps, t0, plan = FLOORING
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=eps)
    t_end, times = march_times(t0, cfl_dt(start, params), plan)
    pair, err, _ = logged(flow_steps, start, params, t_end, times, True)
    with step_log() as alone:
        advance_limit(partner_of(start, True), params, (*times, t_end))
    assert err is None and len(pair) > alone.steps

    # LIMIT_MARGIN's pair stops in the step whose flow state is clear of the
    # margins and whose limit state is not
    data, alpha, gamma, eps, t0, plan = LIMIT_MARGIN
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, gamma=gamma, epsilon=eps)
    t_end, _ = march_times(t0, cfl_dt(start, params), plan)
    states = (start, partner_of(start, True))
    steps = 0
    try:
        for states, _ in march(states, params, t_end):
            steps += 1
    except RuntimeError as e:
        assert "margin" in str(e)
    assert steps == 17
    flow, limit = states
    dt = min(cfl_dt(flow, params), cfl_dt(limit, params))
    flow = cns_step(flow, params, dt)
    _check_margins(flow.rho.values, flow._window, flow.rho.grid)
    limit = pme_step(limit, params, dt)
    with pytest.raises(RuntimeError, match="margin"):
        _check_margins(limit.rho.values, limit._window, limit.rho.grid)

