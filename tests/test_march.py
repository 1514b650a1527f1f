"""`march`, the reference step generator, and `advance`, the loop over it
(`tests/reference.py`).

`reference_advance` below is the callback-free body of the march loop that
`advance` ran before it became a loop over `march`, kept here as the oracle
for the snapshot rule: the end states and every snapshot must be equal
(`==`) in time, arrays and logged masses.  The restart test checks that a
march stopped after k steps and rebuilt from plain copies of its k-th
yield goes on bit for bit as the unbroken march.
"""

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hicomp.cns import CnsState, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid, _check_margins
from hicomp.params import PhysParams
from hicomp.pme import PmeState
from hicomp.study import saturating_velocity
from reference import advance, cfl_dt, cns_step, march, pme_step


def reference_advance(states, params, t_end, snapshot_times=()):
    t = states[0].t
    if any(s.t != t for s in states):
        raise ValueError("states must share a time")
    if t_end < t:
        raise ValueError(f"t_end={t_end} is before state.t={t}")
    targets = sorted(set(snapshot_times) | {t_end})
    if targets[0] < t or targets[-1] > t_end:
        raise ValueError("snapshot times must lie within [state.t, t_end]")
    snapshots = []
    for target in targets:
        while t < target:
            dt = min(cfl_dt(s, params) for s in states)
            if not dt > 0.0:
                raise RuntimeError(f"CFL step {dt} at t={t} is not positive")
            remaining = target - t
            last = dt >= remaining
            dt = min(dt, remaining)
            states = tuple((cns_step if isinstance(s, CnsState) else pme_step)(s, params, dt)
                           for s in states)
            if last:
                states = tuple(replace(s, t=target) for s in states)
            t = states[0].t
            for s in states:
                _check_margins(s.rho.values, s._window, s.rho.grid)
        if target in snapshot_times:
            snapshots.append(states)
    return states, snapshots


def paired_start(n_cells=128, eps=1e-2, t0=0.0):
    """A flow and a limit state set up as `certify` sets them up: the flow
    from saturating-velocity data, the limit from the floored flow density."""
    grid = Grid(-8.0, 8.0, n_cells)
    params = PhysParams(alpha=1.25, gamma=2.0, epsilon=eps)
    rho0 = tent_field(grid, 1.0)
    floor = 1e-10 * float(rho0.values.max())
    flow = well_prepared_init(rho0, v0=saturating_velocity(rho0, params, floor=floor))
    flow = CnsState(t=t0, rho=flow.rho, momentum_v=flow.momentum_v,
                    rho_floor=flow.rho_floor)
    return (flow, PmeState(t=t0, rho=flow.rho)), params


def assert_same_states(a, b):
    assert len(a) == len(b)
    for s, r in zip(a, b):
        assert type(s) is type(r)
        assert s.t == r.t
        assert np.array_equal(s.rho.values, r.rho.values)
        if isinstance(s, CnsState):
            assert np.array_equal(s.momentum_v.values, r.momentum_v.values)
            assert s.floored_mass == r.floored_mass
        else:
            assert s.clipped_mass == r.clipped_mass


@st.composite
def horizons(draw):
    """(t0, t_end, snapshot times as a function of the first step dt0): the
    start time, t_end, duplicates and times closer together than one step
    are among the snapshots."""
    t0 = draw(st.sampled_from([0.0, 0.1, 1.0 / 3.0]))
    t_end = t0 + draw(st.sampled_from([0.0, 1e-3, 0.05]))
    inner = draw(st.lists(st.floats(t0, t_end), max_size=4))
    nudges = draw(st.lists(st.floats(0.0, 1.0), min_size=len(inner), max_size=len(inner)))
    picks = draw(st.lists(st.integers(0, 2 * len(inner) + 1), max_size=8))

    def times(dt0):
        close = [min(t + f * dt0, t_end) for t, f in zip(inner, nudges)]
        pool = [t0, t_end, *inner, *close]
        return tuple(pool[i] for i in picks)

    return t0, t_end, times


@settings(max_examples=60, deadline=None)
@given(horizon=horizons(), paired=st.booleans())
def test_advance_keeps_the_snapshot_rule(horizon, paired):
    t0, t_end, make_times = horizon
    states, params = paired_start(t0=t0)
    if not paired:
        states = states[1:]
    times = make_times(min(cfl_dt(s, params) for s in states))
    end, snaps = advance(states, params, t_end, times)
    ref_end, ref_snaps = reference_advance(states, params, t_end, times)
    assert_same_states(end, ref_end)
    assert len(snaps) == len(ref_snaps) == len(set(times))
    for snap, ref in zip(snaps, ref_snaps):
        assert_same_states(snap, ref)


def rebuilt(states):
    """The states rebuilt through their constructors from copies of the
    arrays and numbers a checkpoint would store."""
    flow, limit = states
    grid = flow.rho.grid
    return (CnsState(flow.t, Field(grid, flow.rho.values.copy()),
                     Field(grid, flow.momentum_v.values.copy()), flow.rho_floor,
                     flow.floored_mass),
            PmeState(limit.t, Field(grid, limit.rho.values.copy()), limit.clipped_mass))


@pytest.fixture(scope="module")
def unbroken():
    """The whole paired march: its start, params, t_end and every yield."""
    start, params = paired_start()
    t_end = 0.2
    return start, params, t_end, list(march(start, params, t_end))


@pytest.mark.parametrize("where", ["first", "middle", "penultimate", "last"])
def test_stopped_march_restarts_bit_for_bit(unbroken, where):
    start, params, t_end, steps = unbroken
    n = len(steps)
    k = {"first": 1, "middle": n // 2, "penultimate": n - 1, "last": n}[where]
    head = list(islice(march(start, params, t_end), k))
    assert len(head) == k
    tail = list(march(rebuilt(head[-1][0]), params, t_end))
    assert len(head) + len(tail) == n
    for (states, dt), (ref_states, ref_dt) in zip(head + tail, steps):
        assert dt == ref_dt
        assert_same_states(states, ref_states)
    assert steps[-1][0][0].t == t_end
