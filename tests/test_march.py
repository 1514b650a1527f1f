"""`march`, the reference step generator of `tests/reference.py`, across
restarts, and the paired start that the row tests share.

The restart test checks that a march stopped after k steps and rebuilt
from plain copies of its k-th yield goes on bit for bit as the unbroken
march: every state equal (`==`) in time, arrays and logged masses.
"""

from itertools import islice

import numpy as np
import pytest

from hicomp.cns import CnsState, well_prepared_init
from hicomp.config import tent_field
from hicomp.grid import Field, Grid
from hicomp.params import PhysParams
from hicomp.pme import PmeState
from hicomp.study import saturating_velocity
from reference import march


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
