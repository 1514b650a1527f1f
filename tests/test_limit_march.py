"""`pme.advance_limit`, the in-place limit march, against `grid.advance`.

`advance((start,), params, max(snapshot_times), snapshot_times)` is the
oracle: every snapshot must be equal (`==`) in time, density bytes, clipped
mass and active window, the step log must count the same steps and stepped
cells, and a march that fails must raise the same error after the same
steps.  The clipping branch of the shared update kernel is compared through
`pme_step` in `tests/test_windowed_steps.py`.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hicomp.grid import Field, Grid, advance, step_log
from hicomp.params import PhysParams
from hicomp.pme import PmeState, advance_limit


@st.composite
def densities(draw):
    """(n_cells, kind, lo, values, floor_frac): random positive values on a
    block of cells from lo, zero (compact) or a positive floor (floored)
    elsewhere, or touching a boundary cell, so the window is the whole grid.
    A compact block may sit in or near a margin band."""
    n = draw(st.integers(16, 64))
    kind = draw(st.sampled_from(["compact", "floored", "boundary"]))
    width = draw(st.integers(1, n // 3))
    if kind == "boundary":
        lo = draw(st.sampled_from([0, n - width]))
    else:
        lo = draw(st.integers(1, n - width - 1))
    values = draw(st.lists(st.floats(1e-3, 2.0), min_size=width, max_size=width))
    return n, kind, lo, values, draw(st.floats(1e-3, 0.3))


def start_state(data, t0):
    n, kind, lo, values, floor_frac = data
    rho = np.zeros(n)
    rho[lo:lo + len(values)] = values
    if kind == "floored":
        rho = np.maximum(rho, floor_frac * max(values))
    return PmeState(t=t0, rho=Field(Grid(-8.0, 8.0, n), rho))


@st.composite
def plans(draw):
    """(horizon in first steps, fractions of it, picks, bad): the snapshot
    times are the end time and picks from the start time, the end time,
    times between and times just after those, so duplicates and
    near-coincident times occur; `bad` adds a time before the start."""
    horizon = draw(st.integers(0, 60)) + draw(st.floats(0.0, 1.0))
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    picks = draw(st.lists(st.integers(0, 3 * len(fractions) + 1), max_size=8))
    return horizon, fractions, picks, draw(st.sampled_from([False] * 4 + [True]))


def snapshot_times(t0, dt0, plan):
    horizon, fractions, picks, bad = plan
    t_end = t0 + horizon * dt0
    inner = [t0 + f * (t_end - t0) for f in fractions]
    close = [min(t + 0.3 * dt0, t_end) for t in inner]
    after = [min(float(np.nextafter(t, math.inf)), t_end) for t in inner]
    pool = [t0, t_end, *inner, *close, *after]
    times = (*(pool[i] for i in picks), t_end)
    return times + (t0 - dt0,) if bad else times


def logged(run):
    """run()'s result or the error that ended it, and the step log it left."""
    with step_log() as log:
        try:
            out = run()
        except (RuntimeError, ValueError) as e:
            out = e
    return out, (log.steps, log.stepped_cells, log.grid_cells)


# one margin-band width in from the band: the support reaches it mid-march
MARGIN_BOUND = ((40, "compact", 6, [1.0] * 12, 0.1), 2.0, 0.0, (60.0, [], [], False))


@settings(max_examples=150, deadline=None)
@given(data=densities(), alpha=st.floats(1.1, 3.0), t0=st.sampled_from([0.0, 0.1, 1.0 / 3.0]),
       plan=plans())
@example(*MARGIN_BOUND)
# a thin datum's first step lands from below half its target, where t + (target - t)
# rounds off the target
@example(data=(16, "compact", 7, [1e-3, 1e-3], 0.1), alpha=2.0, t0=1.0 / 3.0,
         plan=(0.5, [0.5], [2], False))
@example(data=(24, "boundary", 0, [0.5, 1.0, 0.7], 0.1), alpha=1.25, t0=0.1,
         plan=(30.0, [0.5, 0.5], [0, 1, 2, 4, 6, 6], False))
@example(data=(32, "floored", 12, [1.0, 2.0, 1.5], 0.2), alpha=3.0, t0=1.0 / 3.0,
         plan=(20.0, [0.25], [0, 2, 3, 4], True))
def test_advance_limit_matches_advance(data, alpha, t0, plan):
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, epsilon=0.0)
    times = snapshot_times(t0, start.cfl_dt(params), plan)
    got, got_log = logged(lambda: advance_limit(start, params, times))
    ref, ref_log = logged(lambda: [s for (s,) in advance((start,), params, max(times), times)[1]])
    assert got_log == ref_log
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert len(got) == len(ref) == len(set(times))
    for snap, r in zip(got, ref):
        assert snap.t == r.t
        assert snap.rho.values.tobytes() == r.rho.values.tobytes()
        assert snap.clipped_mass == r.clipped_mass
        assert snap._window == r._window


def test_margin_example_fails_mid_march():
    # MARGIN_BOUND above must exercise the margin check after several steps
    data, alpha, t0, plan = MARGIN_BOUND
    start = start_state(data, t0)
    params = PhysParams(alpha=alpha, epsilon=0.0)
    err, (steps, _, _) = logged(lambda: advance_limit(
        start, params, snapshot_times(t0, start.cfl_dt(params), plan)))
    assert isinstance(err, RuntimeError) and "margin" in str(err)
    assert steps > 1


def test_no_snapshot_times_rejected():
    start = start_state((16, "compact", 6, [1.0, 1.0], 0.1), 0.0)
    with pytest.raises(ValueError, match="none given"):
        advance_limit(start, PhysParams(alpha=2.0, epsilon=0.0), ())
