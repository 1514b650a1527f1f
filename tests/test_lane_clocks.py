"""`grid.march_rows`'s lane rule on stub rows with given candidate steps.

Lane k of every row shares one clock, which steps on the smallest of the
rows' k-th candidates, lands exactly on each snapshot time and on t_end,
and stops there; its step is None from then on.  Every row's
`update(dts, ts)` sees the lanes' steps and the times they start from, and
its `settle(live)` the lanes that step again; the step log counts one step
and the rows' widths per lane stepped.  The expected clocks come from a
loop per lane.
"""

import math

import pytest

from hicomp.grid import Grid, march_rows, step_log


class Stub:
    """A row whose lanes keep the candidate steps `cfl`, recording the calls
    the march makes."""

    def __init__(self, cfl, width, n_cells=40):
        self.cfl, self.width, self.grid = cfl, width, Grid(-1.0, 1.0, n_cells)
        self.calls = []

    def update(self, dts, ts):
        self.calls.append(("update", dts, list(ts)))

    def settle(self, live):
        self.calls.append(("settle", list(live)))


def lane_clock(t, t_end, times, dt):
    """(time, step) after each step of one clock stepping on dt."""
    out = []
    for target in sorted({*times, t_end}):
        while t < target:
            step = min(dt, target - t)
            t = target if dt >= target - t else t + dt
            out.append((t, step))
    return out


def test_lanes_share_a_clock_across_rows_and_stop_at_t_end():
    rows = (Stub([0.3, 0.25], 3), Stub([0.2, 0.5], 5, n_cells=60))
    lanes = [lane_clock(0.0, 1.0, (0.5,), dt) for dt in (0.2, 0.25)]
    with step_log() as log:
        got = list(march_rows(rows, 0.0, 1.0, (0.5,)))
    assert len(got) == max(map(len, lanes)) > min(map(len, lanes))
    starts = [0.0, 0.0]
    for i, (ts, dts) in enumerate(got):
        for k, lane in enumerate(lanes):
            # a stopped lane keeps its time, and its step is None
            assert (ts[k], dts[k]) == (lane[i] if i < len(lane) else (lane[-1][0], None))
        live = [k for k, lane in enumerate(lanes) if i < len(lane)]
        going = [k for k in live if i + 1 < len(lanes[k])]
        for row in rows:
            assert row.calls[2 * i:2 * i + 2] == [("update", dts, starts), ("settle", going)]
        starts = ts
    lane_steps = sum(map(len, lanes))
    assert (log.steps, log.stepped_cells, log.grid_cells) == (
        lane_steps, 8 * lane_steps, 100 * lane_steps)


def test_a_step_that_rounds_onto_its_target_lands_there():
    # dt is below target - t, yet t + dt rounds to the target: the lane has
    # reached it, and takes no further step to it
    t, target = 0.381887309488307, 0.5395487112542972
    dt = math.nextafter(target - t, 0.0)
    assert dt < target - t and t + dt == target
    assert list(march_rows((Stub([dt], 1),), t, target, (target,))) == [([target], [dt])]


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan])
def test_a_lane_without_a_positive_step_stops_the_march(bad):
    with pytest.raises(RuntimeError, match=f"CFL step {bad} at t=0.0 is not positive"):
        next(march_rows((Stub([0.1, bad], 1),), 0.0, 1.0))
