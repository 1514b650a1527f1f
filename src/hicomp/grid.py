"""Uniform 1D cell-centered grids and the discrete calculus built on them.

Everything downstream (both solvers and all measurements) works with cell
averages on a fixed uniform mesh.  The mesh truncates the real line, so
compactly supported data must stay away from the boundary.  `march_rows`
is the one time loop of every pipeline: it steps working grid rows in
place, each with the same number of lanes, lane k of every row on one
clock that lands exactly on snapshot times and stops at t_end, and checks
a 10% safety margin after each step.  A solver state or row carries its
active window, the span of cells that differ from its vacuum; a step
computes on that window plus a halo and leaves every other cell as it is.
`write_csv` is the one writer of every CSV output.
"""

from __future__ import annotations

import math
import operator
import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "derivative",
    "integrate",
    "antiderivative",
    "lp_norm",
    "check_support_margin",
    "march_rows",
    "StepLog",
    "step_log",
    "atomic_open",
    "write_csv",
    "write_field_csv",
    "read_field_csv",
]

FMT = "%.17g"


def _fmt(x: float) -> str:
    return FMT % x


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on [x_min, x_max] with n_cells cells.

    Cell i is centered at x_min + (i + 1/2) * dx.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(
                f"inverted bounds: x_min={self.x_min} must be < x_max={self.x_max}"
            )
        if int(self.n_cells) != self.n_cells or self.n_cells < 4:
            raise ValueError(f"n_cells must be an integer >= 4, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class Field:
    """Real-valued function on a grid, stored as cell averages."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"field has {vals.shape} values for a grid of {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")


def derivative(f: Field) -> Field:
    """Spatial derivative: central differences inside, one-sided 3-point
    stencils at the two boundary cells.  Second order everywhere, exact on
    quadratics."""
    return Field(f.grid, _derivative(f.values, f.grid.dx))


def _derivative(v: np.ndarray, dx: float, width: int | None = None,
                vacuum_ends: bool = False) -> np.ndarray:
    """`derivative` of each row of v, rows of `width` cells (default: one)
    laid end to end; with `vacuum_ends` (each row's first and last three cells
    hold one finite value) the end cells get the +0.0 their stencils give."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    # indexing the transposes picks each row's cells, as scalars for one row
    vt, ot = ((v, out) if width in (None, v.size)
              else (v.reshape(-1, width).T, out.reshape(-1, width).T))
    if vacuum_ends:
        ot[0] = ot[-1] = 0.0
        return out
    # one-sided stencils written in difference form so constants give 0 exactly
    ot[0] = (4.0 * (vt[1] - vt[0]) - (vt[2] - vt[0])) / (2.0 * dx)
    ot[-1] = (4.0 * (vt[-1] - vt[-2]) - (vt[-1] - vt[-3])) / (2.0 * dx)
    return out


def integrate(f: Field) -> float:
    """Midpoint quadrature over the whole domain."""
    return f.grid.dx * float(f.values.sum())


def antiderivative(f: Field) -> Field:
    """Left-anchored primitive: Phi_i = dx * sum_{j<=i} f_j.

    The anchor value at x_min is 0, which is the right normalization for
    fields that are compactly supported away from the boundary.
    """
    return Field(f.grid, f.grid.dx * np.cumsum(f.values))


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm; p = math.inf gives the max norm."""
    if not p >= 1:  # also catches NaN
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(f.values)
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    if p == 1:
        return f.grid.dx * float(a.sum())
    if p == 2:
        return math.sqrt(f.grid.dx * float(np.dot(a, a)))
    return float((f.grid.dx * (a**p).sum()) ** (1.0 / p))


def check_support_margin(values: np.ndarray, grid: Grid, lo: float,
                         strict: bool = False) -> None:
    """Raise if a compact support intrudes into the outer margin of the domain.

    The truncation of the real line is only faithful while supports stay
    clear of the boundary; intrusion is a hard error, not a warning.  Unless
    `strict`, data that are not compactly supported (boundary cells already
    above `lo`, e.g. constant states) are exempt: for them the zero-flux
    truncation is the caller's explicit modeling choice.  Initial data and
    test functions are validated strictly.
    """
    if not strict and (float(values[0]) > lo or float(values[-1]) > lo):
        return
    band = _margin_band(grid.n_cells)
    if float(values[:band].max()) > lo or float(values[-band:].max()) > lo:
        raise RuntimeError(
            "support reached the outer "
            f"10% margin of [{grid.x_min}, {grid.x_max}]; "
            "enlarge the domain"
        )


@cache
def _margin_band(n_cells: int) -> int:
    """Width in cells of each outer margin band."""
    return max(1, int(round(0.1 * n_cells)))


def _active_span(active: np.ndarray, start: int, n_cells: int) -> tuple[int, int]:
    """Window [lo, hi) of the True cells of `active`, a nonempty mask of the
    cells from `start` on of an n_cells grid whose other cells are inactive.
    (0, 0) when no cell is active; the whole grid (0, n_cells) as soon as a
    boundary cell is."""
    first = int(active.argmax())
    if not active[first]:
        return 0, 0
    lo = start + first
    hi = start + active.size - int(active[::-1].argmax())
    return (0, n_cells) if lo == 0 or hi == n_cells else (lo, hi)


def _widen(window: tuple[int, int], halo: int, n_cells: int) -> tuple[int, int]:
    """The window [lo, hi) grown by `halo` cells on each side, within the grid.
    Conditional expressions, not min and max: a march calls it every step."""
    lo, hi = window[0] - halo, window[1] + halo
    return (lo if lo > 0 else 0), (hi if hi < n_cells else n_cells)


def _embed(values: np.ndarray, lo: int, size: int, fill) -> np.ndarray:
    """Fresh length-`size` rows along the last axis holding `values` from `lo`
    on and `fill` everywhere else: a scalar, or a column with each row's.

    A windowed result becomes a grid row only through here before it is
    reduced: numpy's pairwise sums and BLAS dots depend on position and
    length, so only a full-length row gives the full-grid bits."""
    rows = np.empty(values.shape[:-1] + (size,))
    rows[:] = fill
    rows[..., lo:lo + values.shape[-1]] = values
    return rows


# Both solvers step at this fraction of their stability limit; there the
# limit equation's one-step map is monotone.
CFL = 0.4

# a 1-D ndarray's min and max without their Python wrappers, for per-step use
_min, _max = np.minimum.reduce, np.maximum.reduce


@dataclass
class StepLog:
    """What `march_rows` did inside a `step_log()` block: the steps it took,
    a step counting one per lane stepped, and the cells those steps computed
    on against the cells of their grids, both summed over rows and lanes."""

    steps: int = 0
    stepped_cells: int = 0
    grid_cells: int = 0

    @property
    def stepped(self) -> float:
        """Mean fraction of the grid a row's step of a lane computed on."""
        return self.stepped_cells / self.grid_cells if self.grid_cells else 0.0


_STEP_LOGS: list[StepLog] = []


@contextmanager
def step_log():
    """Yield a StepLog that every step of `march_rows` inside the block adds
    to, one per lane stepped."""
    log = StepLog()
    _STEP_LOGS.append(log)
    try:
        yield log
    finally:
        _STEP_LOGS.remove(log)


def _check_margins(rho: np.ndarray, window: tuple[int, int], grid: Grid) -> None:
    """check_support_margin on the density rho, or on each row of a (rows,
    cells) stack of them, after a step.  Every cell outside the active
    window (of the stack: of any of its rows) holds the boundary value, so
    while the window is clear of both bands the check cannot fail and is
    skipped."""
    n = grid.n_cells
    band = _margin_band(n)
    lo, hi = window
    if lo < band or hi > n - band:
        for vals in np.atleast_2d(rho):
            check_support_margin(vals, grid, lo=1e-6 * float(vals.max()))


def march_rows(rows, t: float, t_end: float, snapshot_times=()):
    """March working rows (`pme.LimitRow`, `cns.FlowRow`, `cns.FlowStack`) in
    place from time t to t_end, yielding each lane's time and step, (ts, dts),
    after each step.  The rows carry the same number of lanes, one `cfl`
    candidate each; lane k of every row shares the clock ts[k], which steps
    on the smallest k-th candidate, cut back to land exactly on each
    snapshot time and on t_end, where the lane stops (its dts[k] is None
    from then on).  A step logs one step and the rows' `width` cells per
    lane stepped, calls every row's `update(dts, ts)`, with the times the
    steps start from, then every row's `settle(live)`, with the lanes that
    step again, which checks margins and readies their next step.  The tests
    compare it bit for bit with a loop over immutable states
    (`tests/reference.py`).  A generator: a caller that stops iterating
    stops the march.
    """
    if t_end < t:
        raise ValueError(f"t_end={t_end} is before state.t={t}")
    targets = sorted(set(snapshot_times) | {t_end})
    if targets[0] < t or targets[-1] > t_end:
        raise ValueError("snapshot times must lie within [state.t, t_end]")
    cfls, widths = operator.attrgetter("cfl"), operator.attrgetter("width")
    updates = [row.update for row in rows]
    settles = [row.settle for row in rows]
    cells = sum(row.grid.n_cells for row in rows)
    end, lanes = len(targets), len(rows[0].cfl)
    # each lane's clock and the index of its next target
    ts, aims = [t] * lanes, [bisect_right(targets, t)] * lanes
    live = list(range(lanes)) if aims[0] < end else []
    while live:
        cands = rows[0].cfl if len(rows) == 1 else list(map(min, *map(cfls, rows)))
        dts, after, going = [None] * lanes, ts.copy(), live
        for k in live:
            t, target, dt = ts[k], targets[aims[k]], cands[k]
            if not dt > 0.0:  # also catches NaN; a zero step would never end
                raise RuntimeError(f"CFL step {dt} at t={t} is not positive")
            if dt >= target - t:
                dt, t = target - t, target
            else:
                t += dt
            dts[k], after[k] = dt, t
            if t >= target:
                aims[k] = bisect_right(targets, t, aims[k])
                if aims[k] == end:
                    going = [j for j in going if j != k]
        n = len(live)
        for log in _STEP_LOGS:
            log.steps += n
            log.stepped_cells += n * sum(map(widths, rows))
            log.grid_cells += n * cells
        for update in updates:
            update(dts, ts)
        for settle in settles:
            settle(going)
        ts, live = after, going
        yield ts, dts


@contextmanager
def atomic_open(path):
    """Open `path` for text writing through a sibling temp file that replaces
    `path` only when the block completes.  On any error the temp file is
    removed, so a failed run never leaves a partial output behind."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path, header, rows, comments=()) -> None:
    """Write `# ` comment lines, the column names in `header` and one line
    per row of numbers at full double precision, all through atomic_open.
    A row with more or fewer numbers than `header` names raises TypeError."""
    line = ",".join([FMT] * len(header)) + "\n"
    with atomic_open(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


def write_field_csv(f: Field, path, header_comments: tuple[str, ...] = ()) -> None:
    """Write (x, value) columns with full double precision, after a
    `# grid:` line that lets read_field_csv rebuild the grid exactly."""
    g = f.grid
    grid_line = f"grid: x_min={_fmt(g.x_min)} x_max={_fmt(g.x_max)} n_cells={g.n_cells}"
    write_csv(path, ("x", "value"), zip(g.centers, f.values),
              (*header_comments, grid_line))


def read_field_csv(path) -> Field:
    """Read a field written by write_field_csv.  The grid comes from the
    `# grid:` line, else from the first and last x; x must be its centers."""
    xs: list[float] = []
    vs: list[float] = []
    grid = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# grid:"):
                spec = dict(item.split("=") for item in line[len("# grid:"):].split())
                grid = Grid(float(spec["x_min"]), float(spec["x_max"]), int(spec["n_cells"]))
            if not line or line.startswith("#") or line.startswith("x,"):
                continue
            sx, sv = line.split(",")
            xs.append(float(sx))
            vs.append(float(sv))
    if len(xs) < 4:
        raise ValueError(f"{path}: need at least 4 rows to define a grid")
    x = np.asarray(xs)
    if grid is None:
        dx = x[1] - x[0]
        grid = Grid(float(x[0] - dx / 2), float(x[-1] + dx / 2), len(xs))
    if x.size != grid.n_cells or np.max(np.abs(x - grid.centers)) > 1e-6 * grid.dx:
        raise ValueError(f"{path}: x column is not the uniform cell centers of {grid}")
    return Field(grid, np.asarray(vs))
