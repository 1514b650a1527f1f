"""Uniform 1D cell-centered grids and the discrete calculus built on them.

Everything downstream (both solvers and all measurements) works with cell
averages on a fixed uniform mesh.  The mesh truncates the real line, so
compactly supported data must stay away from the boundary; `advance`, the
explicit time-marching driver shared by both solvers, enforces a 10% safety
margin after every step.  A solver state carries its active window, the span
of cells that differ from its vacuum; a step computes on that window plus a
halo and leaves every other cell as it is.  `write_csv` is the one writer of
every CSV output.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "constant_field",
    "field_from_function",
    "derivative",
    "integrate",
    "antiderivative",
    "lp_norm",
    "check_support_margin",
    "advance",
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


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.n_cells, float(value)))


def field_from_function(grid: Grid, fn) -> Field:
    return Field(grid, np.asarray(fn(grid.centers), dtype=float))


def derivative(f: Field) -> Field:
    """Spatial derivative: central differences inside, one-sided 3-point
    stencils at the two boundary cells.  Second order everywhere, exact on
    quadratics."""
    return Field(f.grid, _derivative(f.values, f.grid.dx))


def _derivative(v: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    # one-sided stencils written in difference form so constants give 0 exactly
    out[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) / (2.0 * dx)
    out[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / (2.0 * dx)
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
    if p != math.inf and p < 1:
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


def _margin_band(n_cells: int) -> int:
    """Width in cells of each outer margin band."""
    return max(1, int(round(0.1 * n_cells)))


def _unchecked(cls, **attrs):
    """An instance of the frozen dataclass `cls` holding `attrs`, built
    without running its __post_init__ checks.  A step uses it for the arrays
    it has already checked on the cells it changed; every other cell was
    checked when its state was built."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


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
    """The window [lo, hi) grown by `halo` cells on each side, within the grid."""
    lo, hi = window
    return max(lo - halo, 0), min(hi + halo, n_cells)


# Both solvers step at this fraction of their stability limit; there the
# limit equation's one-step map is monotone.
CFL = 0.4


@dataclass
class StepLog:
    """What `advance` did inside a `step_log()` block: the steps it took,
    and the cells those steps computed on against the cells of their grids,
    both summed over states and steps."""

    steps: int = 0
    stepped_cells: int = 0
    grid_cells: int = 0

    @property
    def stepped(self) -> float:
        """Mean fraction of the grid a state's step computed on."""
        return self.stepped_cells / self.grid_cells if self.grid_cells else 0.0


_STEP_LOGS: list[StepLog] = []


@contextmanager
def step_log():
    """Yield a StepLog that every `advance` inside the block adds to."""
    log = StepLog()
    _STEP_LOGS.append(log)
    try:
        yield log
    finally:
        _STEP_LOGS.remove(log)


def _check_margin(state) -> None:
    """check_support_margin on the state's density after a step.  Its cells
    outside the active window all hold the boundary value, so while the
    window is clear of both bands the check cannot fail and is skipped."""
    n = state.rho.grid.n_cells
    band = _margin_band(n)
    lo, hi = state._window
    if lo < band or hi > n - band:
        vals = state.rho.values
        check_support_margin(vals, state.rho.grid, lo=1e-6 * float(vals.max()))


def advance(states, params, t_end: float, snapshot_times=(), observer=None):
    """March states to t_end on one shared dt sequence: every step takes the
    smallest CFL step of all states, so paired runs keep the discrete
    comparison and L1 contraction.  A state has `t`, a density `rho`, its
    active window `_window`, the cells `step_span` its next step computes on,
    `cfl_dt(params)` and `step(params, dt)`.  Steps land exactly on each
    snapshot time and on t_end.  After each step every support must stay
    clear of the outer margin, then observer(states, dt) is called.

    Returns (states at t_end, a tuple of states per distinct snapshot time).
    """
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
            dt = min(s.cfl_dt(params) for s in states)
            if not dt > 0.0:  # also catches NaN; a zero step would never end
                raise RuntimeError(f"CFL step {dt} at t={t} is not positive")
            remaining = target - t
            last = dt >= remaining
            dt = min(dt, remaining)
            for log in _STEP_LOGS:
                log.steps += 1
                for s in states:
                    s0, s1 = s.step_span
                    log.stepped_cells += s1 - s0
                    log.grid_cells += s.rho.grid.n_cells
            states = tuple(s.step(params, dt) for s in states)
            if last:
                states = tuple(replace(s, t=target) for s in states)
            t = states[0].t
            for s in states:
                _check_margin(s)
            if observer is not None:
                observer(states, dt)
        if target in snapshot_times:
            snapshots.append(states)
    return states, snapshots


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
