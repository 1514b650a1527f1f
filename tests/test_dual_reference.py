"""The backward dual pass against the full-row pass it replaced.

`dual_certificate` computes the path quantities a block of steps at a time,
on the union of the stored rows' windows, and marches one dual row per group
of tests whose clamps act alike.  The reference below is the pass it
replaced: full rows rebuilt at every step, one clamp row per distinct window
and one dual row per test.  It is kept here as the oracle: every field of
every certificate must be equal (`==`), and the float fields equal by bytes.
Bit-identity holds for finite results.  A NaN may differ from the
reference's in its sign bit: when psi overflows, the pass pairs a test whose
clamp never binds with a +0.0 row, the reference with the clamp's own
mismatch row, whose zeros carry r's sign.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hicomp.analysis import _BLOCK, dual_certificate
from hicomp.cns import advective_face_flux
from hicomp.grid import Field, Grid, derivative, lp_norm
from hicomp.params import PhysParams
from hicomp.pme import diffusive_face_flux
from hicomp.study import WindowedPath, bump_test_function

FLOAT_FIELDS = ("eta", "cap", "lhs", "rhs_coeff_term", "rhs_momentum_term", "initial_term",
                "bound", "identity_residual", "measured_c")


def reference_dual_certificate(times, rho_eps_path, rho_tilde_path, momentum_path, tests,
                               params, rho_floor):
    """The shared backward pass on full (steps+1, n) rows, as it was before
    the union window and the shared dual rows: a list of dicts of every
    certificate field."""
    grid = tests[0][0].grid
    clamps = {}
    for _, eta, cap in tests:
        clamps.setdefault((eta, cap), len(clamps))
    dx = grid.dx
    alpha = params.alpha
    inv_alpha = 1.0 / alpha
    n_tests = len(tests)
    n_steps = times.size - 1
    windows = np.array(list(clamps))
    etas, caps = windows[:, :1], windows[:, 1:]
    clamp_of = [clamps[(eta, cap)] for _, eta, cap in tests]

    psi = np.stack([theta.values for theta, _, _ in tests])
    r_final = rho_eps_path[-1] - rho_tilde_path[-1]
    lhs = [dx * float(r_final @ theta.values) for theta, _, _ in tests]
    coeff_term = [0.0] * n_tests
    momentum_term = [0.0] * n_tests
    coeff_sq = [0.0] * len(clamps)
    dual_energy_sq = [0.0] * n_tests
    mom_sq = 0.0
    grad_psi_sq = [0.0] * n_tests

    for k in range(n_steps - 1, -1, -1):
        dt = times[k + 1] - times[k]
        rho_e = rho_eps_path[k]
        rho_t = rho_tilde_path[k]
        mom = momentum_path[k]
        r = rho_e - rho_t

        w_diff = rho_e ** alpha - rho_t ** alpha
        near = np.abs(r) < 1e-12
        denom = np.where(near, 1.0, r)
        a = np.where(near, alpha * rho_e ** (alpha - 1.0), w_diff / denom)
        a_c = np.clip(a, etas, caps)
        mismatch = (a - a_c) * r
        ratio = mismatch * mismatch / a_c
        for c in range(len(clamps)):
            coeff_sq[c] += dt * dx * float(ratio[c].sum())

        v = np.where(rho_e > max(rho_floor, 0.0), mom / rho_e, 0.0)
        flux = advective_face_flux(mom, v)[1:-1]
        mom_sq += dt * dx * float((flux * flux).sum())

        lap_psi = -np.diff(diffusive_face_flux(psi, dx, 1.0), axis=-1) / dx
        dpsi = np.diff(psi, axis=-1)
        a_n = a_c[clamp_of]
        energy = a_n * lap_psi * lap_psi
        dpsi_sq = dpsi * dpsi
        for i, c in enumerate(clamp_of):
            coeff_term[i] += dt * inv_alpha * dx * float(mismatch[c] @ lap_psi[i])
            dual_energy_sq[i] += dt * dx * float(energy[i].sum())
            momentum_term[i] += dt * float(flux @ dpsi[i])
            grad_psi_sq[i] += dt * dx * float(dpsi_sq[i].sum()) / (dx * dx)

        psi = psi + dt * inv_alpha * a_n * lap_psi

    r_initial = rho_eps_path[0] - rho_tilde_path[0]
    elapsed = times[-1] - times[0]
    out = []
    for i, (theta, eta, cap) in enumerate(tests):
        initial_term = dx * float(r_initial @ psi[i])
        identity_residual = abs(lhs[i] - initial_term - coeff_term[i] - momentum_term[i])
        bound = (abs(initial_term)
                 + inv_alpha * math.sqrt(coeff_sq[clamp_of[i]]) * math.sqrt(dual_energy_sq[i])
                 + math.sqrt(mom_sq) * math.sqrt(grad_psi_sq[i])
                 + identity_residual)
        grad_theta = lp_norm(derivative(theta), 2)
        if params.epsilon > 0.0 and elapsed > 0.0 and grad_theta > 0.0:
            measured_c = bound / (grad_theta * math.sqrt(params.epsilon * elapsed))
        else:
            measured_c = math.nan
        out.append({"eta": eta, "cap": cap, "lhs": lhs[i], "rhs_coeff_term": coeff_term[i],
                    "rhs_momentum_term": momentum_term[i], "initial_term": initial_term,
                    "bound": bound, "identity_residual": identity_residual,
                    "measured_c": measured_c, "theta": theta.values.tolist()})
    return out


def full_rows(path):
    """The (steps+1, n) array of a WindowedPath's stored rows."""
    out = np.empty(path.shape)
    for k in range(path.shape[0]):
        lo, values, vacuum = path.window(k)
        out[k] = vacuum
        out[k, lo:lo + values.size] = values
    return out


def whole_rows(array):
    """A WindowedPath whose rows are the rows of a (steps+1, n) array, each
    stored as a window over the whole grid with vacuum 0.0."""
    return WindowedPath(array.shape[-1], [(0, row, 0.0) for row in array])


def quotient(rho_e, rho_t, alpha):
    """The coefficient a of every step, as both passes compute it."""
    r = rho_e - rho_t
    near = np.abs(r) < 1e-12
    return np.where(near, alpha * rho_e ** (alpha - 1.0),
                    (rho_e ** alpha - rho_t ** alpha) / np.where(near, 1.0, r))


def clamp_windows(a):
    """Clamp windows on the coefficient rows a[:-1] that the backward march
    reads: one that binds on no step unless a reaches zero, one that binds on
    every step, and one that binds only on the steps whose maximum exceeds
    the median step maximum."""
    marched = a[:-1]
    low = float(marched.min())
    eta = 0.5 * low if low > 0.0 else 1e-300
    cap = max(2.0 * float(marched.max()), 1.0)
    median = float(np.median(marched.max(axis=1)))
    return {"never": (eta, cap), "always": (cap, 2.0 * cap),
            "some": (eta, median) if median > eta else (eta, cap)}


def assert_matches_reference(certs, ref):
    assert len(certs) == len(ref)
    for cert, expected in zip(certs, ref):
        doc = cert.to_dict()
        for name in FLOAT_FIELDS:
            assert struct.pack("<d", doc[name]) == struct.pack("<d", expected[name]), name
        assert doc["theta"] == expected["theta"]
        assert set(doc) == {*FLOAT_FIELDS, "theta", "grid"}


@st.composite
def stored_paths(draw):
    """(grid, times, rho_eps rows, rho_tilde rows, momentum rows, floor):
    stored (lo, values, vacuum) rows whose windows are empty, interior, touch
    a boundary or cover the grid, with amplitudes that vary from step to step.
    The march spans one to three blocks of the pass.  Each example draws the
    window kinds its rows may take, and a band that holds its interior
    windows, so that a block's union span also touches one boundary only or
    neither."""
    n = draw(st.integers(32, 64))
    steps = draw(st.integers(1, 2 * _BLOCK + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    floor = draw(st.sampled_from([0.0, 1e-3]))
    tilde_vacuum = draw(st.sampled_from([floor, 0.0, 2e-3]))
    mom_vacuum = draw(st.sampled_from([0.0, -0.0, 0.25]))
    kinds = draw(st.lists(st.sampled_from(["empty", "interior", "left", "right", "whole"]),
                          min_size=1, max_size=5, unique=True))
    band_lo = draw(st.integers(1, n - 2))
    band_hi = draw(st.integers(band_lo + 1, n - 1))

    def row(vacuum, low, high):
        kind = draw(st.sampled_from(kinds))
        if kind == "empty":
            return draw(st.integers(0, n)), np.empty(0), vacuum
        if kind == "whole":
            return 0, rng.uniform(low, high, n), vacuum
        if kind == "interior":
            width = draw(st.integers(1, band_hi - band_lo))
            lo = draw(st.integers(band_lo, band_hi - width))
        else:
            width = draw(st.integers(1, n // 2))
            lo = 0 if kind == "left" else n - width
        return lo, rng.uniform(low, high, width), vacuum

    rho_eps, rho_tilde, momentum = [], [], []
    for _ in range(steps + 1):
        scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
        rho_eps.append(row(floor, 1e-3, scale))
        # a limit row equal to the flow's makes r vanish on every cell
        same = draw(st.booleans())
        rho_tilde.append(rho_eps[-1] if same else row(tilde_vacuum, 1e-3, scale))
        momentum.append(row(mom_vacuum, -1.0, 1.0))
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-4, 1e-3, steps))))
    return Grid(-8.0, 8.0, n), times, rho_eps, rho_tilde, momentum, floor


@settings(max_examples=150, deadline=None)
@given(paths=stored_paths(),
       picks=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["never", "always", "some"])),
                      min_size=1, max_size=4),
       windowed=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       alpha=st.sampled_from([1.25, 2.0, 3.0]))
def test_dual_certificate_matches_reference(paths, picks, windowed, alpha):
    grid, times, *rows, floor = paths
    stored = [WindowedPath(grid.n_cells, r) for r in rows]
    full = [full_rows(path) for path in stored]
    params = PhysParams(alpha=alpha, epsilon=1e-2)
    windows = clamp_windows(quotient(full[0], full[1], alpha))
    theta = bump_test_function(grid, -1.0, 2.0)
    # test 2's theta is a bit-equal copy of test 0's, so the two share a row
    thetas = [theta, bump_test_function(grid, 1.0, 1.5), Field(grid, theta.values.copy())]
    tests = [(thetas[t], *windows[kind]) for t, kind in picks]
    ref = reference_dual_certificate(times, *full, tests, params, floor)
    whole = [whole_rows(f) for f in full]
    mixed = [s if w else f for s, f, w in zip(stored, whole, windowed)]
    for given_paths in (stored, whole, mixed):
        assert_matches_reference(
            dual_certificate(times, *given_paths, tests, params, rho_floor=floor), ref)


def test_rows_split_mid_march_match_reference():
    # two tests of one theta share a row while neither clamp binds; the
    # tight clamp binds on the late steps only, which the backward march
    # meets first, and on no early step, so the rows split and stay split
    grid = Grid(-8.0, 8.0, 64)
    params = PhysParams(alpha=2.0, epsilon=1e-2)
    x = grid.centers
    steps = 12
    rho_eps = [np.maximum(1.0 - np.abs(x) / (1.0 + 0.1 * k), 0.0) * (1.0 + 0.2 * k) + 1e-3
               for k in range(steps + 1)]
    rho_tilde = [0.9 * rho + 1e-4 for rho in rho_eps]
    rows = (rho_eps, rho_tilde, [np.zeros(grid.n_cells)] * (steps + 1))
    full = [np.vstack(path) for path in rows]
    stored = [whole_rows(path) for path in full]
    a = quotient(full[0], full[1], params.alpha)
    cap = float(a[steps // 2].max())
    binds = a[:-1].max(axis=1) > cap
    assert binds.any() and not binds.all()
    theta = bump_test_function(grid, 0.0, 2.0)
    tests = [(theta, 1e-6, 1e3), (theta, 1e-6, cap)]
    times = 2e-4 * np.arange(steps + 1)
    ref = reference_dual_certificate(times, *full, tests, params, 0.0)
    assert ref[0]["rhs_coeff_term"] == 0.0 != ref[1]["rhs_coeff_term"]
    assert_matches_reference(dual_certificate(times, *stored, tests, params), ref)


@pytest.mark.parametrize("first_binding", [_BLOCK - 1, _BLOCK, _BLOCK + _BLOCK // 2],
                         ids=["first-walked-step-of-a-block", "last-walked-step-of-a-block",
                              "inside-a-block"])
def test_rows_split_at_and_inside_a_block_match_reference(first_binding):
    # the density peak falls in time, so the tight clamp binds on the steps up
    # to first_binding and on no later one: the backward march, which walks
    # each block from its last step to its first, meets it first at
    # first_binding, where the two tests' shared row splits
    grid = Grid(-8.0, 8.0, 64)
    params = PhysParams(alpha=2.0, epsilon=1e-2)
    x = grid.centers
    steps = 2 * _BLOCK + 3
    rho_eps = [np.maximum(1.0 - np.abs(x) / (1.0 + 0.02 * k), 0.0)
               * (1.0 + 0.05 * (steps - k)) + 1e-3 for k in range(steps + 1)]
    rho_tilde = [0.9 * rho + 1e-4 for rho in rho_eps]
    rows = (rho_eps, rho_tilde, [np.zeros(grid.n_cells)] * (steps + 1))
    full = [np.vstack(path) for path in rows]
    stored = [whole_rows(path) for path in full]
    peaks = quotient(full[0], full[1], params.alpha)[:-1].max(axis=1)
    cap = 0.5 * float(peaks[first_binding] + peaks[first_binding + 1])
    assert ((peaks > cap) == (np.arange(steps) <= first_binding)).all()
    theta = bump_test_function(grid, 0.0, 2.0)
    tests = [(theta, 1e-6, 1e3), (theta, 1e-6, cap)]
    times = 2e-4 * np.arange(steps + 1)
    ref = reference_dual_certificate(times, *full, tests, params, 0.0)
    assert ref[0]["rhs_coeff_term"] == 0.0 != ref[1]["rhs_coeff_term"]
    assert_matches_reference(dual_certificate(times, *stored, tests, params), ref)


def test_blown_up_march_carries_nan_like_reference():
    # dt far above the stability limit overflows psi within the march; the
    # coefficient pairing of a test whose clamp never binds must then turn
    # NaN as the reference's does, not stay zero
    grid = Grid(-8.0, 8.0, 64)
    params = PhysParams(alpha=2.0, epsilon=1e-2)
    steps = 2 * _BLOCK + 3
    rho = np.maximum(1.0 - np.abs(grid.centers) / 2.0, 0.0) + 1e-3
    full = [np.vstack([rho] * (steps + 1)), np.vstack([0.9 * rho] * (steps + 1)),
            np.zeros((steps + 1, grid.n_cells))]
    theta = bump_test_function(grid, 0.0, 2.0)
    tests = [(theta, 1e-6, 1e3), (theta, 1e-6, 1e-1)]
    times = 1e8 * np.arange(steps + 1)
    with np.errstate(all="ignore"):
        ref = reference_dual_certificate(times, *full, tests, params, 0.0)
        certs = dual_certificate(times, *[whole_rows(f) for f in full], tests, params)
    assert math.isnan(ref[0]["rhs_coeff_term"])
    for cert, expected in zip(certs, ref):
        for name in FLOAT_FIELDS:
            value = getattr(cert, name)
            # a NaN's sign bit follows the signs of the zeros it came from
            assert (math.isnan(value) and math.isnan(expected[name])) or struct.pack(
                "<d", value) == struct.pack("<d", expected[name]), name
