import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hicomp.grid import (
    Field,
    Grid,
    _embed,
    antiderivative,
    atomic_open,
    derivative,
    integrate,
    lp_norm,
    read_field_csv,
    write_csv,
    write_field_csv,
)
from reference import constant_field, field_from_function


class TestMakeGrid:
    def test_unit_spacing(self):
        g = Grid(-8.0, 8.0, 16)
        assert g.dx == 1.0
        assert g.centers[0] == -7.5
        assert g.centers[-1] == 7.5

    def test_quarter_spacing(self):
        assert Grid(0.0, 1.0, 4).dx == 0.25

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            Grid(1.0, 0.0, 8)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError, match="n_cells"):
            Grid(0.0, 1.0, 3)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Grid(0.0, math.inf, 8)

    def test_centers_formula(self):
        g = Grid(0.0, 1.0, 5)
        assert np.allclose(g.centers, 0.0 + (np.arange(5) + 0.5) * 0.2)


class TestField:
    def test_length_mismatch_rejected(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="cells"):
            Field(g, np.zeros(5))

    def test_nonfinite_rejected(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, np.array([0.0, 1.0, np.nan, 0.0]))


class TestDerivative:
    def test_constant_is_zero(self):
        g = Grid(-2.0, 2.0, 32)
        d = derivative(constant_field(g, 3.7))
        assert np.all(d.values == 0.0)

    def test_linear_is_exact(self):
        g = Grid(-2.0, 2.0, 32)
        d = derivative(field_from_function(g, lambda x: x))
        assert np.allclose(d.values, 1.0, rtol=0, atol=1e-13)

    def test_quadratic_exact_everywhere(self):
        # central differences are exact on quadratics; so are the one-sided
        # second-order boundary stencils
        g = Grid(0.0, 2.0, 8)
        assert g.dx == 0.25
        d = derivative(field_from_function(g, lambda x: x**2))
        assert np.allclose(d.values, 2.0 * g.centers, rtol=0, atol=1e-12)


class TestIntegrate:
    def test_unit_constant(self):
        assert integrate(constant_field(Grid(0.0, 1.0, 4), 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert integrate(constant_field(Grid(0.0, 1.0, 4), 0.0)) == 0.0

    def test_tent_area_aligned(self):
        # kinks on cell edges: the midpoint rule is exact on piecewise-linear data
        g = Grid(-2.0, 2.0, 16)
        tent = field_from_function(g, lambda x: np.maximum(1.0 - np.abs(x), 0.0))
        assert integrate(tent) == pytest.approx(1.0, abs=1e-14)

    def test_tent_area_unaligned(self):
        g = Grid(-2.1, 2.3, 200)
        tent = field_from_function(g, lambda x: np.maximum(1.0 - np.abs(x), 0.0))
        assert integrate(tent) == pytest.approx(1.0, abs=g.dx**2)


class TestAntiderivative:
    def test_zero(self):
        g = Grid(0.0, 1.0, 4)
        assert np.all(antiderivative(constant_field(g, 0.0)).values == 0.0)

    def test_unit_cumsum(self):
        g = Grid(0.0, 1.0, 4)
        phi = antiderivative(constant_field(g, 1.0))
        assert np.allclose(phi.values, [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)

    def test_recovers_bump_from_analytic_derivative(self):
        # fundamental theorem: cumulative midpoint sums of g' reproduce g at
        # the right cell edges to second order, and return to ~0 at the end
        g = Grid(-4.0, 4.0, 400)

        def bump(x):
            return np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 2, 0.0)

        def dbump(x):
            return np.where(np.abs(x) < 1.0,
                            -np.pi / 2.0 * np.sin(np.pi * x), 0.0)

        phi = antiderivative(field_from_function(g, dbump))
        expected = bump(g.centers + g.dx / 2.0)
        assert np.max(np.abs(phi.values - expected)) < 5.0 * g.dx**2
        assert abs(phi.values[-1]) < g.dx**2

    def test_last_entry_equals_integral(self):
        g = Grid(-1.0, 3.0, 37)
        rng = np.random.default_rng(7)
        f = Field(g, rng.normal(size=37))
        assert antiderivative(f).values[-1] == pytest.approx(integrate(f), rel=1e-14)


class TestLpNorm:
    def test_unit_constant_l2(self):
        assert lp_norm(constant_field(Grid(0.0, 1.0, 4), 1.0), 2) == pytest.approx(1.0)

    def test_zero_any_p(self):
        g = Grid(0.0, 1.0, 4)
        for p in (1, 2, 3.5, math.inf):
            assert lp_norm(constant_field(g, 0.0), p) == 0.0

    def test_linear_l2_analytic(self):
        # integral of x^2 on (0,1) is 1/3; midpoint rule is short by dx^2/12
        g = Grid(0.0, 1.0, 1000)
        val = lp_norm(field_from_function(g, lambda x: x), 2)
        assert abs(val - math.sqrt(1.0 / 3.0)) < g.dx**2

    def test_max_norm(self):
        g = Grid(0.0, 1.0, 4)
        f = Field(g, np.array([1.0, -5.0, 2.0, 0.0]))
        assert lp_norm(f, math.inf) == 5.0

    def test_p_below_one_rejected(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(constant_field(g, 1.0), 0.5)

    def test_nan_p_rejected(self):
        g = Grid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match=r"^p must be >= 1 or inf, got nan$"):
            lp_norm(constant_field(g, 1.0), math.nan)

    @pytest.mark.parametrize("c", [-3.0, 0.5, 2.0, 1e6])
    def test_absolute_homogeneity(self, c):
        g = Grid(-1.0, 1.0, 64)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=64)
        for p in (1, 2, 4, math.inf):
            base = lp_norm(Field(g, vals), p)
            scaled = lp_norm(Field(g, c * vals), p)
            assert scaled == pytest.approx(abs(c) * base, rel=1e-13)


class TestEmbed:
    @pytest.mark.parametrize("lo", [0, 3, 7])   # at lo = 7 the span ends at the grid's end
    def test_scalar_fill(self, lo):
        values = np.array([1.0, -0.0, 2.5, 3.0, 4.0])
        row = _embed(values, lo, 12, -0.5)
        expected = np.full(12, -0.5)
        expected[lo:lo + 5] = values
        assert row.shape == (12,)
        assert np.array_equal(row.view(np.uint64), expected.view(np.uint64))

    def test_column_fill_gives_each_row_its_own(self):
        values = np.arange(6.0).reshape(2, 3)
        rows = _embed(values, 2, 8, np.array([[7.0], [9.0]]))
        expected = np.array([[7.0, 7.0, 0.0, 1.0, 2.0, 7.0, 7.0, 7.0],
                             [9.0, 9.0, 3.0, 4.0, 5.0, 9.0, 9.0, 9.0]])
        assert np.array_equal(rows, expected)

    def test_result_is_a_fresh_array(self):
        values = np.ones((2, 4))
        rows = _embed(values, 0, 4, 0.0)   # the span is the whole grid
        assert not np.shares_memory(rows, values)
        rows[0, 0] = 5.0
        assert values[0, 0] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 3), size=st.integers(1, 600))
    def test_sum_matches_a_zero_filled_row(self, data, n_rows, size):
        # pairwise summation depends on position and length; an embedded row
        # must sum as the full-length row a windowed result stands for
        lo = data.draw(st.integers(0, size - 1))
        span = data.draw(st.integers(0, size - lo))
        values = data.draw(arrays(np.float64, (n_rows, span),
                                  elements=st.floats(-1e12, 1e12)))
        expected = np.zeros((n_rows, size))
        expected[:, lo:lo + span] = values
        sums = _embed(values, lo, size, 0.0).sum(axis=-1)
        assert np.array_equal(sums.view(np.uint64), expected.sum(axis=-1).view(np.uint64))
        assert _embed(values[0], lo, size, 0.0).sum().hex() == expected[0].sum().hex()


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        g = Grid(-1.0, 2.0, 8)
        rng = np.random.default_rng(3)
        f = Field(g, rng.normal(size=8) * 1e-7)
        path = tmp_path / "field.csv"
        write_field_csv(f, path, header_comments=("config_hash=deadbeef",))
        back = read_field_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_round_trip_keeps_inexact_grid(self, tmp_path):
        # x[-1] + dx/2 rounds to 7.099999999999999, so the grid must come
        # from the header, not from the cell centers
        g = Grid(-3.3, 7.1, 777)
        path = tmp_path / "field.csv"
        write_field_csv(Field(g, np.ones(777)), path)
        assert read_field_csv(path).grid == g

    def test_headerless_file_read_from_centers(self, tmp_path):
        g = Grid(-1.0, 2.0, 8)
        path = tmp_path / "field.csv"
        path.write_text("x,value\n" + "".join(f"{x!r},1.0\n" for x in g.centers.tolist()))
        assert read_field_csv(path).grid == g

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,value\n0.5,1\n1.5,1\n2.5,1\n4.0,1\n")
        with pytest.raises(ValueError, match="uniform"):
            read_field_csv(path)

    def test_x_column_must_match_header_grid(self, tmp_path):
        g = Grid(0.0, 4.0, 4)
        path = tmp_path / "field.csv"
        write_field_csv(Field(g, np.ones(4)), path)
        text = path.read_text().replace("n_cells=4", "n_cells=5")
        path.write_text(text)
        with pytest.raises(ValueError, match="cell centers"):
            read_field_csv(path)


@st.composite
def random_fields(draw):
    x_min = draw(st.floats(-1e6, 1e6 - 1e-2))
    x_max = draw(st.floats(x_min + 1e-3, 1e6))
    n_cells = draw(st.integers(4, 512))
    values = draw(arrays(np.float64, n_cells,
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Field(Grid(x_min, x_max, n_cells), values)


class TestCsvRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(random_fields())
    def test_random_grid_round_trips_bit_exactly(self, f):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.csv"
            write_field_csv(f, path)
            back = read_field_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


class TestWriteCsv:
    ROWS = [
        (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308),
        (1.0, -2.0, 3.0, 1e16, 2.0**53, 0.1),
        (np.float64(-0.0), np.float64(5e-324), np.float64(1e308),
         np.float64(7.0), 0.30000000000000004, np.float64(1 / 3)),
        tuple(np.random.default_rng(5).normal(size=6) * 1e-7),
    ]

    def test_rows_match_the_per_number_join(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, tuple("abcdef"), self.ROWS, ("note",))
        expected = "# note\na,b,c,d,e,f\n" + "".join(
            ",".join("%.17g" % x for x in row) + "\n" for row in self.ROWS)
        assert path.read_text() == expected

    @pytest.mark.parametrize("width", [5, 7])
    def test_row_of_wrong_length_raises_and_leaves_no_file(self, tmp_path, width):
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError):
            write_csv(path, tuple("abcdef"), [self.ROWS[0], (1.0,) * width])
        assert list(tmp_path.iterdir()) == []


class TestAtomicOpen:
    def test_failure_midway_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_open(path) as fh:
                fh.write("x,value\n")
                raise RuntimeError("midway")
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("new\n")
                raise RuntimeError("midway")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]
