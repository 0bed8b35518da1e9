"""Coefficient paths, admissibility audits and the equicontinuity bound."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kirchhofflab
from kirchhofflab import coefficient, floattext
from kirchhofflab import (
    AdmissibleClass,
    CoefficientPath,
    OscillatingSpeed,
    check_admissibility,
    equicontinuity_gap,
    graded_grid,
    sup_distance,
    uniform_grid,
)


def line_path(t_end, slope, intercept=1.0, n=10):
    t = np.linspace(0.0, t_end, n)
    return CoefficientPath(t, intercept + slope * t)


class TestCoefficientPath:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            CoefficientPath([0.0], [1.0])  # too short
        with pytest.raises(ValueError):
            CoefficientPath([0.1, 0.2], [1.0, 1.0])  # must start at zero
        with pytest.raises(ValueError):
            CoefficientPath([0.0, 0.0], [1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            CoefficientPath([0.0, 1.0], [1.0, np.inf])

    def test_interpolation_and_domain(self):
        p = line_path(1.0, 2.0)
        assert p.evaluate(0.25) == pytest.approx(1.5, rel=1e-15)
        got = p.evaluate(np.array([0.0, 1.0]))
        assert np.allclose(got, [1.0, 3.0])
        with pytest.raises(ValueError):
            p.evaluate(1.5)
        with pytest.raises(ValueError):
            p.evaluate(-0.1)

    def test_slope_left_limit(self):
        t = np.array([0.0, 0.5, 1.0])
        p = CoefficientPath(t, np.array([1.0, 2.0, 2.0]))
        assert p.slope(0.25) == pytest.approx(2.0)
        assert p.slope(0.75) == pytest.approx(0.0)
        # at the breakpoint the left interval wins
        assert p.slope(0.5) == pytest.approx(2.0)
        assert p.slope(0.0) == pytest.approx(2.0)
        assert p.slope(1.0) == pytest.approx(0.0)

    def test_csv_round_trip(self, tmp_path):
        speed = OscillatingSpeed(q=1.5, T=1.0)
        p = speed.sample(graded_grid(1.0, 0.01, 0.9, 1e-6))
        f = tmp_path / "path.csv"
        p.to_csv(f)
        q = CoefficientPath.from_csv(f)
        assert np.array_equal(p.times, q.times)
        assert np.array_equal(p.values, q.values)

    def test_csv_bytes_match_row_join(self, tmp_path):
        # the shared CSV writer against the row join to_csv used before it;
        # 1203 rows cross a 1024-row block boundary
        t = np.concatenate(([0.0, 5e-324, 1e-300], np.linspace(0.5, 2.0, 1199), [1e300]))
        c = np.resize([1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, -0.0, 0.0, 1 / 3], t.size)
        p = CoefficientPath(t, c)
        f = tmp_path / "path.csv"
        p.to_csv(f)
        rows = map(",".join, zip(map(repr, t.tolist()), map(repr, c.tolist())))
        assert f.read_bytes() == ("\n".join(["t,c", *rows]) + "\n").encode()
        q = CoefficientPath.from_csv(f)
        assert np.array_equal(q.values, c) and np.array_equal(np.signbit(q.values), np.signbit(c))


def written(values) -> list[str]:
    """The text floattext writes for each of ``values``."""
    cells = floattext.repr_cells(np.asarray(values, dtype=float))
    return cells.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestReprCells:
    """Every cell is repr(float(x)), byte for byte: repr is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern_is_written_as_repr(self, patterns):
        x = np.array(patterns, dtype=np.uint64).view(np.float64)  # NaN payloads, subnormals
        assert written(x) == reprs(x)

    def test_every_power_of_two_and_its_neighbours(self):
        x = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
        assert written(x) == reprs(x) and written(-x) == reprs(-x)

    def test_every_power_of_ten_and_its_neighbours(self):
        x = with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
        assert written(x) == reprs(x) and written(-x) == reprs(-x)

    def test_integers_up_to_two_to_the_53(self):
        rng = np.random.default_rng(27)
        edges = np.ldexp(1.0, np.arange(54))[:, None] + np.arange(-3.0, 4.0)
        x = np.concatenate([np.arange(100001.0), edges.ravel(), rng.integers(0, 2**53, 10000)])
        x = x[x <= 2.0**53]
        assert written(x) == reprs(x)

    def test_layout_edges_zeros_and_infinities(self):
        x = [9999999999999998.0, 1e16, 1e-4, 1e-5, 0.5, 5e-324, 1.5e-5, 123456789012345680.0,
             1e22, 1e23, 0.1, -0.0, 0.0, np.inf, -np.inf, np.nan]
        assert written(x) == reprs(x)
        assert written([1e16, 1e-4, 1e-5, -0.0]) == ["1e+16", "0.0001", "1e-05", "-0.0"]

    def test_the_fallback_alone_writes_the_same_text(self, monkeypatch):
        rng = np.random.default_rng(7)
        usual = rng.standard_normal(4000) * 10.0 ** rng.integers(-12, 12, 4000)
        x = np.concatenate([usual, np.arange(-50.0, 50.0) / 8,
                            rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)])
        fast = written(x)
        digits = floattext._digits
        assert digits(usual, floattext._tables[0])[2].all()  # the fast path is taken

        def uncertified(x, scales):
            d, k, _, sign = digits(x, scales)
            return d, k, np.zeros(x.shape, bool), sign

        monkeypatch.setattr(floattext, "_digits", uncertified)
        assert written(x) == fast == reprs(x)

    def test_importing_the_package_builds_no_table(self):
        code = """
import sys
import kirchhofflab
from kirchhofflab import floattext
assert floattext._tables is None
assert not {"decimal", "fractions"} & set(sys.modules)
floattext.repr_cells([0.5])
assert floattext._tables is not None
"""
        src = str(Path(kirchhofflab.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                       timeout=60, check=True)


def row_join(header, columns) -> bytes:
    """The CSV text of ``columns`` by the row join the writer replaces."""
    cells = [map(str if np.issubdtype(np.asarray(c).dtype, np.integer) else repr,
                 np.asarray(c).tolist()) for c in columns]
    return ("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n").encode()


BLOCK = coefficient._CSV_BLOCK


class TestCsvWriter:
    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_any_number_of_rows_matches_the_row_join(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = [np.linspace(0.0, 1.0, rows),
                   rng.standard_normal(rows) * 10.0 ** rng.integers(-12, 20, rows), np.arange(rows)]
        coefficient._write_files([(tmp_path / "a.csv", ["t", "v", "i"], columns)])
        assert (tmp_path / "a.csv").read_bytes() == row_join(["t", "v", "i"], columns)

    def test_integer_and_float_columns_like_distances(self, tmp_path):
        distances = np.array([0.12, 3.4e-5, 1.1e-9, 2.0e-13, 0.0])
        columns = [np.arange(1, 6), distances]
        coefficient._write_files([(tmp_path / "d.csv", ["iteration", "distance"], columns)])
        text = (tmp_path / "d.csv").read_bytes()
        assert text == row_join(["iteration", "distance"], columns)
        assert text.splitlines()[1:3] == [b"1,0.12", b"2,3.4e-05"]

    def test_a_shared_column_reads_the_same_in_every_file_of_a_group(self, tmp_path):
        rows = 2 * coefficient._CSV_BLOCK + 5
        t = np.linspace(0.0, 2.0, rows)
        a, b = np.sin(7.0 * t), np.exp(-t) * 1e-6
        files = [(tmp_path / f"{k}.csv", ["t", k], [t, c]) for k, c in (("a", a), ("b", b))]
        coefficient._write_files([*files, (tmp_path / "r.json", None, "{}\n")])
        for path, header, columns in files:
            assert path.read_bytes() == row_join(header, columns)
        assert (tmp_path / "r.json").read_text() == "{}\n"


class TestCheckAdmissibility:
    def test_constant_path_passes(self):
        cls = AdmissibleClass(q=1.5, M=2.0, K0=1.0, T=1.0)
        p = CoefficientPath.constant(1.0, np.linspace(0.0, 0.9, 10))
        rep = check_admissibility(p, cls, tol=0.0)
        assert rep.passed and rep.slope_ok and rep.bounds_ok
        assert rep.worst_slope_margin > 0.0

    def test_steep_path_fails_near_zero(self):
        # slope 1 against envelope 0.01/(1-t)^1.5, which is ~0.01 early on
        cls = AdmissibleClass(q=1.5, M=2.0, K0=0.01, T=1.0)
        p = line_path(0.9, 1.0)
        rep = check_admissibility(p, cls, tol=0.0)
        assert not rep.passed and not rep.slope_ok
        assert rep.worst_slope_margin < 0.0
        assert rep.worst_slope_time < 0.2

    def test_oscillating_speed_is_admissible(self):
        speed = OscillatingSpeed(q=1.5, T=1.0, amplitude=0.1, offset=2.0)
        grid = graded_grid(1.0, 5e-4, 0.9, 1e-9)
        p = speed.sample(grid)
        cls = AdmissibleClass(q=1.5, M=1.3, K0=0.1, T=1.0)
        rep = check_admissibility(p, cls, tol=0.0)
        assert rep.passed, rep
        assert speed.value_max == pytest.approx(1.3)
        assert speed.value_min == pytest.approx(1.1)

    def test_oscillating_speed_derivative_formula(self):
        # independent check: centered difference of the closed form
        speed = OscillatingSpeed(q=1.5, T=1.0, amplitude=0.1, offset=2.0)
        h = 1e-7
        for t in (0.1, 0.5, 0.8):
            fd = (speed(t + h) - speed(t - h)) / (2 * h)
            assert speed.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_envelope_saturation_stays_below_right_endpoint_bound(self):
        # |c(b)-c(a)|/(b-a) = |c'(xi)| <= K0/(T-xi)^q <= K0/(T-b)^q
        speed = OscillatingSpeed(q=1.5, T=1.0, amplitude=0.1, offset=2.0)
        grid = uniform_grid(0.99, 500)
        p = speed.sample(grid)
        slopes = np.abs(p.interval_slopes())
        envelope = 0.1 / (1.0 - p.times[1:]) ** 1.5
        assert np.all(slopes <= envelope * (1 + 1e-12))

    def test_domain_errors(self):
        cls = AdmissibleClass(q=1.5, M=2.0, K0=1.0, T=0.5)
        p = line_path(0.9, 0.0)
        with pytest.raises(ValueError):
            check_admissibility(p, cls)
        with pytest.raises(ValueError):
            check_admissibility(line_path(0.4, 0.0), cls, tol=-1.0)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            check_admissibility(line_path(0.4, 0.0), cls, tol=float("nan"))

    def test_class_validation(self):
        with pytest.raises(ValueError):
            AdmissibleClass(q=1.0, M=2.0, K0=1.0, T=1.0)
        with pytest.raises(ValueError):
            AdmissibleClass(q=1.5, M=0.5, K0=1.0, T=1.0, m0=1.0)
        with pytest.raises(ValueError):
            AdmissibleClass(q=1.5, M=2.0, K0=-1.0, T=1.0)


class TestEquicontinuityGap:
    def test_coincident_times(self):
        cls = AdmissibleClass(q=2.0, M=2.0, K0=1.0, T=1.0)
        assert equicontinuity_gap(cls, 0.3, 0.3) == 0.0

    def test_reference_value(self):
        # K0/(q-1) * (1/(T-t2)^(q-1) - 1/(T-t1)^(q-1)) = 1*(2 - 1)
        cls = AdmissibleClass(q=2.0, M=2.0, K0=1.0, T=1.0)
        assert equicontinuity_gap(cls, 0.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_zero_slope_scale(self):
        cls = AdmissibleClass(q=2.0, M=2.0, K0=0.0, T=1.0)
        assert equicontinuity_gap(cls, 0.1, 0.9) == 0.0

    def test_domain_errors(self):
        cls = AdmissibleClass(q=2.0, M=2.0, K0=1.0, T=1.0)
        with pytest.raises(ValueError):
            equicontinuity_gap(cls, 0.0, 1.0)
        with pytest.raises(ValueError):
            equicontinuity_gap(cls, 0.5, 0.4)

    def test_nonnegative_and_additive(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = float(rng.uniform(1.1, 2.5))
            cls = AdmissibleClass(q=q, M=2.0, K0=float(rng.uniform(0.0, 2.0)), T=1.0)
            t1, t2, t3 = np.sort(rng.uniform(0.0, 0.99, size=3))
            g12 = equicontinuity_gap(cls, t1, t2)
            g23 = equicontinuity_gap(cls, t2, t3)
            g13 = equicontinuity_gap(cls, t1, t3)
            assert g12 >= 0.0 and g23 >= 0.0
            assert g13 == pytest.approx(g12 + g23, rel=1e-10, abs=1e-14)

    def test_bounds_sampled_oscillation(self):
        # a path satisfying the envelope can never move more than the gap
        speed = OscillatingSpeed(q=1.5, T=1.0, amplitude=0.1, offset=2.0)
        cls = AdmissibleClass(q=1.5, M=1.3, K0=0.1, T=1.0)
        grid = graded_grid(1.0, 2e-3, 0.9, 1e-6)
        p = speed.sample(grid)
        idx = np.arange(0, grid.size, 7)
        for i in idx[::4]:
            for j in idx[idx > i][::4]:
                gap = equicontinuity_gap(cls, grid[i], grid[j])
                assert abs(p.values[j] - p.values[i]) <= gap + 1e-12


class TestSupDistance:
    def test_identical_paths(self):
        p = line_path(1.0, 0.3)
        assert sup_distance(p, p, 0.0, 1.0) == 0.0

    def test_constant_gap(self):
        a = CoefficientPath.constant(1.0, np.linspace(0.0, 1.0, 5))
        b = CoefficientPath.constant(1.5, np.linspace(0.0, 1.0, 9))
        assert sup_distance(a, b, 0.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_linear_gap_max_at_right_end(self):
        a = line_path(0.5, 1.0)
        b = CoefficientPath.constant(1.0, np.linspace(0.0, 0.5, 3))
        assert sup_distance(a, b, 0.0, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_domain_mismatch(self):
        a = line_path(0.5, 1.0)
        b = line_path(1.0, 1.0)
        with pytest.raises(ValueError):
            sup_distance(a, b, 0.0, 0.8)


class TestGrids:
    def test_uniform(self):
        g = uniform_grid(2.0, 4)
        assert np.allclose(g, [0.0, 0.5, 1.0, 1.5, 2.0])
        with pytest.raises(ValueError):
            uniform_grid(1.0, 0)

    def test_graded_shrinks_toward_horizon(self):
        g = graded_grid(1.0, 0.01, grading_ratio=0.9, end_gap=1e-8)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1.0 - 1e-8)
        steps = np.diff(g)
        assert np.all(steps > 0.0)
        assert np.max(steps) <= 0.01 + 1e-15
        # refinement region: steps shrink below a tenth of the base step
        assert steps[-1] < 1e-3

    def test_graded_validation(self):
        with pytest.raises(ValueError):
            graded_grid(1.0, 0.01, grading_ratio=1.0)
        with pytest.raises(ValueError):
            graded_grid(1.0, 0.01, end_gap=2.0)
        with pytest.raises(ValueError, match="resolution"):
            graded_grid(1.0, 1e-3, 0.9, 1e-17)  # horizon - end_gap == horizon

    def test_graded_ends_below_double_spacing(self):
        # Near the horizon the graded step falls below the spacing of doubles;
        # the grid must still end.  Run in a child process under a time bound,
        # so a regression fails instead of hanging the suite.
        code = """
import numpy as np
from kirchhofflab.coefficient import graded_grid
rng = np.random.default_rng(0)
cases = [(1.0, 1e-3, 0.99, 1e-15), (3.0, 1e-3, 0.9, 4e-16)]
for _ in range(40):
    horizon = float(rng.uniform(0.1, 2.0))
    cases.append((horizon, 1e-3, float(rng.uniform(0.5, 0.995)),
                  horizon * 10.0 ** float(rng.uniform(-17.0, -1.0))))
for horizon, base, ratio, gap in cases:
    try:
        g = graded_grid(horizon, base, ratio, gap)
    except ValueError:
        assert horizon - gap == horizon, (horizon, gap)
        continue
    assert np.all(np.diff(g) > 0.0) and g[-1] == horizon - gap < horizon
"""
        src = str(Path(kirchhofflab.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=True,
        )
