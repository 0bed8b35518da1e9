"""Fixed-point iteration, direct oracle, image bounds and the continuity probe."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kirchhofflab import (
    AdmissibleClass,
    CoefficientPath,
    GevreyParams,
    HypothesisError,
    KirchhoffRun,
    ModeBasis,
    RangeOverflowError,
    SpectralState,
    StabilityError,
    check_hypotheses,
    check_induced_speed,
    data_radius,
    direct_oracle,
    dirichlet_energy,
    fixed_point_solve,
    hamiltonian,
    induced_slope_bound,
    induced_speed,
    k0_constant,
    perturbation_probe,
    sup_distance,
    uniform_grid,
)
from kirchhofflab.certificate import _M_MARGIN
from kirchhofflab.cli import _build_run
from kirchhofflab.linear import GUARD
from kirchhofflab.nonlinear import _induced
from kirchhofflab.scenario import load_scenario

from conftest import SCENARIO_DIR
from test_linear import march_in_order, sparse_sweep_cases

GP = GevreyParams(s=2.0, eta=2.0)


def make_run(amplitudes, velocities=None, n=None, horizon=1.0, steps=2000):
    n = n or len(amplitudes)
    basis = ModeBasis.interval_dirichlet(n)
    pos = np.zeros(n)
    pos[: len(amplitudes)] = amplitudes
    vel = np.zeros(n)
    if velocities is not None:
        vel[: len(velocities)] = velocities
    return KirchhoffRun(
        basis=basis,
        initial=SpectralState(basis, pos, vel),
        horizon=horizon,
        gevrey=GP,
        grid=uniform_grid(horizon, steps),
    )


def reference_oracle(run):
    """The coupled RK4 step, stage by stage; returns (V, W) of shape (modes, times)."""
    lam = run.basis.eigenvalues
    v, w = run.initial.position, run.initial.velocity
    V, W = [v], [w]

    def acc(pos):
        return -(1.0 + lam @ (pos * pos)) * (lam * pos)

    for h in np.diff(run.grid):
        k1v = w
        k1w = acc(v)
        k2v = w + 0.5 * h * k1w
        k2w = acc(v + 0.5 * h * k1v)
        k3v = w + 0.5 * h * k2w
        k3w = acc(v + 0.5 * h * k2v)
        k4v = w + h * k3w
        k4w = acc(v + h * k3v)
        v = v + (h / 6.0) * (k1v + 2.0 * (k2v + k3v) + k4v)
        w = w + (h / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w)
        V.append(v)
        W.append(w)
    return np.array(V).T, np.array(W).T


@st.composite
def oracle_cases(draw):
    """Small random data on a uniform or graded grid inside the stability guard."""
    n = draw(st.integers(1, 6))
    steps = draw(st.sampled_from([1, 2, 7, 40]))
    basis = ModeBasis.interval_dirichlet(n)
    # no subnormal data: their products lose the digits being compared
    # (test_subnormal_data_matches_reference covers that regime)
    unit = st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-6 else x)
    amp = draw(st.floats(0.0, 0.5).map(lambda x: 0.0 if x < 1e-6 else x))
    pos = amp * np.array(draw(st.lists(unit, min_size=n, max_size=n))) / basis.frequencies
    vel = amp * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    initial = SpectralState(basis, pos, vel)
    ceiling = math.sqrt(1.0 + 2.0 * hamiltonian(initial))
    h0 = draw(st.floats(1e-3, 1.0)) * GUARD / (ceiling * n)
    ratio = draw(st.sampled_from([1.0, 0.5, 0.9]))  # 1.0 is a uniform grid
    grid = np.concatenate(([0.0], np.cumsum(h0 * ratio ** np.arange(steps))))
    return KirchhoffRun(basis, initial, float(grid[-1]), GP, grid)


class TestInducedSpeed:
    def test_zero_data_maps_to_unit_speed(self):
        run = make_run([0.0, 0.0])
        coeff = CoefficientPath.constant(1.4, run.grid)
        out = induced_speed(coeff, run)
        assert np.all(out.values == 1.0)

    def test_frozen_speed_closed_form(self):
        # with constant speed c0 the first mode is a*cos(c0 t), so the induced
        # speed is sqrt(1 + a^2 cos^2(c0 t))
        a, c0 = 0.2, 1.3
        run = make_run([a], steps=4000)
        coeff = CoefficientPath.constant(c0, run.grid)
        out = induced_speed(coeff, run)
        expected = np.sqrt(1.0 + a**2 * np.cos(c0 * run.grid) ** 2)
        assert np.max(np.abs(out.values - expected)) < 1e-9

    def test_start_value_independent_of_speed(self):
        run = make_run([0.1, 0.05])
        d0 = dirichlet_energy(run.initial)
        for c0 in (1.0, 1.5, 2.0):
            out = induced_speed(CoefficientPath.constant(c0, run.grid), run)
            assert out.values[0] == pytest.approx(math.sqrt(1.0 + d0), rel=1e-15)


class TestFixedPointSolve:
    def test_zero_data_one_iteration(self):
        run = make_run([0.0, 0.0], steps=200)
        report = fixed_point_solve(run, tol=1e-10)
        assert report.converged and report.iterations == 1
        assert np.all(report.final_coeff.values == 1.0)
        assert np.all(report.final_solution.position == 0.0)

    def test_single_mode_matches_oracle(self):
        tol = 1e-10
        run = make_run([0.1], n=4, steps=2000)
        report = fixed_point_solve(run, tol=tol, max_iter=30)
        assert report.converged
        oracle = direct_oracle(run)
        gap = np.max(np.abs(report.final_coeff.values - oracle.induced_speed_series()))
        assert gap <= 10.0 * tol

    def test_two_mode_hamiltonian_drift(self):
        run = make_run([0.1, 0.07], velocities=[0.0, 0.02], n=4, steps=2000)
        report = fixed_point_solve(run, tol=1e-10, max_iter=30)
        assert report.converged
        ham = report.final_solution.hamiltonian_series()
        drift = np.max(np.abs(ham - ham[0])) / max(ham[0], 1e-30)
        assert drift < 1e-6

    def test_map_of_fixed_point_stays_put(self):
        run = make_run([0.1], n=4, steps=2000)
        report = fixed_point_solve(run, tol=1e-10, max_iter=30)
        remapped = induced_speed(report.final_coeff, run)
        move = sup_distance(remapped, report.final_coeff, 0.0, run.horizon)
        assert move < 1e-10

    def test_non_convergence_is_reported_not_raised(self):
        run = make_run([0.1], n=4, steps=500)
        report = fixed_point_solve(run, tol=1e-14, max_iter=1)
        assert not report.converged and report.iterations == 1
        assert report.distances[0] > 1e-14

    def test_distance_history_decreases(self):
        run = make_run([0.1, 0.05], n=4, steps=1000)
        report = fixed_point_solve(run, tol=1e-12, max_iter=30)
        assert report.converged
        d = report.distances
        assert all(d[i + 1] < d[i] for i in range(len(d) - 1))

    def test_the_last_iterate_is_freed_before_the_next_march(self):
        # one (2, samples, modes) march buffer at a time, plus D's position**2 temporary;
        # with the last iterate's rows still held while the next march ran, 2.5 buffers
        n = 64
        run = make_run(0.01 / (1.0 + np.arange(n)), horizon=0.5, steps=2000)
        tracemalloc.start()
        try:
            report = fixed_point_solve(run, tol=1e-300, max_iter=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 3
        assert peak < 2 * (2 * run.grid.size * n * 8)


FIXEDPOINT_SCENARIOS = sorted(
    p for p in SCENARIO_DIR.glob("*.json") if load_scenario(p).command == "fixedpoint"
)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def many_live_run():
    """48 modes, 7 of them live, 3 of those with a velocity."""
    rng = np.random.default_rng(13)
    pos, vel = np.zeros(48), np.zeros(48)
    live = rng.choice(48, 7, replace=False)
    pos[live] = rng.uniform(-0.02, 0.02, 7) / (1.0 + live)
    vel[live[:3]] = rng.uniform(-0.02, 0.02, 3)
    return make_run(pos, velocities=vel, steps=2000)


def assert_one_d(report):
    """coefficient.csv's c and trajectory.csv's induced_speed come from one D(t)."""
    assert same_bits(report.final_coeff.values, report.final_solution.induced_speed_series())


class TestLiveModeIterate:
    """Each iterate marches only the modes with nonzero data; every mode is laid out once."""

    @pytest.mark.parametrize("path", FIXEDPOINT_SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_runs_carry_one_d(self, path):
        scn = load_scenario(path)
        assert_one_d(fixed_point_solve(_build_run(scn), tol=scn.tol, max_iter=scn.max_iter))

    def test_many_live_modes_carry_one_d(self):
        # D summed over 7 live rows rounds differently from the 48-row product
        report = fixed_point_solve(many_live_run(), tol=1e-12)
        assert report.converged
        assert_one_d(report)

    def test_induced_speed_is_the_first_iterate(self):
        # one map: induced_speed forms D from the same 7 live rows as every iterate
        run = many_live_run()
        start = CoefficientPath.constant(math.sqrt(1.0 + dirichlet_energy(run.initial)), run.grid)
        first = fixed_point_solve(run, max_iter=1).final_coeff
        assert same_bits(first.values, induced_speed(start, run).values)

    @settings(max_examples=100, deadline=None)
    @given(sparse_sweep_cases())
    def test_marched_rows_match_a_full_march(self, case):
        basis, coeff, pos, vel, grid = case
        run = KirchhoffRun(basis, SpectralState(basis, pos, vel), grid[-1], GP, grid)
        live, V, W, _, _ = _induced(coeff, run)
        fullV, fullW = march_in_order(live.size, coeff, basis.eigenvalues, pos, vel, grid)
        assert same_bits(V, fullV[live]) and same_bits(W, fullW[live])

    def test_guard_uses_the_full_basis(self):
        # data in mode 1 only: dt = 0.05 passes mu = 1 and fails mu = 64
        run = make_run([0.1], n=64, steps=20)
        c0 = math.sqrt(1.0 + dirichlet_energy(run.initial))
        with pytest.raises(StabilityError) as err:
            fixed_point_solve(run)
        assert err.value.required_step == GUARD / (c0 * 64.0)
        assert fixed_point_solve(make_run([0.1], n=1, steps=20)).converged

    @pytest.mark.parametrize("pos, vel", [
        ([0.0, -0.0, 0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0, -0.0, 0.0]),
        ([-0.0, 0.0, 0.1, -0.0, 0.0, 0.0], [0.0, -0.0, -0.05, 0.0, -0.0, 0.0]),
        ([0.1, -0.0, 0.0, 0.05, -0.0, 0.0], [0.0, -0.0, 0.02, -0.0, 0.0, -0.0]),
    ], ids=["no-live-mode", "one-live-mode", "three-live-modes"])
    def test_final_solution_layout(self, pos, vel):
        pos, vel = np.array(pos), np.array(vel)
        run = make_run(pos, velocities=vel, steps=300)
        report = fixed_point_solve(run)
        assert report.converged
        assert "final_solution" not in vars(report)  # laid out on first read, once
        sol = report.final_solution
        assert report.final_solution is sol
        for arr, data in ((sol.position, pos), (sol.velocity, vel)):
            assert arr.shape == (6, run.grid.size) and not arr.flags.writeable
            assert same_bits(arr[:, 0], data)  # each datum keeps its sign
        live = (pos != 0.0) | (vel != 0.0)
        for arr in (sol.position, sol.velocity):
            rest = arr[~live, 1:]
            assert np.all(rest == 0.0) and not np.any(np.signbit(rest))
        assert_one_d(report)
        if not live.any():
            assert report.live_solution is None
            assert report.iterations == 1 and np.all(report.final_coeff.values == 1.0)
            return
        rows = report.live_solution
        assert same_bits(rows.basis.frequencies, run.basis.frequencies[live])
        assert same_bits(rows.position, sol.position[live])
        assert same_bits(rows.velocity, sol.velocity[live])
        assert rows.dirichlet_series() is sol.dirichlet_series()
        # the live modes alone decide the run: on a basis of their frequencies every bit
        # is the same, and so are the CLI's series, which come from those rows
        sub = ModeBasis("interval-dirichlet", run.basis.frequencies[live])
        alone = fixed_point_solve(KirchhoffRun(
            sub, SpectralState(sub, pos[live], vel[live]), run.horizon, GP, run.grid))
        assert same_bits(alone.final_coeff.values, report.final_coeff.values)
        assert same_bits(alone.final_solution.position, sol.position[live])
        assert same_bits(alone.final_solution.velocity, sol.velocity[live])

    @pytest.mark.parametrize("path", FIXEDPOINT_SCENARIOS, ids=lambda p: p.stem)
    def test_live_rows_give_the_full_layout_series(self, path):
        # the CLI's trajectory.csv series come from the live rows; the zero rows add
        # nothing to D or H, and only the norm's scaling may round differently
        scn = load_scenario(path)
        report = fixed_point_solve(_build_run(scn), tol=scn.tol, max_iter=scn.max_iter)
        full, rows = report.final_solution, report.live_solution
        if rows is None:  # zero-data: the CLI takes the full layout
            assert not np.any(full.position[:, 1:]) and not np.any(full.velocity[:, 1:])
            return
        assert same_bits(rows.induced_speed_series(), full.induced_speed_series())
        ham, ham_full = rows.hamiltonian_series(), full.hamiltonian_series()
        assert np.max(np.abs(ham - ham_full)) <= 1e-15 * np.max(ham_full)
        norm, norm_full = rows.state_gevrey_series(scn.gevrey), full.state_gevrey_series(scn.gevrey)
        assert np.all(np.abs(norm - norm_full) <= 1e-13 * norm_full)

    def test_an_iterate_with_non_finite_entries_is_refused(self):
        # lambda^2 = 1e400 overflows in the step, although D(0) = 1 and the guard hold
        basis = ModeBasis("torus", np.array([1.0, 1e100]))
        initial = SpectralState(basis, [0.0, 1e-100], [0.0, 0.0])
        run = KirchhoffRun(basis, initial, 1e-101, GP, uniform_grid(1e-101, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="trajectory entries must be finite"):
                fixed_point_solve(run)

    def test_an_iterate_whose_d_overflows_is_refused(self):
        # D(0) = 0, but the velocity turns into position with D near (2e154)^2
        run = make_run([0.0, 0.0], velocities=[2e154], n=2, steps=100)
        with pytest.raises(RangeOverflowError, match="Dirichlet energy"):
            fixed_point_solve(run)


class TestDirectOracle:
    def test_zero_data(self):
        run = make_run([0.0], steps=100)
        traj = direct_oracle(run)
        assert np.all(traj.position == 0.0) and np.all(traj.velocity == 0.0)

    def test_energy_conserved(self):
        run = make_run([0.2, 0.1], velocities=[0.05], n=8, steps=4000)
        traj = direct_oracle(run)
        ham = traj.hamiltonian_series()
        assert np.max(np.abs(ham - ham[0])) / ham[0] < 1e-8

    def test_small_amplitude_period(self):
        # frozen-coefficient prediction 2*pi/sqrt(1 + a^2), checked loosely:
        # the measured period may differ at the a^2 scale but not more
        a = 0.05
        run = make_run([a], horizon=8.0, steps=16000)
        traj = direct_oracle(run)
        vd = traj.velocity[0]
        up = np.where((vd[:-1] < 0) & (vd[1:] >= 0))[0]
        i = up[0]
        t0, t1 = run.grid[i], run.grid[i + 1]
        t_half = t0 - vd[i] * (t1 - t0) / (vd[i + 1] - vd[i])
        period = 2.0 * t_half
        predicted = 2.0 * math.pi / math.sqrt(1.0 + a**2)
        assert abs(period - predicted) <= 2.0 * math.pi * a**2 / 4.0

    def test_guard_violation(self):
        run = make_run([0.1], n=32, steps=10)
        with pytest.raises(StabilityError) as err:
            direct_oracle(run)
        lam_max = float(run.basis.eigenvalues[-1])
        assert err.value.required_step == GUARD / (run.speed_ceiling() * math.sqrt(lam_max))

    def test_guard_refuses_non_finite_speed_ceiling(self):
        # H(0) overflows, so the ceiling is inf: an overflow, not a step to advise
        run = make_run([1e150], n=4, steps=10)
        assert run.speed_ceiling() == math.inf
        with pytest.raises(RangeOverflowError, match="not finite"):
            direct_oracle(run)

    @settings(max_examples=150, deadline=None)
    @given(oracle_cases())
    def test_matches_stagewise_reference(self, run):
        traj = direct_oracle(run)
        V, W = reference_oracle(run)
        mu = run.basis.frequencies
        scale = np.max(np.abs(V)) + np.max(np.abs(W)) / mu[-1]
        assert np.max(np.abs(traj.position - V)) <= 1e-12 * scale
        assert np.max(np.abs(traj.velocity - W) / mu[:, None]) <= 1e-12 * scale

    @pytest.mark.parametrize("amp", [5e-324, 1e-320, 4.5e-313])
    def test_subnormal_data_matches_reference(self, amp):
        # products of subnormal data round to whole subnormal ulps, so the two
        # step orders agree to a few ulps, not to a relative tolerance
        basis = ModeBasis.interval_dirichlet(3)
        pos, vel = amp * np.array([1.0, -0.7, 0.3]), amp * np.array([0.4, 0.9, -1.0])
        run = KirchhoffRun(basis, SpectralState(basis, pos, vel), 0.05, GP, uniform_grid(0.05, 2))
        traj = direct_oracle(run)
        V, W = reference_oracle(run)
        ulp = np.nextafter(0.0, 1.0)
        assert np.all(np.isfinite(traj.position)) and np.all(np.isfinite(traj.velocity))
        assert np.max(np.abs(traj.position - V)) <= 4 * ulp
        assert np.max(np.abs(traj.velocity - W)) <= 4 * ulp

    def test_non_finite_stage_speed_is_an_overflow(self):
        # lambda^3 = 1e660 overflows the stage-speed moments although the
        # energy, the speed ceiling and the guard are finite
        basis = ModeBasis("torus", np.array([1e110]))
        initial = SpectralState(basis, [1e-110], [0.0])
        horizon = 1e-111
        run = KirchhoffRun(basis, initial, horizon, GP, uniform_grid(horizon, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeOverflowError, match="stage speed"):
                direct_oracle(run)

    def test_time_reversal(self):
        run = make_run([0.15, 0.05], n=4, steps=2000)
        fwd = direct_oracle(run)
        basis = run.basis
        back = KirchhoffRun(
            basis=basis,
            initial=SpectralState(basis, fwd.position[:, -1], -fwd.velocity[:, -1]),
            horizon=run.horizon,
            gevrey=run.gevrey,
            grid=run.grid,
        )
        rev = direct_oracle(back)
        assert np.max(np.abs(rev.position[:, -1] - run.initial.position)) < 1e-8
        assert np.max(np.abs(rev.velocity[:, -1] + run.initial.velocity)) < 1e-8

    def test_a_priori_speed_bound(self):
        # 1 <= induced speed <= sqrt(1 + 2 H(0)), and that stays below M/2
        # whenever the energy gap hypothesis holds
        run = make_run([0.2, 0.1], n=4, steps=2000)
        traj = direct_oracle(run)
        speeds = traj.induced_speed_series()
        ceiling = run.speed_ceiling()
        assert np.all(speeds >= 1.0)
        assert np.all(speeds <= ceiling * (1 + 1e-12))
        h0 = hamiltonian(run.initial)
        M = 2.0 * math.sqrt(2.0 * h0 + 1.0) * (1.0 + 1e-6)
        assert 2.0 * h0 < M**2 / 4.0 - 1.0 + 1e-12
        assert np.all(speeds <= M / 2.0 * (1 + 1e-12))


class TestCheckInducedSpeed:
    def test_unit_speed_passes(self):
        grid = uniform_grid(1.0, 100)
        path = CoefficientPath.constant(1.0, grid)
        report = check_induced_speed(path, M=2.0, K0=1.0, q=1.5, T=1.0, tol=0.0)
        assert report.passed and not report.failures

    def test_converged_run_passes_with_certificate_constants(self):
        from kirchhofflab import check_hypotheses

        run = make_run([0.1], n=4, steps=2000)
        report = fixed_point_solve(run, tol=1e-10, max_iter=30)
        cert = check_hypotheses(
            run.initial.position, run.initial.velocity, run.basis,
            s=2.0, eta=2.0, T=1.0,
        )
        image = check_induced_speed(
            report.final_coeff, M=cert.M, K0=cert.K0, q=cert.q, T=1.0, tol=1e-8
        )
        assert image.passed, image.failures

    def test_upper_bound_failure_names_hypothesis(self):
        grid = uniform_grid(1.0, 100)
        path = CoefficientPath(grid, 1.0 + 2.5 * grid)
        report = check_induced_speed(path, M=2.0, K0=1e9, q=1.5, T=1.0)
        assert not report.passed
        assert any("2*H(0) < M^2/4 - 1" in f for f in report.failures)

    def test_uniform_bound_is_stricter_than_envelope(self):
        # flat until 0.75 then slope 0.006: the envelope K0/(T-t)^q has grown
        # past 0.006 there, but the uniform bound K0/T^q = 0.0035 has not
        times = np.array([0.0, 0.75, 0.875, 1.0])
        values = 1.0 + 0.006 * np.maximum(times - 0.75, 0.0)
        path = CoefficientPath(times, values)
        report = check_induced_speed(path, M=2.0, K0=0.01, q=1.5, T=2.0)
        assert report.envelope_ok
        assert not report.uniform_ok
        assert any("uniform" in f for f in report.failures)

    def test_nan_tolerance_is_refused(self):
        path = CoefficientPath.constant(1.0, uniform_grid(1.0, 100))
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            check_induced_speed(path, M=2.0, K0=1.0, q=1.5, T=1.0, tol=float("nan"))

    # The words each failure text starts with, by the flag of its bound.
    FAILURE_TEXTS = {"lower_ok": "lower value bound", "upper_ok": "upper value bound",
                     "envelope_ok": "slope envelope", "uniform_ok": "uniform slope bound"}

    @pytest.mark.parametrize(
        "times, values, K0",
        [
            ([0.0, 0.5, 1.0], [1.0, 1.0, 1.0], 1.0),  # passes
            ([0.0, 0.5, 1.0], [0.5, 0.5, 0.5], 1.0),  # below 1
            ([0.0, 0.5, 1.0], [1.0, 2.0, 3.5], 1e9),  # above M
            ([0.0, 0.75, 0.875, 1.0], [1.0, 1.0, 1.00075, 1.0015], 0.01),  # uniform only
            ([0.0, 0.5, 1.0], [1.0, 1.9, 1.0], 0.01),  # both slope bounds
            # the last slope overflows to inf against the envelope's inf at t = T: a nan margin
            ([0.0, 0.5, 1.0 - 2.0**-53, 1.0], [1.0, 1.0, 1.0, 1e300], 1.0),
        ],
    )
    def test_failures_name_exactly_the_failed_bounds(self, times, values, K0):
        path = CoefficientPath(np.array(times), np.array(values))
        report = check_induced_speed(path, M=2.0, K0=K0, q=1.5, T=1.0)
        margins = [report.worst_lower_margin, report.worst_upper_margin,
                   report.worst_envelope_margin, report.worst_uniform_margin]
        flags = [getattr(report, flag) for flag in self.FAILURE_TEXTS]
        assert flags == [margin >= 0.0 for margin in margins]
        failed = [text for flag, text in self.FAILURE_TEXTS.items() if not getattr(report, flag)]
        assert [f[:len(t)] for f, t in zip(report.failures, failed)] == failed
        assert len(report.failures) == len(failed)
        assert report.passed == all(flags) == (not report.failures)


class TestInducedSlopeBound:
    def test_zero_velocity_zero_bound(self):
        basis = ModeBasis.interval_dirichlet(3)
        st = SpectralState(basis, [0.5, 0.1, 0.0], np.zeros(3))
        assert induced_slope_bound(st) == 0.0

    def test_zero_state(self):
        assert induced_slope_bound(SpectralState.zero(ModeBasis.interval_dirichlet(2))) == 0.0

    def test_single_mode_product(self):
        a, b = 0.3, -0.4
        basis = ModeBasis.interval_dirichlet(1)
        st = SpectralState(basis, [a], [b])
        bound = induced_slope_bound(st)
        assert bound == pytest.approx(abs(a * b), rel=1e-14)
        # exact slope a*b/c with c = sqrt(1 + a^2) >= 1 stays below the bound
        exact = a * b / math.sqrt(1.0 + a**2)
        assert abs(exact) <= bound

    def test_measured_quotients_stay_below_bound(self):
        run = make_run([0.1, 0.05], n=4, steps=2000)
        report = fixed_point_solve(run, tol=1e-10)
        traj = report.final_solution
        speed = traj.induced_speed_series()
        bounds = np.array(
            [induced_slope_bound(traj.state_at(i)) for i in range(traj.times.size)]
        )
        quotients = np.abs(np.diff(speed)) / np.diff(traj.times)
        cap = np.maximum(bounds[:-1], bounds[1:])
        assert np.all(quotients <= cap + 1e-8)

    def test_slope_identity_in_coefficient_space(self):
        # (c~^2)' = 2 sum_k lambda_k v_k v'_k, checked by centred differences
        run = make_run([0.1, 0.05], n=4, steps=4000)
        traj = direct_oracle(run)
        lam = run.basis.eigenvalues
        d = traj.dirichlet_series()
        inner = np.sum(lam[:, None] * traj.position * traj.velocity, axis=0)
        dt = float(traj.times[1] - traj.times[0])
        fd = (d[2:] - d[:-2]) / (4.0 * dt)
        assert np.max(np.abs(fd - inner[1:-1])) < 1e-4


class TestSolverAgreementSweep:
    def test_random_small_data_agrees_across_solvers(self):
        # the two routes to the dynamics discretise different systems, so
        # agreement is evidence both are right; data kept small enough that
        # successive substitution contracts
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            basis = ModeBasis.interval_dirichlet(n)
            pos = rng.normal(scale=0.05, size=n) / basis.frequencies
            vel = rng.normal(scale=0.02, size=n)
            run = KirchhoffRun(
                basis=basis,
                initial=SpectralState(basis, pos, vel),
                horizon=1.0,
                gevrey=GP,
                grid=uniform_grid(1.0, 2000),
            )
            fp = fixed_point_solve(run, tol=1e-11, max_iter=40)
            assert fp.converged
            oracle = direct_oracle(run)
            gap = float(
                np.max(np.abs(fp.final_coeff.values - oracle.induced_speed_series()))
            )
            assert gap <= 1e-7
            ham = oracle.hamiltonian_series()
            assert np.max(np.abs(ham - ham[0])) / max(ham[0], 1e-30) < 1e-7


@st.composite
def certified_sparse_runs(draw):
    """At most 8 modes, some with zero data, at most 400 steps, data the certificate passes.

    Random directions are scaled to a random fraction of the largest data
    radius R with eta > eta0 = 2 s K0 + 4 M^2, K0 = M^2 e^(4M^2) R T^q being
    linear in R; M is the certificate's choice for data this small.
    """
    n = draw(st.integers(1, 8))
    basis = ModeBasis.interval_dirichlet(n)
    # no subnormal directions: their squares vanish from the data radius
    unit = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))
    pos, vel = (np.array(draw(st.lists(unit, min_size=n, max_size=n))) for _ in range(2))
    assume(np.any(pos != 0.0) or np.any(vel != 0.0))
    s, horizon = draw(st.floats(1.2, 4.0)), draw(st.floats(0.1, 2.0))
    M = 2.0 * (1.0 + _M_MARGIN)
    eta = draw(st.floats(4.0 * M * M + 0.05, 40.0))
    gp = GevreyParams(s=s, eta=eta)
    r_max = (eta - 4.0 * M * M) / (2.0 * s * k0_constant(M, 1.0, horizon, 1.0 + 1.0 / s))
    scale = math.sqrt(draw(st.floats(1e-6, 0.9)) * r_max / data_radius(pos, vel, basis, gp))
    pos, vel = scale * pos, scale * vel
    assume(check_hypotheses(pos, vel, basis, s, eta, horizon).passed)
    initial = SpectralState(basis, pos, vel)
    # inside both solvers' guard c * n * dt <= GUARD, with room above the oracle's ceiling
    ceiling = math.sqrt(1.0 + 2.0 * hamiltonian(initial)) * (1.0 + 1e-6)
    steps = draw(st.integers(math.ceil(horizon * n * ceiling / GUARD), 400))
    return KirchhoffRun(basis, initial, horizon, gp, uniform_grid(horizon, steps))


class TestCertifiedSparseData:
    @settings(max_examples=100, deadline=None)
    @given(certified_sparse_runs())
    def test_fixed_point_converges_to_the_oracle(self, run):
        fp = fixed_point_solve(run, tol=1e-10, max_iter=30)
        assert fp.converged
        oracle = direct_oracle(run)
        assert np.max(np.abs(fp.final_coeff.values - oracle.induced_speed_series())) <= 1e-6
        scale = np.max(np.abs(oracle.position))
        assert np.max(np.abs(fp.final_solution.position - oracle.position)) <= 1e-6 * scale

    @settings(max_examples=100, deadline=None)
    @given(certified_sparse_runs())
    def test_oracle_conserves_the_hamiltonian(self, run):
        # within 1e-6 of RK4's own loss: a step multiplies each mode's energy by
        # |R(ix)|^2 = 1 - x^6/72 + x^8/576, x = c*mu*dt, which is 1 - 2.2e-4 at the guard
        ham = direct_oracle(run).hamiltonian_series()
        x = run.speed_ceiling() * run.basis.frequencies[-1] * np.max(np.diff(run.grid))
        loss = 1.0 - (1.0 - x**6 / 72.0 + x**8 / 576.0) ** (run.grid.size - 1)
        assert np.max(np.abs(ham - ham[0])) <= (loss + 1e-6) * ham[0]

    @settings(max_examples=100, deadline=None)
    @given(certified_sparse_runs())
    def test_induced_speed_stays_in_its_bounds(self, run):
        coeff = fixed_point_solve(run, tol=1e-10, max_iter=30).final_coeff
        assert np.all(coeff.values >= 1.0) and np.all(coeff.values <= run.speed_ceiling())
        init, gp = run.initial, run.gevrey
        cert = check_hypotheses(init.position, init.velocity, run.basis, gp.s, gp.eta, run.horizon)
        assert cert.passed
        image = check_induced_speed(coeff, M=cert.M, K0=cert.K0, q=cert.q, T=run.horizon)
        assert image.passed, image.failures


class TestPerturbationProbe:
    def test_zero_delta_zero_energy(self):
        run = make_run([0.05], n=4, steps=500)
        coeff = fixed_point_solve(run, tol=1e-10).final_coeff
        report = perturbation_probe(run, coeff, 0.0)
        assert report.max_energy == 0.0 and report.ratio == 0.0

    def test_zero_data_zero_energy_any_delta(self):
        run = make_run([0.0], n=2, steps=500)
        coeff = CoefficientPath.constant(1.0, run.grid)
        report = perturbation_probe(run, coeff, 0.3)
        assert report.max_energy == 0.0

    def test_quadratic_shrinkage(self):
        run = make_run([0.05], n=4, steps=2000)
        coeff = fixed_point_solve(run, tol=1e-10).final_coeff
        maxima = [perturbation_probe(run, coeff, d).max_energy for d in (0.1, 0.01, 0.001)]
        assert maxima[0] > maxima[1] > maxima[2]
        # quadratic scaling: two decades of delta shave four decades of energy
        assert maxima[2] == pytest.approx(maxima[1] / 100.0, rel=0.2)

    def test_class_gate(self):
        run = make_run([0.05], n=4, steps=500)
        coeff = CoefficientPath.constant(1.0, run.grid)
        tight = AdmissibleClass(q=1.5, M=1.05, K0=10.0, T=1.0)
        with pytest.raises(HypothesisError):
            perturbation_probe(run, coeff, 0.2, cls=tight)
