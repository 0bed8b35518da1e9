"""Mode solver, speed regularisation, decay integrals and the energy audit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhofflab import (
    AdmissibleClass,
    CoefficientPath,
    GevreyParams,
    HypothesisError,
    LinearProblem,
    ModeBasis,
    ModeTrajectory,
    OscillatingSpeed,
    SpectralState,
    StabilityError,
    Trajectory,
    approximate_energy,
    decay_integral,
    decay_integral_bound,
    decay_rate,
    eta_prime,
    graded_grid,
    mode_trajectory,
    radius_loss,
    regularized_speed,
    solve_linear,
    solve_mode,
    solve_modes,
    uniform_grid,
    verify_energy_bound,
)
from kirchhofflab.linear import GUARD, _rk4_coefficients, _rk4_modes

Q, S, T = 1.5, 2.0, 1.0


def audit_class(M=1.3, K0=0.1, m0=1.0, T_=T):
    return AdmissibleClass(q=Q, M=M, K0=K0, T=T_, m0=m0)


def oscillating_path(base_step=5e-4, end_gap=1e-9):
    grid = graded_grid(T, base_step, 0.9, end_gap)
    return OscillatingSpeed(q=Q, T=T, amplitude=0.1, offset=2.0).sample(grid)


class TestSolveMode:
    def test_constant_speed_cosine(self):
        grid = np.linspace(0.0, math.pi / 2, 2001)
        coeff = CoefficientPath.constant(1.0, grid)
        mt = solve_mode(coeff, 4.0, 1.0, 0.0, grid)
        # closed form v = cos(2t), so v(pi/2) = -1
        assert mt.v[-1] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_data_stays_zero(self):
        grid = uniform_grid(1.0, 100)
        coeff = CoefficientPath.constant(1.5, grid)
        mt = solve_mode(coeff, 9.0, 0.0, 0.0, grid)
        assert np.all(mt.v == 0.0) and np.all(mt.vdot == 0.0)

    def test_constant_speed_sine(self):
        grid = np.linspace(0.0, math.pi / 4, 1001)
        coeff = CoefficientPath.constant(2.0, grid)
        mt = solve_mode(coeff, 1.0, 0.0, 1.0, grid)
        # closed form v = sin(2t)/2, so v(pi/4) = 0.5
        assert mt.v[-1] == pytest.approx(0.5, abs=1e-10)

    def test_mode_trajectory_leaves_caller_arrays_writable(self):
        t = np.linspace(0.0, 1.0, 5)
        v = np.cos(t)
        mt = ModeTrajectory(t, v, v.copy(), 1.0)
        assert t.flags.writeable and v.flags.writeable
        assert not mt.times.flags.writeable and not mt.v.flags.writeable
        t[0] = v[0] = 7.0
        assert mt.times[0] == 0.0 and mt.v[0] == 1.0

    def test_stability_guard_refuses_with_required_step(self):
        grid = uniform_grid(1.0, 10)
        coeff = CoefficientPath.constant(1.0, grid)
        with pytest.raises(StabilityError) as err:
            solve_mode(coeff, 1e6, 1.0, 0.0, grid)
        assert err.value.required_step == pytest.approx(0.5 / 1e3)

    def test_grid_outside_domain(self):
        coeff = CoefficientPath.constant(1.0, uniform_grid(0.5, 10))
        with pytest.raises(ValueError):
            solve_mode(coeff, 1.0, 1.0, 0.0, uniform_grid(1.0, 20))

    def test_energy_conserved_for_constant_speed(self):
        c0, lam = 1.3, 16.0
        grid = uniform_grid(1.0, 2000)
        coeff = CoefficientPath.constant(c0, grid)
        mt = solve_mode(coeff, lam, 0.7, -0.2, grid)
        raw = mt.vdot**2 + c0**2 * lam * mt.v**2
        assert np.max(np.abs(raw / raw[0] - 1.0)) < 1e-10


class TestSolveModes:
    def test_matches_per_mode_solves(self):
        basis = ModeBasis.interval_dirichlet(5)
        grid = uniform_grid(1.0, 800)
        coeff = CoefficientPath(grid, 1.0 + 0.1 * np.sin(2 * np.pi * grid))
        rng = np.random.default_rng(2)
        pos, vel = rng.normal(size=5), rng.normal(size=5)
        traj = solve_modes(coeff, basis, pos, vel, grid)
        for k in range(5):
            mt = solve_mode(coeff, float(basis.eigenvalues[k]), pos[k], vel[k], grid)
            assert np.allclose(traj.position[k], mt.v, atol=1e-14)
            assert np.allclose(traj.velocity[k], mt.vdot, atol=1e-14)

    def test_trajectory_adopts_the_sweep_buffers(self):
        basis = ModeBasis.interval_dirichlet(4)
        grid = uniform_grid(1.0, 50)
        coeff = CoefficientPath.constant(1.0, grid)
        V, W = _rk4_modes(coeff, basis.eigenvalues, np.ones(4), np.zeros(4), grid)
        assert not V.flags.writeable and not W.flags.writeable
        traj = Trajectory(basis, grid, V, W)
        assert np.shares_memory(traj.position, V) and np.shares_memory(traj.velocity, W)


def stagewise_rk4_step(lam, v, w, h, a1, a2, a3, a4):
    """One classical RK4 step of v' = w, w' = -a lam v whose stage k sees a = a_k."""
    k1v, k1w = w, -a1 * lam * v
    k2v, k2w = w + 0.5 * h * k1w, -a2 * lam * (v + 0.5 * h * k1v)
    k3v, k3w = w + 0.5 * h * k2w, -a3 * lam * (v + 0.5 * h * k2v)
    k4v, k4w = w + h * k3w, -a4 * lam * (v + h * k3v)
    return (
        v + (h / 6.0) * (k1v + 2.0 * (k2v + k3v) + k4v),
        w + (h / 6.0) * (k1w + 2.0 * (k2w + k3w) + k4w),
    )


def reference_rk4_step(lam, v, w, h, c2_start, c2_mid, c2_end):
    """One classical RK4 step of v' = w, w' = -c^2 lam v, stage by stage."""
    return stagewise_rk4_step(lam, v, w, h, c2_start, c2_mid, c2_mid, c2_end)


@st.composite
def propagator_cases(draw):
    """Random eigenvalues, c^2 samples, uniform or graded steps inside the guard."""
    n = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 6))
    lam = np.array(draw(st.lists(st.floats(1e-2, 1e4), min_size=n, max_size=n)))
    c2 = st.floats(0.25, 4.0)
    c2_nodes = np.array(draw(st.lists(c2, min_size=steps + 1, max_size=steps + 1)))
    c2_mids = np.array(draw(st.lists(c2, min_size=steps, max_size=steps)))
    ratio = draw(st.sampled_from([1.0, 0.5, 0.9]))  # 1.0 is a uniform grid
    c_max = math.sqrt(max(c2_nodes.max(), c2_mids.max()))
    h0 = draw(st.floats(1e-3, 1.0)) * GUARD / (c_max * math.sqrt(lam.max()))
    h = h0 * ratio ** np.arange(steps)
    # no subnormal states: their products lose the digits being compared
    unit = st.floats(-1.0, 1.0).map(lambda x: 0.0 if abs(x) < 1e-6 else x)
    v = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    w = np.sqrt(lam) * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return lam, h, c2_nodes, c2_mids, v, w


class TestPropagator:
    @settings(max_examples=200, deadline=None)
    @given(propagator_cases())
    def test_closed_form_matches_stagewise_step(self, case):
        lam, h, c2_nodes, c2_mids, v, w = case
        for j in range(h.size):
            # per-mode entries of the step's propagator, from its closed-form coefficients
            cv, cw = _rk4_coefficients(h[j], c2_nodes[j], c2_mids[j], c2_mids[j], c2_nodes[j + 1])
            pvv, pvw, pwv, pww = (
                c[i] + (c[i + 2] + c[i + 4] * lam) * lam for c in (cv, cw) for i in (0, 1)
            )
            ref_v, ref_w = reference_rk4_step(
                lam, v, w, h[j], c2_nodes[j], c2_mids[j], c2_nodes[j + 1]
            )
            # relative to the size of the terms that make up each component
            scale_v = np.abs(pvv * v) + np.abs(pvw * w)
            scale_w = np.abs(pwv * v) + np.abs(pww * w)
            assert np.all(np.abs(pvv * v + pvw * w - ref_v) <= 1e-13 * scale_v)
            assert np.all(np.abs(pwv * v + pww * w - ref_w) <= 1e-13 * scale_w)
            v, w = ref_v, ref_w

    def test_coefficients_match_stagewise_step_with_four_stage_speeds(self):
        # the coupled oracle's stages see four different speeds, a2 != a3
        rng = np.random.default_rng(5)
        lam = np.arange(1.0, 9.0) ** 2
        h, speeds = 0.04, (1.1, 1.35, 1.2, 1.5)
        v, w = rng.normal(size=8), rng.normal(size=8) * np.sqrt(lam)
        cv, cw = _rk4_coefficients(h, *speeds)
        rows = np.stack((v, w, lam * v, lam * w, lam * lam * v, lam * lam * w))
        ref_v, ref_w = stagewise_rk4_step(lam, v, w, h, *speeds)
        assert np.max(np.abs(np.array(cv) @ rows - ref_v)) <= 1e-14 * np.max(np.abs(ref_v))
        assert np.max(np.abs(np.array(cw) @ rows - ref_w)) <= 1e-14 * np.max(np.abs(ref_w))

    @pytest.mark.parametrize("steps", [1, 128, 129, 263])
    def test_march_matches_stagewise_steps_across_blocks(self, steps):
        rng = np.random.default_rng(steps)
        lam = np.arange(1.0, 9.0) ** 2
        grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.0, steps) * 0.04)))
        coeff = CoefficientPath(grid, rng.uniform(1.0, 1.4, steps + 1))
        c2_nodes = coeff.evaluate(grid) ** 2
        c2_mids = coeff.evaluate(0.5 * (grid[:-1] + grid[1:])) ** 2
        v0, w0 = rng.normal(size=8), rng.normal(size=8)
        V, W = _rk4_modes(coeff, lam, v0, w0, grid)
        assert V.shape == W.shape == (8, steps + 1)
        v, w = v0, w0
        for i in range(steps):
            v, w = reference_rk4_step(
                lam, v, w, grid[i + 1] - grid[i], c2_nodes[i], c2_mids[i], c2_nodes[i + 1]
            )
        scale = np.max(np.abs(V)) + np.max(np.abs(W)) / np.sqrt(lam[-1])
        assert np.max(np.abs(V[:, -1] - v)) <= 1e-12 * scale
        assert np.max(np.abs(W[:, -1] - w) / np.sqrt(lam)) <= 1e-12 * scale


class TestRegularizedSpeed:
    def test_low_frequency_uses_horizon_value(self):
        # q*s - s = 1 here, so the threshold is T*mu; mu = 1 stays low
        coeff = oscillating_path(base_step=2e-3)
        cls = audit_class()
        c_end = coeff.values[-1]
        for t in (0.0, 0.3, 0.9):
            assert regularized_speed(coeff, t, 1.0, cls, S) == c_end

    def test_follow_branch_before_freeze(self):
        coeff = oscillating_path(base_step=2e-3)
        cls = audit_class()
        # mu = 4 freezes at 1 - 1/4 = 0.75
        assert regularized_speed(coeff, 0.5, 4.0, cls, S) == pytest.approx(
            coeff.evaluate(0.5), rel=1e-15
        )

    def test_frozen_branch_after_freeze(self):
        coeff = oscillating_path(base_step=2e-3)
        cls = audit_class()
        frozen = coeff.evaluate(0.75)
        assert regularized_speed(coeff, 0.9, 4.0, cls, S) == pytest.approx(frozen, rel=1e-15)
        assert regularized_speed(coeff, 0.75, 4.0, cls, S) == pytest.approx(frozen, rel=1e-15)

    def test_continuity_at_freeze_time(self):
        coeff = oscillating_path(base_step=1e-3)
        cls = audit_class()
        mu = 8.0
        t_f = 1.0 - 1.0 / mu
        below = regularized_speed(coeff, t_f - 1e-9, mu, cls, S)
        above = regularized_speed(coeff, t_f + 1e-9, mu, cls, S)
        assert below == pytest.approx(above, abs=1e-6)

    def test_time_domain(self):
        coeff = oscillating_path(base_step=2e-3)
        with pytest.raises(ValueError):
            regularized_speed(coeff, 1.5, 4.0, audit_class(), S)


class TestDecayRate:
    def test_constant_speed_gives_zero(self):
        grid = uniform_grid(1.0, 50)
        coeff = CoefficientPath.constant(1.7, grid)
        cls = AdmissibleClass(q=Q, M=2.0, K0=1.0, T=1.0)
        for mu in (1.0, 4.0, 32.0):
            for t in (0.0, 0.5, 0.99):
                assert decay_rate(coeff, t, mu, cls, S) == 0.0

    def test_follow_branch_formula(self):
        grid = uniform_grid(0.96, 32)
        coeff = CoefficientPath(grid, 1.0 + 0.2 * grid)
        cls = AdmissibleClass(q=Q, M=2.0, K0=1.0, T=1.0)
        t, mu = 0.5, 4.0  # freeze at 0.75
        expected = 2.0 * 0.2 / coeff.evaluate(t)
        assert decay_rate(coeff, t, mu, cls, S) == pytest.approx(expected, rel=1e-12)

    def test_frozen_branch_formula(self):
        grid = uniform_grid(0.96, 32)
        coeff = CoefficientPath(grid, 1.0 + 0.2 * grid)
        cls = AdmissibleClass(q=Q, M=2.0, K0=1.0, T=1.0, m0=1.0)
        t, mu = 0.9, 4.0
        expected = 2.0 * cls.M / cls.m0 * abs(coeff.evaluate(0.75) - coeff.evaluate(t)) * mu
        assert decay_rate(coeff, t, mu, cls, S) == pytest.approx(expected, rel=1e-12)


class TestDecayIntegral:
    def test_constant_speed_integrates_to_zero(self):
        grid = uniform_grid(1.0, 50)
        coeff = CoefficientPath.constant(1.7, grid)
        cls = AdmissibleClass(q=Q, M=2.0, K0=1.0, T=1.0)
        assert decay_integral(coeff, 1.0, 1.0, cls, S) == 0.0
        assert decay_integral(coeff, 0.0, 5.0, cls, S) == 0.0

    def test_low_frequency_branch_bound(self):
        coeff = oscillating_path()
        cls = audit_class()
        val = decay_integral(coeff, coeff.end_time, 1.0, cls, S)
        assert 0.0 < val <= decay_integral_bound(1.0, cls, S)

    def test_against_fine_grid_quadrature(self):
        # independent reference: midpoint quadrature of the pointwise rate of
        # the same sampled path on a 10x finer grid; the remaining discrepancy
        # is the O(h^2) trapezoid error concentrated where the envelope is big
        cls = audit_class()
        mu = 8.0
        t_end = 0.99
        path = oscillating_path(base_step=5e-4, end_gap=1e-6)
        val = decay_integral(path, t_end, mu, cls, S)

        sub = np.linspace(0.0, t_end, 1 + 10 * int(round(t_end / 5e-4)))
        mids = 0.5 * (sub[:-1] + sub[1:])
        rate = np.array([decay_rate(path, float(t), mu, cls, S) for t in mids])
        reference = float(np.sum(rate * np.diff(sub)))
        assert val == pytest.approx(reference, rel=5e-4)

    def test_all_modes_within_branch_bounds(self):
        coeff = oscillating_path()
        cls = audit_class()
        for mu in range(1, 17):
            val = decay_integral(coeff, coeff.end_time, float(mu), cls, S)
            assert val <= decay_integral_bound(float(mu), cls, S) + 1e-8


class TestApproximateEnergy:
    def test_constant_speed_energy_constant(self):
        grid = uniform_grid(1.0, 2000)
        coeff = CoefficientPath.constant(1.2, grid)
        cls = AdmissibleClass(q=Q, M=1.2, K0=0.0, T=1.0, m0=1.0)
        mt = solve_mode(coeff, 16.0, 0.5, 0.1, grid)
        E = approximate_energy(mt, coeff, cls, GevreyParams(S, 1.0), sigma=1.0)
        assert np.max(np.abs(E / E[0] - 1.0)) < 1e-10

    def test_zero_trajectory_zero_energy(self):
        grid = uniform_grid(1.0, 100)
        coeff = CoefficientPath.constant(1.2, grid)
        cls = AdmissibleClass(q=Q, M=1.2, K0=0.0, T=1.0)
        mt = solve_mode(coeff, 4.0, 0.0, 0.0, grid)
        E = approximate_energy(mt, coeff, cls, GevreyParams(S, 1.0), sigma=1.0)
        assert np.all(E == 0.0)

    def test_oscillating_speed_energy_nonincreasing(self):
        coeff = oscillating_path()
        cls = audit_class()
        mt = solve_mode(coeff, 64.0, 1.0, 0.0, coeff.times)
        E = approximate_energy(mt, coeff, cls, GevreyParams(S, 8.16), sigma=1.0)
        upticks = np.diff(E) / np.maximum(E[:-1], 1e-300)
        assert float(np.max(upticks)) <= 1e-6

    def test_grid_mismatch(self):
        grid = uniform_grid(1.0, 100)
        coeff = CoefficientPath.constant(1.2, grid)
        cls = AdmissibleClass(q=Q, M=1.2, K0=0.0, T=1.0)
        mt = solve_mode(coeff, 4.0, 1.0, 0.0, grid)
        other = CoefficientPath.constant(1.2, uniform_grid(1.0, 50))
        with pytest.raises(ValueError):
            approximate_energy(mt, other, cls, GevreyParams(S, 1.0), sigma=1.0)


class TestEtaPrime:
    def test_reference_values(self):
        gp = GevreyParams(s=2.0, eta=5.0)
        cls = AdmissibleClass(q=2.0, M=1.0, K0=0.0, T=1.0, m0=1.0)
        assert eta_prime(gp, cls) == pytest.approx(1.0, rel=1e-15)

        gp = GevreyParams(s=2.0, eta=20.0)
        cls = AdmissibleClass(q=2.0, M=2.0, K0=1.0, T=1.0, m0=1.0)
        assert eta_prime(gp, cls) == pytest.approx(2.0, rel=1e-15)

    def test_boundary_is_zero(self):
        cls = AdmissibleClass(q=2.0, M=2.0, K0=1.0, T=1.0, m0=1.0)
        gp = GevreyParams(s=2.0, eta=radius_loss(cls))
        assert eta_prime(gp, cls) == 0.0


class TestVerifyEnergyBound:
    def setup_problem(self, coeff, cls, eta, n=16, sigma=1.0):
        basis = ModeBasis.interval_dirichlet(n)
        gp = GevreyParams(S, eta)
        amp = np.exp(-(eta / 2.0) * basis.frequencies ** (1.0 / S))
        state = SpectralState(basis, amp, np.zeros(n))
        return LinearProblem(basis, coeff, cls, state, sigma=sigma, gevrey=gp)

    def test_constant_unit_speed_passes(self):
        grid = uniform_grid(1.0, 2000)
        coeff = CoefficientPath.constant(1.0, grid)
        cls = AdmissibleClass(q=Q, M=1.0, K0=0.0, T=1.0, m0=1.0)
        problem = self.setup_problem(coeff, cls, eta=5.0, n=8)
        traj = solve_linear(problem, grid)
        report = verify_energy_bound(problem, traj)
        assert report.passed and report.worst_ratio <= 1.0
        assert report.constant == pytest.approx(math.exp(4.0), rel=1e-12)

    def test_zero_data_boundary_case(self):
        grid = uniform_grid(1.0, 200)
        coeff = CoefficientPath.constant(1.0, grid)
        cls = AdmissibleClass(q=Q, M=1.0, K0=0.0, T=1.0, m0=1.0)
        basis = ModeBasis.interval_dirichlet(4)
        problem = LinearProblem(
            basis, coeff, cls, SpectralState.zero(basis), sigma=1.0,
            gevrey=GevreyParams(S, 5.0),
        )
        report = verify_energy_bound(problem, solve_linear(problem, grid))
        assert report.passed and report.worst_ratio == 0.0

    def test_oscillating_speed_audit(self):
        coeff = oscillating_path()
        cls = audit_class()
        eta = 2 * cls.K0 / (Q - 1.0) + 4 * cls.M**2 + 1.0
        problem = self.setup_problem(coeff, cls, eta=eta)
        traj = solve_linear(problem, coeff.times)
        report = verify_energy_bound(problem, traj)
        assert report.worst_ratio <= 1.0 + 1e-4
        assert report.eta_prime == pytest.approx(1.0, rel=1e-12)

    def test_refuses_small_radius(self):
        grid = uniform_grid(1.0, 400)
        coeff = CoefficientPath.constant(1.0, grid)
        cls = AdmissibleClass(q=Q, M=1.5, K0=0.5, T=1.0, m0=1.0)
        problem = self.setup_problem(coeff, cls, eta=1.0, n=4)
        traj = solve_linear(problem, grid)
        with pytest.raises(HypothesisError):
            verify_energy_bound(problem, traj)

    def test_sub_unit_frequency_refused(self):
        # q*s - s < 1 makes mu^(1 - 1/(qs-s)) blow up as mu -> 0, so a
        # frequency below 1 breaks the inequality the shifted radius needs.
        basis = ModeBasis("torus", [0.01, 1.0, 2.0])
        grid = uniform_grid(1.0, 200)
        coeff = CoefficientPath.constant(1.0, grid)
        cls = AdmissibleClass(q=1.2, M=1.0, K0=0.0, T=1.0, m0=1.0)
        problem = LinearProblem(
            basis, coeff, cls, SpectralState(basis, [0.1, 0.1, 0.1], [0.0] * 3),
            sigma=1.0, gevrey=GevreyParams(S, 5.0),
        )
        traj = solve_linear(problem, grid)
        with pytest.raises(HypothesisError, match="sub-unit frequencies"):
            verify_energy_bound(problem, traj)

    def test_mode_view_round_trip(self):
        basis = ModeBasis.interval_dirichlet(3)
        grid = uniform_grid(1.0, 300)
        coeff = CoefficientPath.constant(1.0, grid)
        traj = solve_modes(coeff, basis, [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], grid)
        mt = mode_trajectory(traj, 2)
        assert mt.mu == 3.0 and mt.index == 2
        assert np.array_equal(mt.v, traj.position[2])
