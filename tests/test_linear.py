"""Mode solver, speed regularisation, decay integrals and the energy audit."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
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
    RangeOverflowError,
    SpectralState,
    StabilityError,
    Trajectory,
    approximate_energy,
    decay_integral,
    decay_integral_bound,
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
from kirchhofflab.linear import (BLOCK_MODES, GUARD, _decay_cumulative, _freeze_time, _mode_audit,
                                 _regularized_speeds, _rk4_blocks, _rk4_coefficients, _rk4_march,
                                 _rk4_modes)

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

    # every mode live, two (only those march), one and none
    @pytest.mark.parametrize("pos", [[1, 1, 1, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]])
    def test_trajectory_adopts_the_sweep_buffers(self, pos):
        basis = ModeBasis.interval_dirichlet(4)
        grid = uniform_grid(1.0, 50)
        coeff = CoefficientPath.constant(1.0, grid)
        V, W = _rk4_modes(coeff, basis.eigenvalues, np.array(pos, float), np.zeros(4), grid)
        assert not V.flags.writeable and not W.flags.writeable
        traj = Trajectory(basis, grid, V, W)
        assert np.shares_memory(traj.position, V) and np.shares_memory(traj.velocity, W)


def step_stack(coeff, grid):
    """The (steps, 2, 6) stack of every step's RK4 coefficients on ``grid``."""
    c2_nodes = coeff.evaluate(grid) ** 2
    c2_mids = coeff.evaluate(0.5 * (grid[:-1] + grid[1:])) ** 2
    cv, cw = _rk4_coefficients(np.diff(grid), c2_nodes[:-1], c2_mids, c2_mids, c2_nodes[1:])
    return np.stack(np.broadcast_arrays(*cv, *cw), axis=-1).reshape(-1, 2, 6)


def full_march(coeff, lam, v0, w0, grid):
    """The per-step loop that marches every mode, zero-data modes included."""
    steps = step_stack(coeff, grid)
    return next(_rk4_march(lam, v0, w0, grid.size, 2, lambda i, _rows, _x: steps[i]))


def march_in_order(marched, coeff, lam, v0, w0, grid):
    """Every mode of ``lam``, marched in the order _rk4_modes gives ``marched`` modes."""
    if marched > BLOCK_MODES:
        return full_march(coeff, lam, v0, w0, grid)
    return _rk4_blocks(lam, v0, w0, step_stack(coeff, grid))


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.strides == b.strides
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def check_against_full_march(basis, coeff, pos, vel, grid):
    """solve_modes equals the all-mode march in its order bit for bit; zero-data rows are
    +0.0 after sample 0."""
    traj = solve_modes(coeff, basis, pos, vel, grid)
    V, W = march_in_order(basis.count, coeff, basis.eigenvalues, pos, vel, grid)
    assert_same_bits(traj.position, V)
    assert_same_bits(traj.velocity, W)
    dead = (pos == 0.0) & (vel == 0.0)
    for arr in (traj.position, traj.velocity):
        rest = arr[dead, 1:]
        assert np.all(rest == 0.0) and not np.any(np.signbit(rest))
    return traj


@st.composite
def sparse_sweep_cases(draw):
    """Bases of up to 64 modes whose data is zero (either sign) outside a random live set."""
    n = draw(st.integers(1, 64))
    freqs = sorted(draw(st.lists(st.floats(0.1, 64.0), min_size=n, max_size=n, unique=True)))
    basis = ModeBasis("interval-dirichlet", np.array(freqs))
    kind = draw(st.sampled_from(["none", "one", "all", "some"]))
    if kind == "some":
        live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        one = draw(st.integers(0, n - 1))
        live = [kind == "all" or (kind == "one" and k == one) for k in range(n)]
    zero = st.sampled_from([0.0, -0.0])
    nonzero = st.floats(-1.0, 1.0).filter(lambda x: x != 0.0)
    pos, vel = np.empty(n), np.empty(n)
    for k in range(n):
        pair = [draw(nonzero), draw(st.one_of(zero, nonzero))] if live[k] else [draw(zero)] * 2
        pos[k], vel[k] = pair[::-1] if draw(st.booleans()) else pair
    steps = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=steps + 1, max_size=steps + 1)))
    dt = draw(st.floats(0.05, 1.0)) * GUARD / (values.max() * freqs[-1])
    grid = uniform_grid(dt * steps, steps)
    return basis, CoefficientPath(grid, values), pos, vel, grid


class TestLiveModeSweep:
    @settings(max_examples=100, deadline=None)
    @given(sparse_sweep_cases())
    def test_matches_full_march_bit_for_bit(self, case):
        check_against_full_march(*case)

    def sweep_case(self, pos, vel, steps=400):
        basis = ModeBasis.interval_dirichlet(len(pos))
        grid = uniform_grid(1.0, steps)
        coeff = CoefficientPath(grid, 1.0 + 0.2 * np.sin(7.0 * grid))
        return basis, coeff, np.array(pos), np.array(vel), grid

    def test_negative_zero_data_keeps_its_sign_at_sample_zero(self):
        # two live modes out of six, so the compacted march runs
        pos = [0.3, -0.0, 0.0, -0.0, 0.1, 0.0]
        vel = [0.0, -0.0, -0.0, 0.0, -0.2, 0.0]
        traj = check_against_full_march(*self.sweep_case(pos, vel))
        assert list(np.signbit(traj.position[:, 0])) == list(np.signbit(pos))
        assert list(np.signbit(traj.velocity[:, 0])) == list(np.signbit(vel))

    def test_one_live_mode_marches_every_mode(self):
        for k in range(6):
            pos, vel = np.zeros(6), np.zeros(6)
            pos[k], vel[k] = 0.3, -0.7
            check_against_full_march(*self.sweep_case(pos, vel))

    def test_no_live_mode(self):
        traj = check_against_full_march(*self.sweep_case([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]))
        assert np.all(traj.position == 0.0) and np.all(traj.velocity == 0.0)


@st.composite
def block_march_cases(draw):
    """Up to BLOCK_MODES + 1 modes, often exactly BLOCK_MODES or one more, up to 600 steps."""
    n = draw(st.one_of(st.sampled_from([BLOCK_MODES, BLOCK_MODES + 1]),
                       st.integers(1, BLOCK_MODES)))
    steps = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = np.unique(rng.uniform(0.1, 64.0, n))
    values = rng.uniform(1.0, 2.0, steps + 1)
    dt = draw(st.floats(0.05, 1.0)) * GUARD / (values.max() * freqs[-1])
    grid = uniform_grid(dt * steps, steps)
    v0, w0 = rng.uniform(-1.0, 1.0, (2, freqs.size)) * [[1.0], [draw(st.sampled_from([0.0, 1.0]))]]
    return freqs * freqs, CoefficientPath(grid, values), v0, w0 * freqs, grid


class TestBlockMarch:
    """Up to BLOCK_MODES modes march in blocks; each row depends on its own mode alone."""

    @settings(max_examples=60, deadline=None)
    @given(block_march_cases())
    def test_matches_the_per_step_loop(self, case):
        lam, coeff, v0, w0, grid = case
        V, W = _rk4_modes(coeff, lam, v0, w0, grid)
        fullV, fullW = full_march(coeff, lam, v0, w0, grid)
        if lam.size > BLOCK_MODES:
            assert_same_bits(V, fullV)
            assert_same_bits(W, fullW)
        # relative to each mode's amplitude sqrt(lambda v^2 + w^2), which c in [1, 2] bounds
        mu = np.sqrt(lam)[:, None]
        scale = np.max(np.hypot(mu * fullV, fullW), axis=1, keepdims=True)
        assert np.all(mu * np.abs(V - fullV) <= 1e-12 * scale)
        assert np.all(np.abs(W - fullW) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(block_march_cases(), st.data())
    def test_a_subset_of_modes_marches_to_the_same_bits(self, case, data):
        lam, coeff, v0, w0, grid = case
        sub = np.array(data.draw(st.lists(st.booleans(), min_size=lam.size, max_size=lam.size)))
        V, W = _rk4_modes(coeff, lam[sub], v0[sub], w0[sub], grid)
        fullV, fullW = march_in_order(sub.sum(), coeff, lam, v0, w0, grid)
        assert np.array_equal(V, fullV[sub]) and np.array_equal(W, fullW[sub])

    @pytest.mark.parametrize("modes", [0, 1, 5])
    @pytest.mark.parametrize("steps", [1, 2, 3, 15, 16, 17, 63, 64, 65, 99, 100, 101, 257])
    def test_every_step_count_and_no_mode(self, modes, steps):
        # block lengths of 1 to 8 steps, a short last block or none, and zero marched modes
        rng = np.random.default_rng(steps)
        lam = np.arange(1.0, modes + 1) ** 2
        grid = uniform_grid(0.4 / max(modes, 1) * steps / 20, steps)
        coeff = CoefficientPath(grid, rng.uniform(1.0, 1.2, steps + 1))
        v0, w0 = rng.normal(size=modes), rng.normal(size=modes)
        V, W = _rk4_modes(coeff, lam, v0, w0, grid)
        assert V.shape == W.shape == (modes, steps + 1)
        assert not V.flags.writeable and not W.flags.writeable
        assert np.array_equal(V[:, 0], v0) and np.array_equal(W[:, 0], w0)
        fullV, fullW = full_march(coeff, lam, v0, w0, grid)
        assert np.allclose(V, fullV, rtol=0.0, atol=1e-13)
        assert np.allclose(W, fullW, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("lam", [4.0, 1e200])
    def test_a_march_that_leaves_the_double_range_warns_nothing(self, lam):
        # lambda^2 * x overflows, or lambda^2 itself: non-finite rows and no numpy warning
        grid = uniform_grid(0.4 / math.sqrt(lam), 10)
        coeff = CoefficientPath.constant(1.0, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V, W = _rk4_modes(coeff, np.array([lam]), np.array([1e308]), np.array([1e308]), grid)
            assert not (np.isfinite(V).all() and np.isfinite(W).all())
            with pytest.raises(RangeOverflowError, match="trajectory entries must be finite"):
                solve_modes(coeff, ModeBasis("torus", np.array([math.sqrt(lam)])),
                            [1e308], [1e308], grid)



def reference_rk4_blocks(lam, v0, w0, steps):
    """The block march in its [row, col, block, mode] layout, which _rk4_blocks must match bit
    for bit: the same scan, with the few modes innermost in every phase."""
    m, n = steps.shape[0] + 1, lam.size
    size = max(1, math.isqrt((m - 1) // 4))
    count = -(-(m - 1) // size)
    K = steps.reshape(-1, 2, 3, 2).transpose(2, 1, 3, 0)[..., None]  # [lambda^k, row, col, step]
    S = np.empty((2, m, n))
    S[:, 0] = v0, w0
    with np.errstate(over="ignore", invalid="ignore"):
        lam2 = lam * lam

        def propagators(j, stop=None, less=0.0):  # [row, col, block, mode]
            a, b, d = K[..., j::size, :][..., :stop, :]
            return (a - less) + b * lam + d * lam2

        eye = np.eye(2)[:, :, None, None]
        total = propagators(0, count - 1, eye)
        for j in range(1, size):
            E = propagators(j, count - 1, eye)
            total = (E[:, 0, None] * total[0] + E[:, 1, None] * total[1]) + E + total
        for b in range(1, count):
            x = S[:, (b - 1) * size]
            S[:, b * size] = x + (total[:, 0, b - 1] * x[0] + total[:, 1, b - 1] * x[1])
        for j in range(size):
            P = propagators(j)
            x = S[:, j::size][:, :P.shape[2]]
            x = x + 0.0 if j == 0 else x
            np.add(P[:, 0] * x[0], P[:, 1] * x[1], out=S[:, j + 1::size])
        if not max(S.max(initial=0.0), -S.min(initial=0.0)) * lam2.max(initial=0.0) < np.inf:
            reach = np.maximum(S[:, :-1].max(axis=(0, 1)), -S[:, :-1].min(axis=(0, 1))) * lam2
            S[:, -1, ~(reach < np.inf)] = np.inf
    return S[0].T, S[1].T


@st.composite
def block_layout_cases(draw):
    """1 to BLOCK_MODES modes and 2 to 5,184 samples, with blocks of 1 to 35 steps that (m - 1)
    fills exactly or not; zeros of either sign in the data, and at times a row whose
    lambda^2 * x overflows at the first sample."""
    n = draw(st.integers(1, BLOCK_MODES))
    size = draw(st.integers(0, 35))  # isqrt((m - 1) // 4), and 1 below 4 steps
    steps = draw(st.integers(max(1, 4 * size * size), 4 * (size + 1) ** 2 - 1))
    if size and draw(st.booleans()):
        steps -= steps % size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = np.unique(rng.uniform(0.1, 64.0, n))
    values = rng.uniform(1.0, 2.0, steps + 1)
    grid = uniform_grid(draw(st.floats(0.05, 1.0)) * GUARD / (values.max() * freqs[-1]) * steps,
                        steps)
    v0, w0 = rng.uniform(-1.0, 1.0, (2, freqs.size))
    for x in (v0, w0):
        x[rng.random(freqs.size) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()) and freqs[-1] > 3.0:
        v0[-1] = 1e307  # lambda^2 * v0 is past the double range
    return freqs * freqs, v0, w0 * freqs, step_stack(CoefficientPath(grid, values), grid)


class TestBlockLayout:
    @settings(max_examples=60, deadline=None)
    @given(block_layout_cases())
    def test_the_march_keeps_every_bit_of_the_mode_inner_layout(self, case):
        for new, old in zip(_rk4_blocks(*case), reference_rk4_blocks(*case)):
            assert new.shape == old.shape
            assert np.array_equal(new.view(np.int64), old.view(np.int64))

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

    def test_frequency_power_past_double_range(self):
        # q*s - s = 0.002: mu^500 overflows for mu >= 5, and T*mu^500 > 1 makes mu high-frequency
        cls = AdmissibleClass(q=1.001, M=1.3, K0=0.0, T=1.0)
        coeff = CoefficientPath(np.array([0.0, 1.0]), np.array([1.0, 1.2]))
        assert regularized_speed(coeff, 0.5, 16.0, cls, S) == pytest.approx(1.1, rel=1e-15)
        assert decay_integral_bound(16.0, cls, S) == 0.0  # 4*M^2*mu^-499 underflows; low is 4*M^2
        # Below T = e^-744.4, 4.3^500 = e^729.3 still leaves T*mu^500 < 1: low-frequency.
        tiny = AdmissibleClass(q=1.001, M=1.3, K0=0.0, T=5e-324)
        assert _freeze_time(4.3, tiny, S) == (True, None)

    @pytest.mark.parametrize("mu, cls, low", [
        (1.0, AdmissibleClass(q=1000.0, M=1.3, K0=0.0, T=1e-3), True),  # T^(1 - (qs - s))
        (4.0, AdmissibleClass(q=1.5, M=1e200, K0=0.0, T=1.0), False),  # M^2
        (1e10, AdmissibleClass(q=1.5, M=1.3, K0=1e308, T=1.0), False),  # 2*K0/(q - 1) is inf
    ], ids=["low-horizon-power", "high-M-squared", "high-inf-sum"])
    def test_decay_integral_bound_past_double_range(self, mu, cls, low):
        assert _freeze_time(mu, cls, S)[0] is low
        with pytest.raises(RangeOverflowError, match="decay integral bound overflows"):
            decay_integral_bound(mu, cls, S)


def decay_rate(coeff, t, mu, cls, s):
    """Reference rate 2*(M/m0)*|c_reg - c|*mu + 2*|c_reg'|/c_reg of the energy weight.

    On branches where the regularised speed is constant only the first term
    survives; where it follows the speed only the slope term does.  The slope
    is the path's piecewise value (left limit at sample points).
    """
    c_reg = regularized_speed(coeff, t, mu, cls, s)
    low, t_f = _freeze_time(mu, cls, s)
    if not low and t <= t_f:
        return 2.0 * abs(coeff.slope(t)) / c_reg
    return 2.0 * cls.M / cls.m0 * abs(c_reg - coeff.evaluate(t)) * mu


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

    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_frequency_is_refused_at_every_time(self, t, mu):
        coeff = CoefficientPath.constant(1.7, uniform_grid(1.0, 50))
        cls = AdmissibleClass(q=Q, M=2.0, K0=1.0, T=1.0)
        with pytest.raises(ValueError, match="frequency must be positive"):
            decay_integral(coeff, t, mu, cls, S)

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

    @settings(max_examples=100, deadline=None)
    @given(q=st.floats(1.05, 1.95), amplitude=st.floats(0.0, 0.3), offset=st.floats(1.0, 3.0),
           s=st.floats(1.1, 4.0), mu=st.integers(1, 64), steps=st.integers(200, 2000),
           v0=st.floats(-1.0, 1.0), v1=st.floats(-1.0, 1.0))
    def test_weighted_energy_never_rises(self, q, amplitude, offset, s, mu, steps, v0, v1):
        # the energy estimate's monotone weighted energy, at the CLI's uptick tolerance
        speed = OscillatingSpeed(q=q, T=1.0, amplitude=amplitude, offset=offset)
        cls = AdmissibleClass(q, speed.value_max, amplitude, 1.0, speed.value_min)
        coeff = speed.sample(graded_grid(1.0, 1.0 / steps, 0.9))
        try:
            mt = solve_mode(coeff, float(mu) ** 2, v0, v1, coeff.times)
        except StabilityError:
            reject()
        E = approximate_energy(mt, coeff, cls, GevreyParams(s, 1.0), sigma=1.0)
        upticks = np.diff(E) / np.maximum(E[:-1], 1e-300)
        assert float(np.max(upticks)) <= 1e-6

    def test_huge_sigma_at_unit_frequency_is_finite(self):
        # mu^(2(sigma-1)) = 1 at mu = 1: the sigma term is 0, not inf * log(1) = nan
        grid = uniform_grid(1.0, 100)
        coeff = CoefficientPath.constant(1.2, grid)
        cls = AdmissibleClass(q=Q, M=1.2, K0=0.0, T=1.0)
        mt = solve_mode(coeff, 1.0, 1.0, 0.0, grid)
        E = approximate_energy(mt, coeff, cls, GevreyParams(S, 1.0), sigma=1e308)
        assert np.all(np.isfinite(E)) and E[0] > 0.0

    def test_grid_mismatch(self):
        grid = uniform_grid(1.0, 100)
        coeff = CoefficientPath.constant(1.2, grid)
        cls = AdmissibleClass(q=Q, M=1.2, K0=0.0, T=1.0)
        mt = solve_mode(coeff, 4.0, 1.0, 0.0, grid)
        other = CoefficientPath.constant(1.2, uniform_grid(1.0, 50))
        with pytest.raises(ValueError):
            approximate_energy(mt, other, cls, GevreyParams(S, 1.0), sigma=1.0)


def audit_path(freeze, speed, cls, s, steps, mu):
    """``speed`` on a graded grid over [0, 1) on which the freeze time of ``mu`` lies where
    ``freeze`` says: nowhere ("low", the low-frequency branch), between grid points, on one,
    or past the path's end."""
    low, t_f = _freeze_time(mu, cls, s)
    if low != (freeze == "low") or (freeze == "past" and not 0.5 < t_f < 1.0):
        reject()
    grid = graded_grid(1.0, 1.0 / steps, 0.9, 2.0 * (1.0 - t_f) if freeze == "past" else 1e-9)
    if freeze == "on":
        grid = np.union1d(grid, [t_f])
    if not low and ((t_f in grid[:-1]) != (freeze == "on")
                    or (t_f > grid[-1]) != (freeze == "past")):
        reject()
    return speed.sample(grid)


class TestModeAudit:
    @pytest.mark.parametrize("freeze", ["low", "between", "on", "past"])
    @settings(max_examples=15, deadline=None)
    @given(q=st.floats(1.05, 1.95), s=st.floats(1.1, 4.0), amplitude=st.floats(0.0, 0.3),
           offset=st.floats(1.0, 3.0), steps=st.integers(20, 100), mu=st.integers(2, 64),
           sigma=st.floats(1.0, 3.0), eta=st.floats(0.5, 10.0))
    def test_one_pass_matches_the_public_quadratures(self, freeze, q, s, amplitude, offset,
                                                     steps, mu, sigma, eta):
        # the CLI's single pass gives approximate_energy's energy and decay_integral's A(T),
        # and its energy equals one built from A and c_reg taken one time at a time
        mu = 1.0 if freeze == "low" else float(mu)
        speed = OscillatingSpeed(q=q, T=1.0, amplitude=amplitude, offset=offset)
        cls = AdmissibleClass(q, speed.value_max, amplitude, 1.0, speed.value_min)
        coeff = audit_path(freeze, speed, cls, s, steps, mu)
        gp, t = GevreyParams(s, eta), coeff.times
        v, vdot = np.cos(mu * t), -mu * np.sin(mu * t)
        energy, integral = _mode_audit(t, v, vdot, mu, coeff, cls, gp, sigma)

        assert integral == decay_integral(coeff, coeff.end_time, mu, cls, s)
        mt = ModeTrajectory(t, v, vdot, mu)
        assert energy.tobytes() == approximate_energy(mt, coeff, cls, gp, sigma).tobytes()
        acc = np.array([decay_integral(coeff, ti, mu, cls, s) for ti in t])
        c_reg = np.array([regularized_speed(coeff, ti, mu, cls, s) for ti in t])
        exponent = -acc + eta * mu ** (1.0 / s) + (sigma - 1.0) * (2.0 * math.log(mu))
        reference = (vdot**2 + (c_reg * mu) ** 2 * v**2) * np.exp(exponent)
        assert energy.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("mu", [1.0, 8.0, 64.0])
    @pytest.mark.parametrize("shift", [1e-13, -1e-13, "mixed"])
    def test_a_nearby_grid_keeps_c_reg_on_the_path_grid(self, mu, shift):
        # a trajectory grid within 1e-12 of the path's: A at the trajectory's own times,
        # c_reg at the path's, as the energy was formed before it shared one quadrature
        speed = OscillatingSpeed(q=1.5, T=1.0, amplitude=0.2, offset=2.0)
        cls = AdmissibleClass(1.5, speed.value_max, 0.2, 1.0, speed.value_min)
        coeff = speed.sample(graded_grid(1.0, 1e-2, 0.9))
        t = coeff.times.copy()
        mixed = np.where(np.arange(1, t.size - 1) % 2, 3e-13, -4e-13)
        t[1:-1] += mixed if shift == "mixed" else shift
        v, vdot = np.cos(mu * t), -mu * np.sin(mu * t)
        gp = GevreyParams(2.0, 3.0)
        energy = approximate_energy(ModeTrajectory(t, v, vdot, mu), coeff, cls, gp, 1.5)

        acc = _decay_cumulative(coeff, t, mu, cls, gp.s)[0]
        c_reg = _regularized_speeds(coeff, coeff.times, mu, cls, gp.s)
        exponent = -acc + gp.eta * mu ** (1.0 / gp.s) + 0.5 * (2.0 * math.log(mu))
        reference = (vdot**2 + (c_reg * mu) ** 2 * v**2) * np.exp(exponent)
        assert energy.tobytes() == reference.tobytes()


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
