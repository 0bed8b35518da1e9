"""Norms, energies and state containers."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhofflab import (
    CoefficientPath,
    GevreyParams,
    KirchhoffRun,
    ModeBasis,
    RangeOverflowError,
    SpectralState,
    Trajectory,
    dirichlet_energy,
    gevrey_norm,
    hamiltonian,
    same_basis,
    solve_modes,
    sobolev_norm,
    state_gevrey_norm,
)
from kirchhofflab.certificate import data_radius
from kirchhofflab.spectral import _LOG_MAX, _NORM_CHUNK


def basis(n=4):
    return ModeBasis.interval_dirichlet(n)


@st.composite
def norm_series_cases(draw):
    """Trajectories whose norm series runs the scaled sum of squares, its fallback, or both.

    Weights spanning more than 708 nats force the log-sum-exp; so do columns
    of coefficients near 1e-170, whose squares underflow.  Coefficients are
    drawn across 1e-170..1e200, then scaled so that no weighted square passes
    e^250: both sides round in log space, so they agree to 1e-13 only while
    log-norms stay moderate.  One coefficient of 1e200 overflows the norm.
    """
    wide = draw(st.booleans())
    n = draw(st.integers(16, 24) if wide else st.integers(1, 24))
    s = draw(st.floats(1.2, 1.6) if wide else st.floats(1.2, 3.0))
    m = draw(st.sampled_from([1, 3, _NORM_CHUNK, _NORM_CHUNK + 5]))  # and a partial chunk
    b = basis(n)
    mu = b.frequencies
    if wide:
        eta = draw(st.floats(710.0, 780.0)) / (mu[-1] ** (1.0 / s) - 1.0)
    else:
        eta = draw(st.floats(0.1, 50.0))
    gp = GevreyParams(s, eta)
    log_w = gp.eta * mu ** (1.0 / s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coefficients(sigma):
        c = rng.choice([-1.0, 1.0], size=(n, m)) * 10.0 ** rng.uniform(-170.0, 200.0, (n, m))
        c[rng.uniform(size=(n, m)) < 0.3] = 0.0  # samples with only some modes set
        c[:, 3::7] = np.sign(c[:, 3::7]) * 10.0 ** rng.uniform(-170.0, -160.0, c[:, 3::7].shape)
        with np.errstate(divide="ignore"):
            log_sq = (log_w + 2.0 * sigma * np.log(mu))[:, None] + 2.0 * np.log(np.abs(c))
        return c * np.exp(np.minimum(0.0, 0.5 * (250.0 - log_sq)))

    pos, vel = coefficients(1.5), coefficients(0.5)
    pos[:, ::5] = vel[:, ::5] = 0.0  # all-zero samples
    top_log_sq = log_w[-1] + 3.0 * math.log(mu[-1]) + 2.0 * math.log(1e200)
    overflow = draw(st.booleans()) and top_log_sq > 1500.0
    if overflow:
        pos[-1, m // 2] = 1e200
    return Trajectory(b, np.linspace(0.0, 1.0, m), pos, vel), gp, overflow


class TestModeBasis:
    def test_eigenvalues_are_exact_squares(self):
        b = basis(16)
        assert np.array_equal(b.eigenvalues, b.frequencies**2)
        assert b.count == 16
        assert np.array_equal(b.frequencies, np.arange(1, 17))

    def test_torus_kind(self):
        b = ModeBasis.torus(3)
        assert b.kind == "torus"
        assert np.array_equal(b.frequencies, [1.0, 2.0, 3.0])

    def test_rejects_bad_frequencies(self):
        with pytest.raises(ValueError):
            ModeBasis("interval-dirichlet", [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            ModeBasis("interval-dirichlet", [-1.0, 2.0])
        with pytest.raises(ValueError):
            ModeBasis("unknown", [1.0])
        with pytest.raises(ValueError):
            ModeBasis.interval_dirichlet(0)

    def test_same_basis(self):
        assert same_basis(basis(4), basis(4))
        assert not same_basis(basis(4), basis(5))
        assert not same_basis(basis(4), ModeBasis.torus(4))

    def test_immutable(self):
        b = basis(4)
        with pytest.raises(ValueError):
            b.frequencies[0] = 7.0


class TestSpectralState:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SpectralState(basis(4), [1.0, 2.0], [0.0, 0.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpectralState(basis(2), [np.nan, 0.0], [0.0, 0.0])

    def test_zero_constructor(self):
        st = SpectralState.zero(basis(3))
        assert hamiltonian(st) == 0.0


class TestSobolevNorm:
    def test_zero_field(self):
        assert sobolev_norm(np.zeros(4), basis(4), 1.7) == 0.0

    def test_single_first_mode_any_sigma(self):
        # mu = 1 makes the weight 1 for every sigma
        a = -0.37
        assert sobolev_norm([a, 0, 0, 0], basis(4), 1.5) == pytest.approx(abs(a), rel=1e-15)

    def test_two_term_sum(self):
        # frozen from the two-term sum: sqrt(1^2*1 + 2^2*1)
        got = sobolev_norm([1.0, 1.0], basis(2), 1.0)
        assert got == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sobolev_norm([1.0, 2.0, 3.0], basis(2), 0.0)

    def test_sigma_zero_is_euclidean(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = rng.normal(size=6)
            assert sobolev_norm(c, basis(6), 0.0) == pytest.approx(
                float(np.linalg.norm(c)), rel=1e-14
            )


class TestGevreyNorm:
    def test_single_mode_weight(self):
        gp = GevreyParams(s=2.0, eta=2.0)
        got = gevrey_norm([1.0], ModeBasis.interval_dirichlet(1), gp)
        assert got == pytest.approx(math.e, rel=1e-14)

    def test_zero_field(self):
        gp = GevreyParams(s=2.0, eta=1.0)
        assert gevrey_norm(np.zeros(3), basis(3), gp) == 0.0

    def test_two_frequency_sum(self):
        # modes mu = 1 and mu = 4 carry weights e^1 and e^2 at eta=1, s=2
        gp = GevreyParams(s=2.0, eta=1.0)
        got = gevrey_norm([1.0, 0.0, 0.0, 1.0], basis(4), gp)
        assert got == pytest.approx(math.sqrt(math.e + math.e**2), rel=1e-14)

    def test_overflow_is_reported(self):
        gp = GevreyParams(s=2.0, eta=2000.0)
        with pytest.raises(RangeOverflowError) as err:
            gevrey_norm([1.0], ModeBasis.interval_dirichlet(1), gp)
        assert err.value.log_value == pytest.approx(1000.0)

    def test_weight_past_the_double_range_is_reported(self):
        gp = GevreyParams(s=2.0, eta=sys.float_info.max)
        with pytest.raises(RangeOverflowError) as err:
            gevrey_norm([1e-300, 1.0], ModeBasis.interval_dirichlet(2), gp)
        assert err.value.log_value == math.inf

    def test_huge_weight_with_tiny_coefficient_is_fine(self):
        # e^900 alone overflows, but the term with c = 1e-250 does not
        gp = GevreyParams(s=2.0, eta=900.0)
        got = gevrey_norm([1e-250], ModeBasis.interval_dirichlet(1), gp)
        assert math.isfinite(got) and got > 0.0

    def test_monotone_in_eta_and_dominates_sobolev(self):
        rng = np.random.default_rng(11)
        b = basis(8)
        for _ in range(20):
            c = rng.normal(size=8)
            sigma = float(rng.uniform(-1.0, 2.0))
            s = float(rng.uniform(1.1, 4.0))
            e1, e2 = sorted(rng.uniform(0.1, 3.0, size=2))
            n1 = gevrey_norm(c, b, GevreyParams(s, e1), sigma)
            n2 = gevrey_norm(c, b, GevreyParams(s, e2), sigma)
            assert n1 <= n2 * (1 + 1e-12)
            assert n1 >= sobolev_norm(c, b, sigma) * (1 - 1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        b = basis(5)
        c = rng.normal(size=5)
        gp = GevreyParams(2.0, 1.0)
        for alpha in (-2.0, 0.5, 3.7):
            assert gevrey_norm(alpha * c, b, gp, 1.0) == pytest.approx(
                abs(alpha) * gevrey_norm(c, b, gp, 1.0), rel=1e-13
            )
            assert sobolev_norm(alpha * c, b, 1.0) == pytest.approx(
                abs(alpha) * sobolev_norm(c, b, 1.0), rel=1e-13
            )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GevreyParams(s=1.0, eta=1.0)
        with pytest.raises(ValueError):
            GevreyParams(s=2.0, eta=0.0)


class TestEnergies:
    def test_zero_state(self):
        st = SpectralState.zero(basis(4))
        assert hamiltonian(st) == 0.0
        assert dirichlet_energy(st) == 0.0

    def test_single_mode_position_only(self):
        a = 0.3
        st = SpectralState(basis(1), [a], [0.0])
        assert hamiltonian(st) == pytest.approx(a**2 / 2 + a**4 / 4, rel=1e-15)

    def test_single_mode_velocity_only(self):
        b = 0.7
        st = SpectralState(basis(1), [0.0], [b])
        assert hamiltonian(st) == pytest.approx(b**2 / 2, rel=1e-15)

    def test_dirichlet_single_mode(self):
        st = SpectralState(basis(2), [0.0, 1.0], [0.0, 0.0])
        assert dirichlet_energy(st) == pytest.approx(4.0, rel=1e-15)

    def test_dirichlet_two_modes(self):
        # mu = 1 and mu = 3: 1*4 + 9*1
        st = SpectralState(basis(3), [2.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        assert dirichlet_energy(st) == pytest.approx(13.0, rel=1e-15)

    def test_hamiltonian_scaling_decomposition(self):
        rng = np.random.default_rng(3)
        b = basis(6)
        pos = rng.normal(size=6)
        vel = rng.normal(size=6)
        st = SpectralState(b, pos, vel)
        d = dirichlet_energy(st)
        v = float(np.sum(vel**2))
        for alpha in (0.5, 1.0, 2.0):
            scaled = SpectralState(b, alpha * pos, alpha * vel)
            expected = alpha**2 * 0.5 * (d + v) + alpha**4 * 0.25 * d**2
            assert hamiltonian(scaled) == pytest.approx(expected, rel=1e-13)


# Every constructor and solver that takes a time grid, called with the grid ``t``.
GRID_TAKERS = {
    "CoefficientPath": lambda t: CoefficientPath(t, np.ones(t.size)),
    "Trajectory": lambda t: Trajectory(basis(2), t, np.zeros((2, t.size)), np.zeros((2, t.size))),
    "KirchhoffRun": lambda t: KirchhoffRun(basis(2), SpectralState.zero(basis(2)), 1.0,
                                           GevreyParams(2.0, 2.0), t),
    "solve_modes": lambda t: solve_modes(CoefficientPath.constant(1.0, [0.0, 1.0]), basis(2),
                                         [0.1, 0.0], [0.0, 0.0], t),
}


@pytest.mark.parametrize("taker", GRID_TAKERS)
@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.5, 1.0]],
                         ids=["nan", "inf", "minus-inf"])
def test_grids_with_non_finite_times_are_refused(taker, times):
    with pytest.raises(ValueError, match="finite, strictly increasing"):
        GRID_TAKERS[taker](np.array(times))


class TestTrajectory:
    def test_series_match_per_state_values(self):
        rng = np.random.default_rng(5)
        b = basis(3)
        times = np.linspace(0.0, 1.0, 4)
        pos = rng.normal(size=(3, 4))
        vel = rng.normal(size=(3, 4))
        traj = Trajectory(b, times, pos, vel)
        ham = traj.hamiltonian_series()
        for i in range(4):
            assert ham[i] == pytest.approx(hamiltonian(traj.state_at(i)), rel=1e-13)
        assert np.allclose(traj.induced_speed_series(), np.sqrt(1 + traj.dirichlet_series()))

    def test_state_norm_matches_data_radius(self):
        rng = np.random.default_rng(9)
        b = basis(5)
        st = SpectralState(b, rng.normal(size=5), rng.normal(size=5))
        gp = GevreyParams(2.0, 0.7)
        assert state_gevrey_norm(st, gp) == pytest.approx(
            math.sqrt(data_radius(st.position, st.velocity, b, gp)), rel=1e-13
        )

    def test_state_norm_series_matches_per_sample_norm(self):
        rng = np.random.default_rng(11)
        b = basis(6)
        m = 2 * _NORM_CHUNK + 37  # a partial last chunk
        pos = rng.normal(size=(6, m)) * np.exp(-rng.uniform(0.0, 30.0, size=(6, m)))
        vel = rng.normal(size=(6, m))
        pos[:, ::97] = 0.0
        vel[:, ::97] = 0.0  # all-zero samples
        vel[2:, 5] = 0.0  # a sample with only some modes set
        traj = Trajectory(b, np.linspace(0.0, 1.0, m), pos, vel)
        gp = GevreyParams(1.5, 3.0)
        series = traj.state_gevrey_series(gp)
        expected = [state_gevrey_norm(traj.state_at(i), gp) for i in range(m)]
        assert series.shape == (m,)
        assert np.all(series[::97] == 0.0)
        assert np.allclose(series, expected, rtol=1e-13, atol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(norm_series_cases())
    def test_state_norm_series_property(self, case):
        traj, gp, overflow = case
        if overflow:
            with pytest.raises(RangeOverflowError) as err:
                traj.state_gevrey_series(gp)
            with pytest.raises(RangeOverflowError) as ref:
                state_gevrey_norm(traj.state_at(traj.times.size // 2), gp)
            # the 1e200 coefficient outweighs every other term of its sample
            assert err.value.log_value > _LOG_MAX
            assert err.value.log_value == pytest.approx(ref.value.log_value, rel=1e-13)
            return
        series = traj.state_gevrey_series(gp)
        expected = [state_gevrey_norm(traj.state_at(i), gp) for i in range(traj.times.size)]
        assert np.all(series[::5] == 0.0)
        assert np.allclose(series, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "n, gp, entries",
        [
            # 1e160 squared is inf, yet the weighted norm is about 1e160
            (3, GevreyParams(2.0, 0.5), {(0, 1): 1e160, (2, 1): 1e-3, (0, 2): 3.0, (1, 2): -1e-150}),
            # weights e^55.6 .. e^795: scaled by the largest, mode 1's is about
            # 4e-322, with two digits left, yet its term is as large as mode 24's
            (24, GevreyParams(1.2, 55.6), {(0, 1): 1.6e118, (23, 1): 4.1e-43}),
        ],
    )
    def test_state_norm_series_fallback(self, n, gp, entries):
        pos = np.zeros((n, 4))
        for k, value in entries.items():
            pos[k] = value
        traj = Trajectory(basis(n), np.linspace(0.0, 1.0, 4), pos, np.zeros((n, 4)))
        series = traj.state_gevrey_series(gp)
        expected = [state_gevrey_norm(traj.state_at(i), gp) for i in range(4)]
        assert np.allclose(series, expected, rtol=1e-13, atol=0.0)

    def test_dirichlet_series_is_computed_once(self):
        rng = np.random.default_rng(3)
        pos, vel = rng.normal(size=(2, 4, 5))
        traj = Trajectory(basis(4), np.linspace(0.0, 1.0, 5), pos, vel)
        d = traj.dirichlet_series()
        assert traj.dirichlet_series() is d and not d.flags.writeable
        assert np.array_equal(d, traj.basis.eigenvalues @ traj.position**2)
        v = np.sum(traj.velocity**2, axis=0)
        assert np.array_equal(traj.hamiltonian_series(), 0.5 * (d + v) + 0.25 * d * d)
        assert np.array_equal(traj.induced_speed_series(), np.sqrt(1.0 + d))

    def test_dirichlet_series_overflow_raises_on_every_call(self):
        pos = np.full((4, 3), 1e200)
        traj = Trajectory(basis(4), [0.0, 0.5, 1.0], pos, np.zeros((4, 3)))
        for _ in range(2):
            with pytest.raises(RangeOverflowError, match="overflows"):
                traj.dirichlet_series()
        with pytest.raises(RangeOverflowError):
            traj.induced_speed_series()

    def test_copies_any_buffer_that_can_still_be_written(self):
        b = basis(3)
        times = np.linspace(0.0, 1.0, 4)
        pos = np.ones((3, 4))
        traj = Trajectory(b, times, pos, pos)
        assert not np.shares_memory(traj.position, pos)
        pos[0, 0] = 2.0
        assert traj.position[0, 0] == 1.0
        view = pos[:, ::2]
        view.setflags(write=False)  # read-only, but its base is not
        traj = Trajectory(b, times[::2], view, view)
        assert not np.shares_memory(traj.position, pos)
        pos.setflags(write=False)
        traj = Trajectory(b, times, pos, pos.T.T)
        assert np.shares_memory(traj.position, pos) and np.shares_memory(traj.velocity, pos)
        assert not traj.position.flags.writeable

    def test_state_norm_series_overflow(self):
        # weights near e^1440 exceed the double range unless the coefficient
        # is small enough to bring the product back
        b = basis(4)
        gp = GevreyParams(2.0, 720.0)
        pos = np.full((4, 3), 1e-100)
        traj = Trajectory(b, [0.0, 0.5, 1.0], pos, np.zeros((4, 3)))
        assert np.all(np.isfinite(traj.state_gevrey_series(gp)))
        pos[3, 1] = 1.0
        traj = Trajectory(b, [0.0, 0.5, 1.0], pos, np.zeros((4, 3)))
        with pytest.raises(RangeOverflowError) as err:
            traj.state_gevrey_series(gp)
        assert err.value.log_value > math.log(np.finfo(float).max)
        with pytest.raises(RangeOverflowError):
            state_gevrey_norm(traj.state_at(1), gp)

    def test_state_norm_series_with_weights_past_the_double_range(self):
        # eta * mu^(1/s) itself overflows: zero samples still have norm 0, others overflow
        gp = GevreyParams(2.0, sys.float_info.max)
        pos = np.zeros((4, 3))
        traj = Trajectory(basis(4), [0.0, 0.5, 1.0], pos, pos)
        assert np.all(traj.state_gevrey_series(gp) == 0.0)
        pos[3, 1] = 1e-300
        traj = Trajectory(basis(4), [0.0, 0.5, 1.0], pos, np.zeros((4, 3)))
        with pytest.raises(RangeOverflowError):
            traj.state_gevrey_series(gp)
