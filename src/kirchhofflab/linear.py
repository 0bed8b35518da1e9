"""Linear mode equations v'' + c(t)^2 lambda v = 0 and the energy-estimate audit.

Each mode is integrated with the classical 4th-order one-step scheme, one step
per grid interval.  Coefficient paths are piecewise linear with breakpoints on
the same grid, so the integrand is smooth within every step and the scheme
keeps its full order even though the profile is only Lipschitz globally.

The audit apparatus mirrors the weighted-energy argument for speeds whose
slope blows up at the horizon: a frequency-dependent regularisation freezes
the speed near the horizon above a frequency threshold, a decay rate collects
the resulting commutator terms, and the weighted per-mode energy is provably
nonincreasing along the flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficient import AdmissibleClass, CoefficientPath
from .errors import HypothesisError, RangeOverflowError, StabilityError
from .spectral import (
    GevreyParams,
    ModeBasis,
    SpectralState,
    Trajectory,
    _LOG_MAX,
    _readonly,
    gevrey_norm,
    same_basis,
)

# Stability/accuracy guard: largest admissible c_max * sqrt(lambda) * dt.
GUARD = 0.5


@dataclass(frozen=True, eq=False)
class ModeTrajectory:
    """Solution samples (v, v') of a single mode along a time grid."""

    times: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    mu: float
    index: int = 0

    def __post_init__(self):
        t, v, w = _readonly(self.times), _readonly(self.v), _readonly(self.vdot)
        if not (t.shape == v.shape == w.shape) or t.ndim != 1:
            raise ValueError("times, v and vdot must be 1-d and of equal length")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise ValueError("trajectory entries must be finite")
        if not self.mu > 0.0:
            raise ValueError("mode frequency must be positive")
        for name, arr in (("times", t), ("v", v), ("vdot", w)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class LinearProblem:
    """Linear Cauchy problem data plus the constants of the energy audit."""

    basis: ModeBasis
    coeff: CoefficientPath
    cls: AdmissibleClass
    initial: SpectralState
    sigma: float
    gevrey: GevreyParams

    def __post_init__(self):
        if not same_basis(self.initial.basis, self.basis):
            raise ValueError("initial state must live on the problem basis")
        if not self.sigma >= 1.0:
            raise ValueError(f"estimate order must satisfy sigma >= 1, got {self.sigma}")


def _check_guard(c_max: float, lam_max: float, grid: np.ndarray) -> None:
    """The stability guard of every solver: c_max * sqrt(lam_max) * dt <= GUARD."""
    rate = c_max * math.sqrt(lam_max)
    if not math.isfinite(rate):
        raise RangeOverflowError(f"speed bound c_max*sqrt(lambda) = {rate} is not finite")
    reach = rate * float(np.max(np.diff(grid)))
    if reach > GUARD * (1.0 + 1e-12):
        required = GUARD / rate
        raise StabilityError(
            f"grid too coarse: c_max*sqrt(lambda)*dt = {reach:.3g} exceeds {GUARD}; "
            f"use dt <= {required:.6g}",
            required_step=required,
        )


def _validate_grid(coeff: CoefficientPath, grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be strictly increasing with at least two points")
    slack = 1e-12 * max(1.0, coeff.end_time)
    if g[0] < -slack or g[-1] > coeff.end_time + slack:
        raise ValueError(
            f"grid [{g[0]}, {g[-1]}] leaves the coefficient domain [0, {coeff.end_time}]"
        )
    return g


def _rk4_coefficients(h, a1, a2, a3, a4):
    """One classical RK4 step of v' = w, w' = -a*lambda*v whose stage k sees a = a_k.

    The step maps x = (v, w) to C @ (x, lambda*x, lambda^2*x); the two returned
    rows of C hold the coefficients of (v, w, lambda*v, lambda*w, lambda^2*v,
    lambda^2*w) in v_new and in w_new.  Works on floats and arrays alike.
    """
    h2 = h * h
    mid = a2 + a3
    return (
        (1.0, h, -h2 * (a1 + mid) / 6.0, -h * h2 * mid / 12.0, h2 * h2 * a3 * a1 / 24.0, 0.0),
        (0.0, 1.0, -h * (a1 + 2.0 * mid + a4) / 6.0, -h2 * (mid + a4) / 6.0,
         h * h2 * (a1 * a3 + a2 * a4) / 12.0, h2 * h2 * a4 * a2 / 24.0),
    )


def _rk4_march(lam, v0, w0, m, degree, step_matrix):
    """March the stacked state x = (v, w) over m samples; returns (V, W) of shape (modes, m).

    Step i maps x to C @ (x, lambda*x, lambda^2*x), C being the (2, 6) matrix
    ``step_matrix(i, rows, x)``, where ``rows`` stacks lambda^j * x, j = 0..degree.
    """
    n = lam.size
    powers = np.stack([lam**j for j in range(degree + 1)])[:, None]
    P = np.empty((degree + 1, 2, n))  # P[j] = lambda^j * x
    rows, low = P.reshape(-1, n), P[:3].reshape(6, n)
    S = np.empty((2, m, n))  # S[:, i] is the state (v, w) at sample i
    S[:, 0] = v0, w0
    x = S[:, 0]
    for i in range(m - 1):
        np.multiply(powers, x, out=P)
        x = np.matmul(step_matrix(i, rows, x), low, out=S[:, i + 1])
    S.setflags(write=False)  # lets Trajectory adopt the buffer without a copy
    return S[0].T, S[1].T


def _rk4_modes(coeff, lam, v0, w0, grid):
    """March all modes along a validated grid; returns (V, W) of shape (modes, times)."""
    _check_guard(float(np.max(coeff.values)), float(np.max(lam)), grid)
    c2_nodes = coeff.evaluate(grid) ** 2
    c2_mids = coeff.evaluate(0.5 * (grid[:-1] + grid[1:])) ** 2
    cv, cw = _rk4_coefficients(np.diff(grid), c2_nodes[:-1], c2_mids, c2_mids, c2_nodes[1:])
    steps = np.stack(np.broadcast_arrays(*cv, *cw), axis=-1).reshape(-1, 2, 6)
    return _rk4_march(lam, v0, w0, grid.size, 2, lambda i, _rows, _x: steps[i])


def solve_mode(
    coeff: CoefficientPath, lam: float, v0: float, v1: float, grid
) -> ModeTrajectory:
    """Integrate one mode equation v'' + c(t)^2 lam v = 0 along ``grid``."""
    if not lam > 0.0:
        raise ValueError("eigenvalue must be positive")
    g = _validate_grid(coeff, grid)
    V, W = _rk4_modes(coeff, np.array([lam]), np.array([float(v0)]), np.array([float(v1)]), g)
    return ModeTrajectory(times=g, v=V[0], vdot=W[0], mu=math.sqrt(lam))


def solve_modes(
    coeff: CoefficientPath,
    basis: ModeBasis,
    position,
    velocity,
    grid,
) -> Trajectory:
    """Integrate every basis mode with a shared coefficient path.

    All modes advance together in one serial sweep over the grid.
    """
    g = _validate_grid(coeff, grid)
    v0 = np.asarray(position, dtype=float)
    w0 = np.asarray(velocity, dtype=float)
    if v0.shape != (basis.count,) or w0.shape != (basis.count,):
        raise ValueError("initial data length must match the basis")
    V, W = _rk4_modes(coeff, basis.eigenvalues, v0, w0, g)
    return Trajectory(basis, g, V, W)


def solve_linear(problem: LinearProblem, grid) -> Trajectory:
    init = problem.initial
    return solve_modes(problem.coeff, problem.basis, init.position, init.velocity, grid)


def mode_trajectory(traj: Trajectory, k: int) -> ModeTrajectory:
    """Extract mode k (0-based) of an aggregated trajectory."""
    return ModeTrajectory(
        times=traj.times,
        v=traj.position[k],
        vdot=traj.velocity[k],
        mu=float(traj.basis.frequencies[k]),
        index=k,
    )


# ---------------------------------------------------------------------------
# Regularised speed, decay rate and its integral
# ---------------------------------------------------------------------------

def _freeze_time(mu: float, cls: AdmissibleClass, s: float):
    """Return (low_frequency, t_freeze).

    Low-frequency modes (T * mu^(1/(qs-s)) <= 1) use the horizon value of the
    speed throughout; high-frequency modes follow the speed up to t_freeze =
    T - mu^(-1/(qs-s)) and hold it constant afterwards.
    """
    if not mu > 0.0:
        raise ValueError("frequency must be positive")
    denom = cls.q * s - s
    if not denom > 0.0:
        raise ValueError(f"need q*s - s > 0, got {denom}")
    p = 1.0 / denom
    if cls.T * mu**p <= 1.0:
        return True, None
    return False, cls.T - mu ** (-p)


def _end_value(coeff: CoefficientPath, cls: AdmissibleClass) -> float:
    # Horizon value of the speed; sampled paths may stop short of T, in which
    # case the final sample stands in for c(T).
    return float(coeff.values[-1]) if coeff.end_time < cls.T else coeff.evaluate(cls.T)


def _regularized_speeds(
    coeff: CoefficientPath, times: np.ndarray, mu: float, cls: AdmissibleClass, s: float
) -> np.ndarray:
    """Regularised speed c_reg of frequency ``mu`` at each of ``times``.

    Low-frequency modes see the constant horizon value; high-frequency modes
    see c(t) until the freeze time and the frozen value c(t_freeze) after it.
    Only times up to the freeze time are evaluated on the path.
    """
    low, t_f = _freeze_time(mu, cls, s)
    if low:
        return np.full(times.shape, _end_value(coeff, cls))
    out = np.full(times.shape, coeff.evaluate(min(t_f, coeff.end_time)))
    follow = times <= t_f
    out[follow] = coeff.evaluate(times[follow])
    return out


def regularized_speed(
    coeff: CoefficientPath, t: float, mu: float, cls: AdmissibleClass, s: float
) -> float:
    """Frequency-dependent regularisation of the speed at one time in [0, T]."""
    if t < 0.0 or t > cls.T * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside [0, {cls.T}]")
    return float(_regularized_speeds(coeff, np.array([float(t)]), mu, cls, s)[0])


def decay_rate(
    coeff: CoefficientPath, t: float, mu: float, cls: AdmissibleClass, s: float
) -> float:
    """Rate 2*(M/m0)*|c_reg - c|*mu + 2*|c_reg'|/c_reg of the energy weight.

    On branches where the regularised speed is constant only the first term
    survives; where it follows the speed only the slope term does.  The slope
    is the path's piecewise value (left limit at sample points).
    """
    if t < 0.0 or t > cls.T * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside [0, {cls.T}]")
    low, t_f = _freeze_time(mu, cls, s)
    gamma = 2.0 * cls.M / cls.m0
    if low:
        return gamma * abs(_end_value(coeff, cls) - coeff.evaluate(t)) * mu
    if t <= t_f:
        return 2.0 * abs(coeff.slope(t)) / coeff.evaluate(t)
    return gamma * abs(coeff.evaluate(t_f) - coeff.evaluate(t)) * mu


def decay_integral_bound(mu: float, cls: AdmissibleClass, s: float) -> float:
    """A-priori bound on the decay-rate integral over [0, T] for one mode.

    Low-frequency branch: 4*M^2/m0 * T^(1-(qs-s)).  High-frequency branch:
    2*K0/(m0*(q-1)) * mu^(1/s) + 4*M^2/m0 * mu^(1 - 1/(qs-s)).
    """
    low, _ = _freeze_time(mu, cls, s)
    if low:
        return 4.0 * cls.M**2 / cls.m0 * cls.T ** (1.0 - (cls.q * s - s))
    return 2.0 * cls.K0 / (cls.m0 * (cls.q - 1.0)) * mu ** (1.0 / s) + (
        4.0 * cls.M**2 / cls.m0 * mu ** (1.0 - 1.0 / (cls.q * s - s))
    )


def _decay_cumulative(
    coeff: CoefficientPath,
    eval_times: np.ndarray,
    mu: float,
    cls: AdmissibleClass,
    s: float,
) -> np.ndarray:
    """Composite trapezoid of the decay rate from 0 to each evaluation time.

    The quadrature splits at every path breakpoint and at the freeze time, so
    each piece lies in a single linear segment of the path and a single branch
    of the rate; within a piece the rate is evaluated with that segment's own
    slope, which sidesteps the slope jumps at breakpoints.
    """
    t_max = float(eval_times[-1])
    low, t_f = _freeze_time(mu, cls, s)
    pts = coeff.times[(coeff.times > 0.0) & (coeff.times < t_max)]
    pts = np.union1d(np.union1d(pts, eval_times), [0.0, t_max])
    if not low and 0.0 < t_f < t_max:
        pts = np.union1d(pts, [t_f])
    a, b = pts[:-1], pts[1:]

    c = coeff.evaluate(pts)
    gap = np.abs(_regularized_speeds(coeff, pts, mu, cls, s) - c)
    gamma = 2.0 * cls.M / cls.m0
    contrib = 0.5 * (b - a) * gamma * mu * (gap[:-1] + gap[1:])
    if not low:
        seg = np.clip(np.searchsorted(coeff.times, a, side="right") - 1, 0, coeff.times.size - 2)
        slopes = coeff.interval_slopes()[seg]
        follow_part = (b - a) * np.abs(slopes) * (1.0 / c[:-1] + 1.0 / c[1:])
        contrib = np.where(b <= t_f, follow_part, contrib)

    cum = np.concatenate(([0.0], np.cumsum(contrib)))
    return cum[np.searchsorted(pts, eval_times, side="left")]


def decay_integral(
    coeff: CoefficientPath, t: float, mu: float, cls: AdmissibleClass, s: float
) -> float:
    """Trapezoid quadrature of the decay rate over [0, t] on the path grid."""
    if t < 0.0 or t > min(cls.T, coeff.end_time) * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside the integrable range")
    if t == 0.0:
        return 0.0
    return float(_decay_cumulative(coeff, np.array([0.0, t]), mu, cls, s)[-1])


# ---------------------------------------------------------------------------
# Weighted per-mode energy and the interval energy bound
# ---------------------------------------------------------------------------

def approximate_energy(
    traj: ModeTrajectory,
    coeff: CoefficientPath,
    cls: AdmissibleClass,
    gp: GevreyParams,
    sigma: float,
) -> np.ndarray:
    """Weighted mode energy (v'^2 + c_reg^2 mu^2 v^2) * k(t) along the grid.

    The weight is k(t) = mu^(2(sigma-1)) * exp(-A(t) + eta*mu^(1/s)) with A
    the cumulative decay-rate integral.  Along exact solutions this energy is
    nonincreasing; the trajectory and the coefficient must share their grid.
    """
    if traj.times.size != coeff.times.size or not np.allclose(
        traj.times, coeff.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectory and coefficient must share the same time grid")
    mu = traj.mu
    c_reg = _regularized_speeds(coeff, coeff.times, mu, cls, gp.s)
    acc = _decay_cumulative(coeff, traj.times, mu, cls, gp.s)
    exponent = -acc + gp.eta * mu ** (1.0 / gp.s) + 2.0 * (sigma - 1.0) * math.log(mu)
    if float(np.max(exponent)) > _LOG_MAX:
        raise RangeOverflowError(
            "energy weight overflows double range",
            log_value=float(np.max(exponent)),
        )
    raw = traj.vdot**2 + (c_reg * mu) ** 2 * traj.v**2
    return raw * np.exp(exponent)


def radius_loss(cls: AdmissibleClass) -> float:
    """Radius the energy estimate consumes: 2*K0/(m0*(q-1)) + 4*M^2/m0."""
    try:
        loss = 2.0 * cls.K0 / (cls.m0 * (cls.q - 1.0)) + 4.0 * cls.M**2 / cls.m0
    except OverflowError:
        loss = math.inf
    if math.isinf(loss):
        raise RangeOverflowError("radius loss overflows double range")
    return loss


def eta_prime(gp: GevreyParams, cls: AdmissibleClass) -> float:
    """Radius left after propagation, eta - radius_loss; sign is reported, not enforced."""
    return gp.eta - radius_loss(cls)


@dataclass(frozen=True, eq=False)
class EnergyBoundReport:
    """Result of the two-sided interval energy audit.

    ``worst_ratio`` is the largest over output times of
    (m0^2 * |u(t)|^2_{sigma, eta'} + |u'(t)|^2_{sigma-1, eta'}) / (C * |data|^2_{eta});
    the estimate asserts it never exceeds 1.
    """

    eta: float
    eta_prime: float
    threshold: float
    constant: float
    data_norm_sq: float
    worst_ratio: float
    worst_time: float
    ratios: np.ndarray
    times: np.ndarray
    passed: bool


def verify_energy_bound(problem: LinearProblem, traj: Trajectory) -> EnergyBoundReport:
    """Audit the interval energy estimate on a computed multi-mode solution.

    Refuses (raises :class:`HypothesisError`) when the Gevrey radius does not
    exceed the loss threshold, since the estimate's conclusion is then vacuous.
    """
    cls = problem.cls
    gp = problem.gevrey
    threshold = radius_loss(cls)
    if not gp.eta > threshold:
        raise HypothesisError(
            f"radius hypothesis unmet: eta = {gp.eta} must exceed "
            f"2*K0/(m0*(q-1)) + 4*M^2/m0 = {threshold}"
        )
    ep = gp.eta - threshold
    s = gp.s
    mu = problem.basis.frequencies
    # The shifted radius needs mu^(1 - 1/(qs-s)) <= 1 + mu^(1/s) for every
    # mode, which holds for all mu >= 1.
    if not np.all(mu ** (1.0 - 1.0 / (cls.q * s - s)) <= 1.0 + mu ** (1.0 / s)):
        raise HypothesisError(
            "frequency inequality mu^(1 - 1/(qs-s)) <= 1 + mu^(1/s) violated; "
            "basis has sub-unit frequencies"
        )

    sigma = problem.sigma
    try:
        const = max(cls.M**2, 1.0) * math.exp(
            4.0 * cls.M**2 / cls.m0 * max(1.0, cls.T ** (1.0 - (cls.q * s - s)))
        )
    except OverflowError:
        const = math.inf
    if math.isinf(const):
        raise RangeOverflowError("energy-bound constant overflows double range")
    u0 = problem.initial.position
    u1 = problem.initial.velocity
    data_sq = (
        gevrey_norm(u0, problem.basis, gp, sigma) ** 2
        + gevrey_norm(u1, problem.basis, gp, sigma - 1.0) ** 2
    )

    with np.errstate(over="raise"):
        try:
            w = np.exp(ep * mu ** (1.0 / s))
        except FloatingPointError as exc:
            raise RangeOverflowError("audit weight overflows double range") from exc
    w_pos = w * mu ** (2.0 * sigma)
    w_vel = w * mu ** (2.0 * (sigma - 1.0))
    lhs = cls.m0**2 * (w_pos @ traj.position**2) + w_vel @ traj.velocity**2

    if data_sq == 0.0:
        ratios = np.zeros(traj.times.size)
    else:
        ratios = lhs / (const * data_sq)
    worst = int(np.argmax(ratios))
    return EnergyBoundReport(
        eta=gp.eta,
        eta_prime=ep,
        threshold=threshold,
        constant=const,
        data_norm_sq=data_sq,
        worst_ratio=float(ratios[worst]),
        worst_time=float(traj.times[worst]),
        ratios=ratios,
        times=np.asarray(traj.times),
        passed=bool(ratios[worst] <= 1.0),
    )
