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
    _chunked,
    _data_norm_sq,
    _in_range,
    _increasing,
    _readonly,
    same_basis,
)

# Stability guard, not an accuracy bound: largest admissible c_max * sqrt(lambda) * dt.
# RK4 scales a mode's energy by 1 - x^6/72 + x^8/576 a step (x = c*mu*dt), 1 - 2.1e-4
# at the guard, so a 1e-6 H drift needs grids as fine as the shipped and benchmark ones.
GUARD = 0.5
BLOCK_MODES = 48  # the most modes that march in blocks: the per-step loop is faster above it


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
        Trajectory._check_finite(v, w)
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
            raise ValueError("initial state must be on the problem basis")
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


def _validate_grid(coeff: CoefficientPath, grid, lam_max: float) -> np.ndarray:
    """``grid`` as a read-only array, on the path's domain and under the guard at ``lam_max``."""
    g = _increasing(grid, "grid")
    coeff._check_domain(g)
    _check_guard(float(np.max(coeff.values)), lam_max, g)
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


def _rk4_march(lam, v0, w0, m, degree, step_matrix, size=None):
    """March the stacked state x = (v, w) over m samples; yields (V, W), each (modes, k), for
    each consecutive block of k = ``size`` samples (default all m; the last may be short).

    Step i maps x to C @ (x, lambda*x, lambda^2*x), C being the (2, 6) matrix
    ``step_matrix(i, rows, x)``, where ``rows`` stacks lambda^j * x, j = 0..degree.
    Every block is the same buffer, overwritten when the next block is asked for.
    """
    n, size = lam.size, min(size or m, m)
    powers = np.stack([lam**j for j in range(degree + 1)])[:, None]
    P = np.empty((degree + 1, 2, n))  # P[j] = lambda^j * x
    rows, low = P.reshape(2 * degree + 2, n), P[:3].reshape(6, n)
    S = np.empty((2, size, n))  # S[:, i - start] is the state (v, w) at sample i
    S[:, 0] = v0, w0
    x = S[:, 0]
    for start in range(0, m, size):
        stop = min(start + size, m)
        with np.errstate(over="ignore", invalid="ignore"):  # the caller checks finiteness
            for i in range(max(start, 1), stop):
                np.multiply(powers, x, out=P)
                x = np.matmul(step_matrix(i - 1, rows, x), low, out=S[:, i - start])
        S.setflags(write=stop < m)  # lets Trajectory adopt the last block without a copy
        yield S[0, :stop - start].T, S[1, :stop - start].T


def _rk4_blocks(lam, v0, w0, steps):
    """:func:`_rk4_march` of the (steps, 2, 6) stack ``steps`` in blocks of about sqrt(steps)/2
    steps (Blelloch's two-level scan): each block's product of 2x2 propagators, all blocks at
    once; the block start states, in turn; then the steps of every block at once.  The block
    products are held as P - I, so that products of steps near the identity keep their digits.
    No sum runs across modes, so each row's bits depend on its own mode's data alone.
    Phase j, step j of every block, runs on contiguous [row, col, mode, block] arrays, so numpy
    loops along the blocks, not the few modes: each element sees the same operations in the same
    order as in any layout, and (2, samples, modes) S gets the same bits."""
    m, n = steps.shape[0] + 1, lam.size
    size = max(1, math.isqrt((m - 1) // 4))  # of count blocks, only the last may be short
    count = -(-(m - 1) // size)
    K = steps.reshape(-1, 2, 3, 2).transpose(2, 1, 3, 0)[..., None, :]  # [lam^k, row, col, 1, i]
    S = np.empty((2, m, n))
    S[:, 0] = v0, w0
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks finiteness
        lam2 = lam * lam  # inf where lambda^2 overflows, as in the loop

        def propagators(j, stop=None, less=0.0):  # [row, col, mode, block] of step j, minus less
            a, b, d = np.ascontiguousarray(K[..., j::size][..., :stop])
            return (a - less) + b * lam[:, None] + d * lam2[:, None]

        eye = np.eye(2)[:, :, None, None]  # (I + E)(I + T) = I + (E @ T + E + T)
        total = propagators(0, count - 1, eye)  # the last block's product is never used
        for j in range(1, size):
            E = propagators(j, count - 1, eye)
            total = (E[:, 0, None] * total[0] + E[:, 1, None] * total[1]) + E + total
        x = S[:, 0]
        for b, (t0, t1) in enumerate(zip(*total.transpose(1, 3, 0, 2)), 1):  # [row, mode] each
            S[:, b * size] = x = x + (t0 * x[0] + t1 * x[1])
        total = E = None  # the block products go before the fill allocates
        # -0.0 + 0.0 is +0.0, which every guarded step keeps; the last phase rewrites the starts
        x = np.ascontiguousarray(S[:, 0::size][:, :count].transpose(0, 2, 1)) + 0.0
        for j in range(size):
            P = propagators(j)
            x = P[:, 0] * x[0, :, :P.shape[3]] + P[:, 1] * x[1, :, :P.shape[3]]
            S[:, j + 1::size] = x.transpose(0, 2, 1)
        # a row whose lambda^2 * x overflows before the last sample ends non-finite, as in the loop
        if not max(S.max(initial=0.0), -S.min(initial=0.0)) * lam2.max(initial=0.0) < np.inf:
            reach = np.maximum(S[:, :-1].max(axis=(0, 1)), -S[:, :-1].min(axis=(0, 1))) * lam2
            S[:, -1, ~(reach < np.inf)] = np.inf
    S.setflags(write=False)  # lets Trajectory adopt the buffer without a copy
    return S[0].T, S[1].T


def _rk4_modes(coeff, lam, v0, w0, grid):
    """March every given mode on a validated, guarded grid; returns (V, W), (modes, times)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks finiteness
        c2_nodes = coeff.evaluate(grid) ** 2
        c2_mids = coeff.evaluate(0.5 * (grid[:-1] + grid[1:])) ** 2
        cv, cw = _rk4_coefficients(np.diff(grid), c2_nodes[:-1], c2_mids, c2_mids, c2_nodes[1:])
    steps = np.stack(np.broadcast_arrays(*cv, *cw), axis=-1).reshape(-1, 2, 6)
    if lam.size <= BLOCK_MODES:
        return _rk4_blocks(lam, v0, w0, steps)
    return next(_rk4_march(lam, v0, w0, grid.size, 2, lambda i, _rows, _x: steps[i]))


def solve_mode(
    coeff: CoefficientPath, lam: float, v0: float, v1: float, grid
) -> ModeTrajectory:
    """Integrate one mode equation v'' + c(t)^2 lam v = 0 along ``grid``."""
    if not lam > 0.0:
        raise ValueError("eigenvalue must be positive")
    g = _validate_grid(coeff, grid, lam)
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

    Up to BLOCK_MODES modes march in blocks of steps, more together one step at a time;
    every mode's rows are the same in either order up to rounding.
    """
    v0 = np.asarray(position, dtype=float)
    w0 = np.asarray(velocity, dtype=float)
    if v0.shape != (basis.count,) or w0.shape != (basis.count,):
        raise ValueError("initial data length must match the basis")
    g = _validate_grid(coeff, grid, float(basis.eigenvalues[-1]))
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
    try:
        low = cls.T * mu**p <= 1.0
    except OverflowError:  # mu^p beyond the double range: compare logarithms
        low = p * math.log(mu) <= -math.log(cls.T)
    return (True, None) if low else (False, cls.T - mu ** (-p))


def _freeze(coeff: CoefficientPath, mus, cls: AdmissibleClass, s: float):
    """(t_f, c_f) of each frequency of ``mus``: c_reg is the path up to t_f and c_f after it.

    Low-frequency modes get t_f = -inf and the horizon value of the speed; high-frequency
    modes their freeze time and c(t_f).
    """
    t_f = np.array([-math.inf if low else t
                    for low, t in (_freeze_time(mu, cls, s) for mu in mus)])
    c_f = np.empty(t_f.shape)
    high = t_f > -math.inf
    if not high.all():  # a path that stops short of T has its final sample stand in for c(T)
        c_f[~high] = float(coeff.values[-1]) if coeff.end_time < cls.T else coeff.evaluate(cls.T)
    c_f[high] = coeff.evaluate(np.minimum(t_f[high], coeff.end_time))
    return t_f, c_f


def regularized_speed(
    coeff: CoefficientPath, t: float, mu: float, cls: AdmissibleClass, s: float
) -> float:
    """Frequency-dependent regularisation of the speed at one time in [0, T]."""
    if t < 0.0 or t > cls.T * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside [0, {cls.T}]")
    (t_f,), (c_f,) = _freeze(coeff, [mu], cls, s)
    return coeff.evaluate(float(t)) if t <= t_f else float(c_f)


def decay_integral_bound(mu: float, cls: AdmissibleClass, s: float) -> float:
    """A-priori bound on the decay-rate integral over [0, T] for one mode.

    Low-frequency branch: 4*M^2/m0 * T^(1-(qs-s)).  High-frequency branch:
    2*K0/(m0*(q-1)) * mu^(1/s) + 4*M^2/m0 * mu^(1 - 1/(qs-s)).
    """
    low, _ = _freeze_time(mu, cls, s)
    r, what = cls.q * s - s, "decay integral bound"
    if low:
        return _in_range(lambda: 4.0 * cls.M**2 / cls.m0 * cls.T ** (1.0 - r), what)
    return _in_range(lambda: 2.0 * cls.K0 / (cls.m0 * (cls.q - 1.0)) * mu ** (1.0 / s)
                     + 4.0 * cls.M**2 / cls.m0 * mu ** (1.0 - 1.0 / r), what)


def _decay_quadrature(coeff: CoefficientPath, eval_times: np.ndarray, cls: AdmissibleClass,
                      s: float):
    """``cumulative(mus)``: for each frequency of ``mus`` (a float array), the composite
    trapezoid of the decay rate from 0 to each evaluation time, and c_reg on the path's own
    grid, as (modes, times) arrays.

    The quadrature splits at every path breakpoint and at the freeze time, so
    each piece lies in a single linear segment of the path and a single branch
    of the rate; within a piece the rate is evaluated with that segment's own
    slope, which sidesteps the slope jumps at breakpoints.  Pieces past the
    last evaluation time leave the running sum before it unchanged.

    The grid union, the path's values and slopes on it and the index maps are built once.
    A mode's row splits the union at its freeze time if that is a new point, else it ends in
    an unread piece of zero width: its bits are those of a quadrature of that mode alone.
    """
    pts = np.union1d(coeff.times, eval_times)  # the path starts at 0
    n, c = pts.size, coeff.evaluate(pts)
    seg = np.searchsorted(coeff.times, pts[:-1], side="right") - 1  # each piece's segment
    slopes = np.abs(coeff.interval_slopes()[np.clip(seg, 0, coeff.times.size - 2)])
    slopes = np.append(slopes, 0.0)  # and the zero-width piece's
    at_eval, at_path = np.searchsorted(pts, eval_times), np.searchsorted(pts, coeff.times)
    gamma = 2.0 * cls.M / cls.m0
    col = np.arange(n + 1)

    def cumulative(mus):
        t_f, c_f = _freeze(coeff, mus.tolist(), cls, s)
        j = np.searchsorted(pts, t_f)
        split = (0.0 < t_f) & (t_f < pts[-1]) & (pts[np.minimum(j, n - 1)] != t_f)
        j = np.where(split, j, n)[:, None]  # t_f's column, or n: the zero-width piece
        src = col - (col > j)  # the union's point at every other column
        x, cx = pts.take(src, mode="clip"), c.take(src, mode="clip")
        rows = np.flatnonzero(split)
        x[rows, j[rows, 0]] = t_f[rows]
        cx[rows, j[rows, 0]] = c_f[rows]  # c(t_f) is c_f: both are the path at min(t_f, end)
        t_f, c_f = t_f[:, None], c_f[:, None]
        width = x[:, 1:] - x[:, :-1]
        c_reg = np.where(x <= t_f, cx, c_f)
        gap = np.abs(c_reg - cx)
        contrib = 0.5 * width * gamma * mus[:, None] * (gap[:, :-1] + gap[:, 1:])
        # a piece before t_f is the union's own piece: pieces after it take the gap branch
        follow = width * slopes.take(src[:, :-1]) * (1.0 / cx[:, :-1] + 1.0 / cx[:, 1:])
        np.copyto(contrib, follow, where=x[:, 1:] <= t_f)
        cum = np.zeros(x.shape)
        np.cumsum(contrib, axis=1, out=cum[:, 1:])
        at = (n + 1) * np.arange(mus.size)[:, None]  # each row's start in the flat arrays
        return cum.take(at + at_eval + (at_eval >= j)), c_reg.take(at + at_path + (at_path >= j))

    return cumulative


def decay_integral(
    coeff: CoefficientPath, t: float, mu: float, cls: AdmissibleClass, s: float
) -> float:
    """Trapezoid quadrature of the decay rate over [0, t] on the path grid."""
    if t < 0.0 or t > min(cls.T, coeff.end_time) * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside the integrable range")
    return float(_decay_quadrature(coeff, np.array([0.0, t]), cls, s)(np.array([mu]))[0][0, -1])


# ---------------------------------------------------------------------------
# Weighted per-mode energy and the interval energy bound
# ---------------------------------------------------------------------------

_AUDIT_DOUBLES = 1 << 13  # the largest (modes x samples) temporary of the mode audit


def _mode_audits(times, V, W, mus, coeff, cls, gp, sigma):
    """Yield each mode's weighted energy at ``times`` (see :func:`approximate_energy`), decay
    integral A(times[-1]) and largest relative energy rise between neighbouring times, from one
    quadrature of the decay rate; mode k has frequency ``mus[k]`` and (v, v') = (V[k], W[k]).
    ``times`` has the path's size, and the energy at ``times[i]`` takes c_reg at the path's
    ``i``-th time.  Modes go in chunks of temporaries of about _AUDIT_DOUBLES doubles; a mode
    whose weight overflows raises once every mode before it has been yielded."""
    cumulative = _decay_quadrature(coeff, times, cls, gp.s)
    mus = np.asarray(mus, dtype=float)
    step = max(1, _AUDIT_DOUBLES // (times.size + 1))
    for lo in range(0, mus.size, step):
        mu = mus[lo:lo + step]
        acc, c_reg = cumulative(mu)
        # each mode's own terms, Python floats as in an audit of that mode alone
        weight = [gp.eta * m ** (1.0 / gp.s) for m in mu.tolist()]
        order = [(sigma - 1.0) * (2.0 * math.log(m)) for m in mu.tolist()]
        exponent = (-acc + np.array(weight)[:, None]) + np.array(order)[:, None]
        top = np.max(exponent, axis=1)
        over = np.flatnonzero(top > _LOG_MAX)
        size = int(over[0]) if over.size else mu.size
        v, w = V[lo:lo + size], W[lo:lo + size]
        energy = w**2 + (c_reg[:size] * mu[:size, None]) ** 2 * v**2
        energy *= np.exp(exponent[:size])
        upticks = np.diff(energy, axis=1) / np.maximum(energy[:, :-1], 1e-300)
        worst = np.max(upticks, axis=1) if upticks.shape[1] else np.zeros(size)
        yield from zip(energy, acc[:size, -1].tolist(), worst.tolist())
        if size < mu.size:
            raise RangeOverflowError("energy weight overflows double range",
                                     log_value=float(top[size]))


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
    audits = _mode_audits(traj.times, traj.v[None], traj.vdot[None], [traj.mu], coeff, cls, gp,
                          sigma)
    return next(audits)[0]


def radius_loss(cls: AdmissibleClass) -> float:
    """Radius the energy estimate consumes: 2*K0/(m0*(q-1)) + 4*M^2/m0."""
    return _in_range(
        lambda: 2.0 * cls.K0 / (cls.m0 * (cls.q - 1.0)) + 4.0 * cls.M**2 / cls.m0, "radius loss"
    )


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
    const = _in_range(
        lambda: max(cls.M**2, 1.0)
        * math.exp(4.0 * cls.M**2 / cls.m0 * max(1.0, cls.T ** (1.0 - (cls.q * s - s)))),
        "energy-bound constant",
    )
    init = problem.initial
    data_sq = _data_norm_sq(init.position, init.velocity, problem.basis, gp, sigma, "data norm")

    # 2*sigma itself may overflow, and mu ** inf is inf without an overflow flag
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(ep * mu ** (1.0 / s))
        w_pos = w * mu ** (2.0 * sigma)
        w_vel = w * mu ** (2.0 * (sigma - 1.0))
    if not (np.isfinite(w_pos).all() and np.isfinite(w_vel).all()):
        raise RangeOverflowError("audit weight overflows double range")
    lhs = _chunked(lambda v, w: cls.m0**2 * (w_pos @ v**2) + w_vel @ w**2,
                   traj.position, traj.velocity)

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
