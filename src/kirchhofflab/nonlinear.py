"""Nonlinear dynamics: fixed-point iteration on the induced speed, and a
direct coupled-mode oracle.

The quasilinear equation couples the modes only through the scalar
sqrt(1 + sum_k lambda_k v_k^2).  Solving the *linear* problem with a given
speed c(t) and reading off that scalar defines the induced-speed map; a fixed
point of the map is a solution of the nonlinear problem.  The direct oracle
integrates the coupled system v_k'' + (1 + sum_j lambda_j v_j^2) lambda_k v_k
= 0 outright and serves as ground truth for the iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficient import AdmissibleClass, CoefficientPath, check_admissibility
from .errors import HypothesisError, RangeOverflowError
from .linear import _check_guard, _rk4_coefficients, _rk4_march, solve_modes
from .spectral import (
    GevreyParams,
    ModeBasis,
    SpectralState,
    Trajectory,
    dirichlet_energy,
    hamiltonian,
    same_basis,
    sobolev_norm,
)


@dataclass(frozen=True, eq=False)
class KirchhoffRun:
    """One nonlinear run: data, horizon and output grid."""

    basis: ModeBasis
    initial: SpectralState
    horizon: float
    gevrey: GevreyParams
    grid: np.ndarray

    def __post_init__(self):
        if not same_basis(self.initial.basis, self.basis):
            raise ValueError("initial state must live on the run basis")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        g = np.array(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if g[0] != 0.0 or abs(g[-1] - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise ValueError("grid must cover [0, horizon]")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    def speed_ceiling(self) -> float:
        """A-priori bound sqrt(1 + 2*H(0)) on the induced speed."""
        return math.sqrt(1.0 + 2.0 * hamiltonian(self.initial))


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Iteration record of the induced-speed fixed point search.

    ``distances[i]`` is the sup-norm move of the i-th map application;
    convergence means the last move fell below the tolerance.  The final
    solution is the linear trajectory computed in the last iteration; the
    speed that produced it is within the last recorded distance of
    ``final_coeff``.
    """

    iterations: int
    distances: tuple[float, ...]
    converged: bool
    final_coeff: CoefficientPath
    final_solution: Trajectory

    def __post_init__(self):
        if any(d < 0.0 for d in self.distances):
            raise ValueError("distances must be nonnegative")


def _sweep(coeff: CoefficientPath, run: KirchhoffRun) -> Trajectory:
    """Solve every mode of ``run``'s data with the speed ``coeff``."""
    return solve_modes(coeff, run.basis, run.initial.position, run.initial.velocity, run.grid)


def induced_speed(coeff: CoefficientPath, run: KirchhoffRun) -> CoefficientPath:
    """Map a speed to the speed induced by the linear solution it generates.

    Solves every mode with ``coeff`` and returns sqrt(1 + D(t)) sampled on the
    run grid, D being the Dirichlet energy of the solution.
    """
    return CoefficientPath(run.grid, _sweep(coeff, run).induced_speed_series())


def fixed_point_solve(
    run: KirchhoffRun,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> FixedPointReport:
    """Iterate the induced-speed map from the constant initial speed.

    Starts from c = sqrt(1 + D(0)), which lies in every admissible class the
    hypotheses produce, and stops when one application moves the speed by less
    than ``tol`` in sup norm.  Non-convergence is reported, not raised: plain
    successive substitution is not guaranteed to converge even when a fixed
    point exists.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    c0 = math.sqrt(1.0 + dirichlet_energy(run.initial))
    coeff = CoefficientPath.constant(c0, run.grid)
    distances: list[float] = []
    for _ in range(max_iter):
        traj = None  # release the previous iterate before the next solve allocates
        traj = _sweep(coeff, run)
        new_values = traj.induced_speed_series()
        d = float(np.max(np.abs(new_values - coeff.values)))
        distances.append(d)
        coeff = CoefficientPath(run.grid, new_values)
        if d < tol:
            break
    return FixedPointReport(
        iterations=len(distances),
        distances=tuple(distances),
        converged=distances[-1] < tol,
        final_coeff=coeff,
        final_solution=traj,
    )


def direct_oracle(run: KirchhoffRun) -> Trajectory:
    """Integrate the coupled mode system directly (4th-order one-step scheme).

    The stability guard uses the a-priori speed ceiling sqrt(1 + 2*H(0)),
    which bounds the induced speed for as long as the energy is conserved.
    Stage k sees the speed a_k = 1 + sum lambda*p_k^2 at p_k = (1 + e_k*lambda)*v
    + (b_k + f_k*lambda)*w, e_k, b_k, f_k set by h and earlier stages: the
    moments sum lambda^j*{vv, vw, ww}, j = 1..3, give every a_k, and the step
    is the linear sweep's with stage speeds a_k.  A stage speed that is not
    finite, as when lambda^3 overflows for eigenvalues above about 1e102,
    raises :class:`RangeOverflowError`.
    """
    lam = run.basis.eigenvalues
    _check_guard(run.speed_ceiling(), float(lam[-1]), run.grid)
    hs = np.diff(run.grid).tolist()

    def step_matrix(i, rows, x):
        moments = (rows[2:] @ x.T).tolist()  # sum lambda^j x_a x_b, j = 1..3
        (vv1, vw1), (_, ww1), (vv2, vw2), (_, ww2), (vv3, vw3), (_, ww3) = moments
        h = hs[i]
        a1 = 1.0 + vv1
        a2 = a1 + h * (vw1 + 0.25 * h * ww1)  # p2 = v + h/2*w
        e = -0.25 * h * h * a1  # p3 = (1 + e*lambda)*v + h/2*w
        a3 = a2 + e * (2.0 * vv2 + h * vw2 + e * vv3)
        e = -0.5 * h * h * a2  # p4 = (1 + e*lambda)*v + (h + e*h/2*lambda)*w
        a4 = a1 + h * (2.0 * vw1 + h * ww1) + e * (
            2.0 * vv2 + 3.0 * h * vw2 + h * h * ww2
            + e * (vv3 + h * vw3 + 0.25 * h * h * ww3)
        )
        if not math.isfinite(a1 + a2 + a3 + a4):
            raise RangeOverflowError(f"a stage speed of step {i + 1} is not finite")
        return np.array(_rk4_coefficients(h, a1, a2, a3, a4))

    init = run.initial
    V, W = _rk4_march(lam, init.position, init.velocity, run.grid.size, 3, step_matrix)
    return Trajectory(run.basis, run.grid, V, W)


@dataclass(frozen=True)
class InducedSpeedReport:
    """Bound checks on a speed produced by the induced-speed map.

    Checks the value bounds 1 <= c <= M, the blow-up envelope K0/(T-t)^q on
    difference quotients, and the stronger uniform slope bound K0/T^q that the
    map actually satisfies.  ``failures`` names each violated bound; an upper
    value-bound failure typically means the energy-gap hypothesis
    2*H(0) < M^2/4 - 1 was not met for the chosen M.
    """

    lower_ok: bool
    upper_ok: bool
    envelope_ok: bool
    uniform_ok: bool
    passed: bool
    worst_lower_margin: float
    worst_upper_margin: float
    worst_envelope_margin: float
    worst_uniform_margin: float
    failures: tuple[str, ...]


def check_induced_speed(
    coeff_out: CoefficientPath,
    M: float,
    K0: float,
    q: float,
    T: float,
    tol: float = 0.0,
) -> InducedSpeedReport:
    """Verify the admissibility bounds on an induced-speed path."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    cls = AdmissibleClass(q=q, M=M, K0=K0, T=T, m0=1.0)
    base = check_admissibility(coeff_out, cls, tol=tol)

    slopes = np.abs(coeff_out.interval_slopes())
    uniform_bound = K0 / T**q
    uniform_margin = float(np.min(uniform_bound + tol - slopes))
    uniform_ok = uniform_margin >= 0.0

    failures = []
    if base.worst_lower_margin < 0.0:
        failures.append("lower value bound 1 <= c violated")
    if base.worst_upper_margin < 0.0:
        failures.append(
            "upper value bound c <= M violated "
            "(energy-gap hypothesis 2*H(0) < M^2/4 - 1 likely unmet)"
        )
    if not base.slope_ok:
        failures.append("slope envelope K0/(T-t)^q violated")
    if not uniform_ok:
        failures.append("uniform slope bound K0/T^q violated")
    return InducedSpeedReport(
        lower_ok=base.worst_lower_margin >= 0.0,
        upper_ok=base.worst_upper_margin >= 0.0,
        envelope_ok=base.slope_ok,
        uniform_ok=uniform_ok,
        passed=not failures,
        worst_lower_margin=base.worst_lower_margin,
        worst_upper_margin=base.worst_upper_margin,
        worst_envelope_margin=base.worst_slope_margin,
        worst_uniform_margin=uniform_margin,
        failures=tuple(failures),
    )


def induced_slope_bound(state: SpectralState) -> float:
    """Norm-product bound on the induced speed's slope at one instant.

    Equals |v|_{H^{3/2}} * |v'|_{H^{1/2}}; the exact slope satisfies
    c~ * c~' = sum_k lambda_k v_k v'_k and c~ >= 1, so the product dominates
    the slope by Cauchy-Schwarz.
    """
    return sobolev_norm(state.position, state.basis, 1.5) * sobolev_norm(
        state.velocity, state.basis, 0.5
    )


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """Difference-energy response to a speed perturbation of size delta.

    ``energies[i]`` is |dw/dt|^2 + c(t_i)^2 |grad w|^2 for w the difference of
    the two linear solutions; ``ratio`` normalises its max by delta^2, which
    stays bounded as delta -> 0 because the source term is linear in the
    speed-squared difference.
    """

    delta: float
    coeff_gap: float
    max_energy: float
    ratio: float
    energies: np.ndarray
    times: np.ndarray


def perturbation_probe(
    run: KirchhoffRun,
    coeff: CoefficientPath,
    delta: float,
    cls: AdmissibleClass | None = None,
) -> PerturbationReport:
    """Solve with a speed and its bump perturbation, and measure the gap energy.

    The bump is sin(pi t / T) scaled by ``delta``, vanishing at both ends.
    When ``cls`` is given, both paths must pass the admissibility audit.
    """
    if delta < 0.0:
        raise ValueError("perturbation size must be nonnegative")
    bump = np.sin(np.pi * coeff.times / run.horizon)
    pert = CoefficientPath(coeff.times, coeff.values + delta * bump)
    if cls is not None:
        for label, path in (("base", coeff), ("perturbed", pert)):
            report = check_admissibility(path, cls, tol=1e-12)
            if not report.passed:
                raise HypothesisError(
                    f"{label} speed leaves the admissible class "
                    f"(margins: lower {report.worst_lower_margin:.3g}, "
                    f"upper {report.worst_upper_margin:.3g}, "
                    f"slope {report.worst_slope_margin:.3g})"
                )

    base = _sweep(coeff, run)
    shifted = _sweep(pert, run)
    dv = shifted.position - base.position
    dw = shifted.velocity - base.velocity
    lam = run.basis.eigenvalues
    c_sq = coeff.evaluate(run.grid) ** 2
    energies = np.sum(dw * dw, axis=0) + c_sq * (lam @ (dv * dv))
    max_energy = float(np.max(energies))
    gap = float(np.max(np.abs(pert.values - coeff.values)))
    return PerturbationReport(
        delta=delta,
        coeff_gap=gap,
        max_energy=max_energy,
        ratio=max_energy / delta**2 if delta > 0.0 else 0.0,
        energies=energies,
        times=run.grid,
    )
