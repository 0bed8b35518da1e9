"""Scenario-driven command-line front end.

Subcommands: simulate, fixedpoint, linear-audit, certify, norms.  Each takes a
scenario JSON file, runs the corresponding solver or audit, writes CSV series
plus a JSON report into the output directory, and encodes the outcome in the
exit status:

    0   success
    2   hypothesis unmet (certificate or audit precondition failed)
    3   fixed-point iteration did not converge
    4   numerical audit failed or solver guard tripped
    64  usage or scenario parse error

Outputs are deterministic: no timestamps, floats rendered with shortest
round-trip decimals, one serial mode sweep (``--workers`` and
KIRCHHOFFLAB_WORKERS are validated for compatibility but change nothing).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificate as cert
from .coefficient import AdmissibleClass, _csv_cells, _write_csv, check_admissibility
from .errors import HypothesisError, RangeOverflowError, ScenarioError, StabilityError
from .linear import (
    LinearProblem,
    approximate_energy,
    decay_integral,
    decay_integral_bound,
    mode_trajectory,
    solve_linear,
    verify_energy_bound,
)
from .nonlinear import (
    KirchhoffRun,
    check_induced_speed,
    direct_oracle,
    fixed_point_solve,
)
from .scenario import MAX_AUDIT_ROWS, Scenario, check_bound, check_tol, load_scenario
from .spectral import GevreyParams, dirichlet_energy, hamiltonian, sobolev_norm, gevrey_norm

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_AUDIT_FAILED = 4
EXIT_USAGE = 64

WORKERS_ENV = "KIRCHHOFFLAB_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_jsonable(payload), f, indent=2)
        f.write("\n")


def _scenario_certificate(scn: Scenario):
    basis = scn.build_basis()
    return cert.check_hypotheses(
        scn.position,
        scn.velocity,
        basis,
        s=scn.gevrey.s,
        eta=scn.gevrey.eta,
        T=scn.horizon,
        M_choice=scn.m_choice,
    )


def _build_run(scn: Scenario) -> KirchhoffRun:
    if scn.grading_ratio is not None:
        raise ScenarioError(f"{scn.name}: a graded grid stops short of the horizon; "
                            "simulate and fixedpoint need a uniform grid")
    basis = scn.build_basis()
    return KirchhoffRun(basis, scn.build_initial(basis), scn.horizon, scn.gevrey, scn.build_grid())


def _write_trajectory(out: Path, scn: Scenario, traj, certificate: cert.Certificate) -> dict:
    # Norm columns use the leftover radius eta' when it is positive.
    if certificate.eta_prime > 0.0:
        gp, which = GevreyParams(scn.gevrey.s, certificate.eta_prime), "eta_prime"
    else:
        gp, which = scn.gevrey, "eta"
    ham = traj.hamiltonian_series()
    speed = traj.induced_speed_series()
    norms = traj.state_gevrey_series(gp)
    path = out / f"{scn.name}-trajectory.csv"
    _write_csv(
        path,
        ["t", "hamiltonian", "induced_speed", "state_gevrey_norm"],
        [traj.times, ham, speed, norms],
    )
    h0 = float(ham[0])
    drift = float(np.max(np.abs(ham - h0)) / max(h0, 1e-30))
    return {
        "trajectory_csv": path.name,
        "H0": h0,
        "relative_hamiltonian_drift": drift,
        "norm_radius_used": which,
        "norm_radius_value": gp.eta,
    }


def cmd_simulate(scn: Scenario, out: Path) -> int:
    traj = direct_oracle(_build_run(scn))
    info = _write_trajectory(out, scn, traj, _scenario_certificate(scn))
    info["name"] = scn.name
    info["command"] = "simulate"
    _write_json(out / f"{scn.name}-report.json", info)
    return EXIT_OK


def cmd_fixedpoint(scn: Scenario, out: Path, tol: float | None) -> int:
    use_tol = scn.tol if tol is None else check_tol(tol, "--tol")
    report = fixed_point_solve(_build_run(scn), tol=use_tol, max_iter=scn.max_iter)

    _write_csv(
        out / f"{scn.name}-distances.csv",
        ["iteration", "distance"],
        [np.arange(1, report.iterations + 1), np.array(report.distances)],
    )
    report.final_coeff.to_csv(out / f"{scn.name}-coefficient.csv")
    certificate = _scenario_certificate(scn)
    info = _write_trajectory(out, scn, report.final_solution, certificate)
    image = check_induced_speed(
        report.final_coeff,
        M=certificate.M,
        K0=certificate.K0,
        q=certificate.q,
        T=scn.horizon,
        tol=1e-8,
    )
    info.update(
        {
            "name": scn.name,
            "command": "fixedpoint",
            "converged": report.converged,
            "iterations": report.iterations,
            "distances": list(report.distances),
            "tolerance": use_tol,
            "certificate": certificate.as_dict(),
            "image_audit": {
                "passed": image.passed,
                "failures": list(image.failures),
                "worst_lower_margin": image.worst_lower_margin,
                "worst_upper_margin": image.worst_upper_margin,
                "worst_envelope_margin": image.worst_envelope_margin,
                "worst_uniform_margin": image.worst_uniform_margin,
            },
        }
    )
    _write_json(out / f"{scn.name}-report.json", info)
    if not report.converged:
        print(f"{scn.name}: fixed point did not converge in {report.iterations} iterations")
        return EXIT_NO_CONVERGENCE
    if not image.passed:
        print(f"{scn.name}: induced-speed bounds failed: {'; '.join(image.failures)}")
        return EXIT_AUDIT_FAILED
    print(f"{scn.name}: converged in {report.iterations} iterations")
    return EXIT_OK


def cmd_linear_audit(scn: Scenario, out: Path) -> int:
    if scn.manufactured is None:
        raise ScenarioError(f"{scn.name}: linear-audit requires options.manufactured")
    m = scn.manufactured
    basis = scn.build_basis()
    grid = scn.build_grid()
    check_bound(scn.name, "audit CSV rows, basis.count x grid points", basis.count * grid.size,
                MAX_AUDIT_ROWS)
    speed = scn.build_speed()
    coeff = speed.sample(grid)
    cls = AdmissibleClass(q=m.q, M=m.M, K0=m.amplitude, T=scn.horizon, m0=m.m0)
    problem = LinearProblem(
        basis=basis,
        coeff=coeff,
        cls=cls,
        initial=scn.build_initial(basis),
        sigma=scn.sigma,
        gevrey=scn.gevrey,
    )

    admissibility = check_admissibility(coeff, cls, tol=1e-12)
    traj = solve_linear(problem, grid)
    bound = verify_energy_bound(problem, traj)  # may raise HypothesisError

    mono_rtol = 1e-6
    quad_tol = 1e-6
    t_cells = list(_csv_cells(traj.times))  # every mode CSV shares the time column
    modes = []
    all_ok = True
    for k in range(basis.count):
        mt = mode_trajectory(traj, k)
        energy = approximate_energy(mt, coeff, cls, scn.gevrey, scn.sigma)
        upticks = np.diff(energy) / np.maximum(energy[:-1], 1e-300)
        worst_uptick = float(np.max(upticks)) if upticks.size else 0.0
        integral = decay_integral(coeff, coeff.end_time, mt.mu, cls, scn.gevrey.s)
        bound_k = decay_integral_bound(mt.mu, cls, scn.gevrey.s)
        ok = worst_uptick <= mono_rtol and integral <= bound_k + quad_tol
        all_ok = all_ok and ok
        _write_csv(
            out / f"{scn.name}-mode{k + 1}.csv",
            ["t", "v", "vdot", "E"],
            [t_cells, mt.v, mt.vdot, energy],
        )
        modes.append(
            {
                "mode": k + 1,
                "mu": mt.mu,
                "worst_energy_uptick": worst_uptick,
                "decay_integral": integral,
                "decay_integral_bound": bound_k,
                "ok": ok,
            }
        )

    passed = bool(admissibility.passed and bound.passed and all_ok)
    _write_json(
        out / f"{scn.name}-audit.json",
        {
            "name": scn.name,
            "command": "linear-audit",
            "passed": passed,
            "admissibility": {
                "passed": admissibility.passed,
                "worst_lower_margin": admissibility.worst_lower_margin,
                "worst_upper_margin": admissibility.worst_upper_margin,
                "worst_slope_margin": admissibility.worst_slope_margin,
            },
            "energy_bound": {
                "passed": bound.passed,
                "worst_ratio": bound.worst_ratio,
                "worst_time": bound.worst_time,
                "constant": bound.constant,
                "eta": bound.eta,
                "eta_prime": bound.eta_prime,
                "threshold": bound.threshold,
                "data_norm_sq": bound.data_norm_sq,
            },
            "monotonicity_rtol": mono_rtol,
            "quadrature_tol": quad_tol,
            "modes": modes,
            "constants": {
                "q": cls.q,
                "M": cls.M,
                "K0": cls.K0,
                "m0": cls.m0,
                "T": cls.T,
                "s": scn.gevrey.s,
                "sigma": scn.sigma,
            },
        },
    )
    if not passed:
        print(f"{scn.name}: linear audit failed (worst ratio {bound.worst_ratio!r})")
        return EXIT_AUDIT_FAILED
    print(f"{scn.name}: linear audit passed (worst ratio {bound.worst_ratio!r})")
    return EXIT_OK


def cmd_certify(scn: Scenario, out: Path) -> int:
    certificate = _scenario_certificate(scn)
    _write_json(
        out / f"{scn.name}-certificate.json",
        {"name": scn.name, "command": "certify", **certificate.as_dict()},
    )
    print(certificate.machine_verdict())
    return EXIT_OK if certificate.passed else EXIT_HYPOTHESIS


def cmd_norms(scn: Scenario) -> int:
    basis = scn.build_basis()
    state = scn.build_initial(basis)
    gp = scn.gevrey
    rows = [
        ("l2_position", sobolev_norm(state.position, basis, 0.0)),
        ("l2_velocity", sobolev_norm(state.velocity, basis, 0.0)),
        ("sobolev_position_0.5", sobolev_norm(state.position, basis, 0.5)),
        ("sobolev_position_1", sobolev_norm(state.position, basis, 1.0)),
        ("sobolev_position_1.5", sobolev_norm(state.position, basis, 1.5)),
        ("sobolev_velocity_0.5", sobolev_norm(state.velocity, basis, 0.5)),
        ("gevrey_position", gevrey_norm(state.position, basis, gp)),
        ("gevrey_velocity", gevrey_norm(state.velocity, basis, gp)),
        ("dirichlet_energy", dirichlet_energy(state)),
        ("hamiltonian", hamiltonian(state)),
        ("data_radius", cert.data_radius(state.position, state.velocity, basis, gp)),
    ]
    for key, value in rows:
        print(f"{key} = {float(value)!r}")
    return EXIT_OK


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ScenarioError(
                f"environment variable {WORKERS_ENV} must be an integer, got {env!r}"
            )
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kirchhofflab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "fixedpoint", "linear-audit", "certify", "norms"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")
        p.add_argument("--workers", type=int, default=None, help="ignored; kept for compatibility")
        p.add_argument("--tol", type=float, default=None, help="override scenario tolerance")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scn = load_scenario(args.config)
        _resolve_workers(args.workers)  # validated only: the mode sweep is serial
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "simulate":
            return cmd_simulate(scn, out)
        if args.subcommand == "fixedpoint":
            return cmd_fixedpoint(scn, out, args.tol)
        if args.subcommand == "linear-audit":
            return cmd_linear_audit(scn, out)
        if args.subcommand == "certify":
            return cmd_certify(scn, out)
        return cmd_norms(scn)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (StabilityError, RangeOverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
