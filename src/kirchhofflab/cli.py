"""Scenario-driven command-line front end.

Subcommands: simulate, fixedpoint, linear-audit, certify, norms.  Each takes a
scenario JSON file and runs the corresponding solver or audit without writing
anything; ``main`` then writes its CSV series and JSON report into the output
directory in one write phase and encodes the outcome in the exit status:

    0   success
    2   hypothesis unmet (certificate or audit precondition failed)
    3   fixed-point iteration did not converge
    4   numerical audit failed or solver guard tripped
    64  usage, scenario or work-bound error, an artefact that cannot be written,
        or an allocation that fails (MemoryError)

A run that fails before the write phase writes nothing, and an artefact that
cannot be written, the report included, leaves none of the run's artefacts.
Outputs are deterministic: no timestamps, floats rendered with shortest
round-trip decimals, the modes marched in this process in an order set by their
number.  A run reads only its arguments, its scenario file and the CPU count.
``--workers`` (default the CPU count) is the number of processes that write
linear-audit's mode CSVs and report, capped at the usable CPUs, at MAX_WORKERS
and at the number of files; it is 1 where ``os.fork`` does not exist.  A value
that is not a positive integer exits 64.  The bytes written do not depend on it.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificate as cert
from .coefficient import AdmissibleClass, _shared, _write_files, check_admissibility
from .errors import HypothesisError, RangeOverflowError, ScenarioError, StabilityError
from .linear import (LinearProblem, _mode_audits, decay_integral_bound, solve_linear,
                     verify_energy_bound)
from .linear import approximate_energy, decay_integral  # noqa: F401, perfbench patches them here
from .nonlinear import KirchhoffRun, _oracle_blocks, check_induced_speed, fixed_point_solve
from .nonlinear import direct_oracle  # noqa: F401, perfbench patches it here
from .scenario import (ITER_SAMPLE_MODES, MAX_AUDIT_ROWS, MAX_ITER_MODE_SAMPLES, Scenario,
                       check_bound, check_tol, load_scenario)
from .spectral import (_NORM_CHUNK, GevreyParams, _march_series, dirichlet_energy,
                       gevrey_norm, hamiltonian, sobolev_norm)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_AUDIT_FAILED = 4
EXIT_USAGE = 64

MAX_WORKERS = 8


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


def _report(name: str, payload: dict) -> tuple:
    """The report artefact ``name``: no header, and the JSON text of ``payload``."""
    return name, None, json.dumps(_jsonable(payload), indent=2) + "\n"


def _fields(report, *names) -> dict:
    """The named attributes of ``report``, in order, as a dict for a JSON report."""
    return {name: getattr(report, name) for name in names}


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


def _trajectory(scn: Scenario, certificate: cert.Certificate, series) -> tuple[tuple, dict]:
    """The trajectory CSV job, with the columns ``series(gp)`` at the norm's gp, and its report."""
    # Norm columns use the leftover radius eta' when it is positive.
    if certificate.eta_prime > 0.0:
        gp, which = GevreyParams(scn.gevrey.s, certificate.eta_prime), "eta_prime"
    else:
        gp, which = scn.gevrey, "eta"
    columns = series(gp)  # t, H, sqrt(1 + D) and the norm
    ham = columns[1]
    name = f"{scn.name}-trajectory.csv"
    job = (name, ["t", "hamiltonian", "induced_speed", "state_gevrey_norm"], columns)
    h0 = float(ham[0])
    drift = float(np.max(np.abs(ham - h0)) / max(h0, 1e-30))
    return job, {
        "trajectory_csv": name,
        "H0": h0,
        "relative_hamiltonian_drift": drift,
        "norm_radius_used": which,
        "norm_radius_value": gp.eta,
    }


def cmd_simulate(scn: Scenario) -> tuple:
    # The oracle's blocks are reduced as they are marched: no (samples x modes) array is held.
    run = _build_run(scn)
    blocks = _oracle_blocks(run, _NORM_CHUNK)  # checks the guard
    try:
        certificate = _scenario_certificate(scn)  # it picks the norm's radius
    except Exception:  # raised after the march's own errors
        _march_series(blocks, run.basis, run.grid.size, None)
        raise
    job, info = _trajectory(scn, certificate, lambda gp: [
        run.grid, *_march_series(blocks, run.basis, run.grid.size, gp)])
    info.update(name=scn.name, command="simulate")
    return [job, _report(f"{scn.name}-report.json", info)], EXIT_OK, None


def cmd_fixedpoint(scn: Scenario) -> tuple:
    run = _build_run(scn)
    check_bound(scn.name, f"(basis.count + {ITER_SAMPLE_MODES}) x grid points x options.max_iter",
                (run.basis.count + ITER_SAMPLE_MODES) * run.grid.size * scn.max_iter,
                MAX_ITER_MODE_SAMPLES)
    report = fixed_point_solve(run, tol=scn.tol, max_iter=scn.max_iter)
    coeff = report.final_coeff
    certificate = _scenario_certificate(scn)
    traj = report.live_solution or report.final_solution
    job, info = _trajectory(scn, certificate, lambda gp: [  # t and c: formatted once for both CSVs
        _shared(traj.times, coeff.times), traj.hamiltonian_series(),
        _shared(traj.induced_speed_series(), coeff.values), traj.state_gevrey_series(gp)])
    image = check_induced_speed(coeff, M=certificate.M, K0=certificate.K0, q=certificate.q,
                                T=scn.horizon, tol=1e-8)
    jobs = [
        (f"{scn.name}-distances.csv", ["iteration", "distance"],
         [np.arange(1, report.iterations + 1), np.array(report.distances)]),
        (f"{scn.name}-coefficient.csv", ["t", "c"], [coeff.times, coeff.values]),
        job,
    ]
    info.update(name=scn.name, command="fixedpoint", converged=report.converged,
                iterations=report.iterations, distances=list(report.distances), tolerance=scn.tol,
                certificate=certificate.as_dict(),
                image_audit=_fields(image, "passed", "failures", "worst_lower_margin",
                                    "worst_upper_margin", "worst_envelope_margin",
                                    "worst_uniform_margin"))
    if not report.converged:
        code = EXIT_NO_CONVERGENCE
        message = f"{scn.name}: fixed point did not converge in {report.iterations} iterations"
    elif not image.passed:
        code = EXIT_AUDIT_FAILED
        message = f"{scn.name}: induced-speed bounds failed: {'; '.join(image.failures)}"
    else:
        code, message = EXIT_OK, f"{scn.name}: converged in {report.iterations} iterations"
    return [*jobs, _report(f"{scn.name}-report.json", info)], code, message


def _write_csvs(jobs: list[tuple], workers: int) -> None:
    """Write each ``(path, header, body)`` artefact of ``jobs`` with :func:`_write_files`.

    Forked child ``r`` of ``workers - 1`` writes ``jobs[r::workers]`` and this
    process writes ``jobs[0::workers]``, then reaps every child.  A write or
    allocation failure in any of them raises one :class:`ScenarioError`: this
    process's own first, then the children's in rank order.  Before it raises,
    every job's file is removed, so a failure leaves the same files at every
    worker count.
    """
    workers = min(workers, len(jobs)) or 1  # no jobs: nothing to split
    children, errors = [], []
    try:
        for rank in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    _write_files(jobs[rank::workers])
                    status = 0
                except (OSError, MemoryError) as exc:
                    os.write(write_end, (str(exc) or "out of memory").encode()[:4096])
                finally:
                    os._exit(status)  # never return into the caller's stack
            os.close(write_end)
            children.append((pid, read_end, jobs[rank][0]))
        _write_files(jobs[0::workers])
    except (OSError, MemoryError) as exc:
        errors.append(str(exc) or "out of memory")
    finally:
        for pid, read_end, path in children:
            status = os.waitpid(pid, 0)[1]
            with open(read_end, "rb") as pipe:
                message = pipe.read().decode(errors="replace")
            if status:
                code = os.waitstatus_to_exitcode(status)
                errors.append(message or f"writer process for {path} ended with exit code {code}")
    if errors:
        for job in jobs:
            with contextlib.suppress(OSError):  # a directory in the way, or no file
                os.unlink(job[0])
        raise ScenarioError(errors[0])


def cmd_linear_audit(scn: Scenario) -> tuple:
    speed = scn.build_speed()
    if scn.grading_ratio is None:
        raise ScenarioError(f"{scn.name}: the manufactured speed is undefined at the horizon; "
                            "linear-audit needs a graded grid")
    m = scn.manufactured
    basis = scn.build_basis()
    grid = scn.build_grid()
    check_bound(scn.name, "audit CSV rows, basis.count x grid points", basis.count * grid.size,
                MAX_AUDIT_ROWS)
    coeff = speed.sample(grid)
    cls = AdmissibleClass(q=m.q, M=m.M, K0=m.amplitude, T=scn.horizon, m0=m.m0)
    problem = LinearProblem(basis=basis, coeff=coeff, cls=cls, initial=scn.build_initial(basis),
                            sigma=scn.sigma, gevrey=scn.gevrey)

    admissibility = check_admissibility(coeff, cls, tol=1e-12)
    traj = solve_linear(problem, grid)
    bound = verify_energy_bound(problem, traj)  # may raise HypothesisError

    mono_rtol = 1e-6
    quad_tol = 1e-6
    modes, jobs = [], []
    all_ok = True
    audits = _mode_audits(traj.times, traj.position, traj.velocity, basis.frequencies, coeff,
                          cls, scn.gevrey, scn.sigma)
    for k, (energy, integral, worst_uptick) in enumerate(audits):
        mu, v, vdot = float(basis.frequencies[k]), traj.position[k], traj.velocity[k]
        bound_k = decay_integral_bound(mu, cls, scn.gevrey.s)
        ok = worst_uptick <= mono_rtol and integral <= bound_k + quad_tol
        all_ok = all_ok and ok
        jobs.append((f"{scn.name}-mode{k + 1}.csv", ["t", "v", "vdot", "E"],
                     [traj.times, v, vdot, energy]))  # t: formatted once per group of files
        modes.append({"mode": k + 1, "mu": mu, "worst_energy_uptick": worst_uptick,
                      "decay_integral": integral, "decay_integral_bound": bound_k, "ok": ok})

    passed = bool(admissibility.passed and bound.passed and all_ok)
    audit = {
        "name": scn.name,
        "command": "linear-audit",
        "passed": passed,
        "admissibility": _fields(admissibility, "passed", "worst_lower_margin",
                                 "worst_upper_margin", "worst_slope_margin"),
        "energy_bound": _fields(bound, "passed", "worst_ratio", "worst_time", "constant",
                                "eta", "eta_prime", "threshold", "data_norm_sq"),
        "monotonicity_rtol": mono_rtol,
        "quadrature_tol": quad_tol,
        "modes": modes,
        "constants": {
            **_fields(cls, "q", "M", "K0", "m0", "T"),
            "s": scn.gevrey.s,
            "sigma": scn.sigma,
        },
    }
    code = EXIT_OK if passed else EXIT_AUDIT_FAILED
    verdict = "passed" if passed else "failed"
    message = f"{scn.name}: linear audit {verdict} (worst ratio {bound.worst_ratio!r})"
    return [*jobs, _report(f"{scn.name}-audit.json", audit)], code, message


def cmd_certify(scn: Scenario) -> tuple:
    certificate = _scenario_certificate(scn)
    payload = {"name": scn.name, "command": "certify", **certificate.as_dict()}
    code = EXIT_OK if certificate.passed else EXIT_HYPOTHESIS
    return [_report(f"{scn.name}-certificate.json", payload)], code, certificate.machine_verdict()


def cmd_norms(scn: Scenario) -> tuple:
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
    message = "\n".join(f"{key} = {float(value)!r}" for key, value in rows)
    return [], EXIT_OK, message


COMMANDS = {"simulate": cmd_simulate, "fixedpoint": cmd_fixedpoint,
            "linear-audit": cmd_linear_audit, "certify": cmd_certify, "norms": cmd_norms}


def _resolve_workers(flag: str | None) -> int:
    """Writer processes: ``flag``, else the CPU count, capped."""
    if flag is None:
        value = os.cpu_count() or 1
    else:
        try:
            value = int(flag)
        except ValueError:
            value = 0
        if value < 1:
            raise ScenarioError(f"--workers must be a positive integer, got {flag!r}")
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(value, cpus or 1, MAX_WORKERS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kirchhofflab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")
        p.add_argument("--workers", default=None,
                       help="processes writing linear-audit's mode CSVs, a positive integer "
                            f"(default: CPU count; capped at the CPUs and at {MAX_WORKERS})")
        p.add_argument("--tol", type=float, default=None, help="override scenario tolerance")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built on the first :func:`main` of a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        scn = load_scenario(args.config)
        workers = _resolve_workers(args.workers)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.tol is not None:
            scn = dataclasses.replace(scn, tol=check_tol(args.tol, "--tol"))
        artefacts, code, message = COMMANDS[args.subcommand](scn)
        # Only linear-audit's one CSV per mode repays a fork; the other commands' few do not.
        _write_csvs([(out / name, header, body) for name, header, body in artefacts],
                    workers if args.subcommand == "linear-audit" else 1)
        if message is not None:
            print(message)
        return code
    except (ScenarioError, OSError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"scenario error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (StabilityError, RangeOverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
