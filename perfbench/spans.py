"""Per-layer spans recorded from outside the package.

For a traced pass, each traced function is replaced by a wrapper at the place
its caller looks it up: a module global (the modules import names directly,
so ``solve_modes`` is patched in both ``linear`` and ``nonlinear``) or a class
attribute.  A span's self time is its duration minus the durations of the
spans it encloses.  Counts come from arguments and results, never from the
clock, so they repeat exactly for the same inputs.
"""
from __future__ import annotations

import time
from collections import defaultdict


def _mode_steps(_args, traj) -> dict:
    modes, samples = traj.position.shape
    return {"mode_steps": modes * (samples - 1)}


def _solve_counts(args, traj) -> dict:
    # Bytes of the (modes, times) position and velocity arrays, computed from
    # their shapes and dtype; nothing here measures memory traffic.
    return {
        **_mode_steps(args, traj),
        "out_bytes_computed": traj.position.nbytes + traj.velocity.nbytes,
    }


class Tracer:
    """Self time per span name, plus counts per ``<span>.<measure>``."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, count):
        module = name.split(".")[0]

        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{module}.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                for measure, value in count(args, result).items():
                    self.counts[f"{name}.{measure}"] += value
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span called ``name`` until :meth:`restore`."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary of the kirchhofflab package."""
    from kirchhofflab import certificate, cli, coefficient, linear, nonlinear, scenario, spectral

    # The root span: its self time is the cli layer's own work (argument
    # parsing, dispatch, CSV and JSON formatting and writing).
    tracer.patch(cli, "main", "cli")
    tracer.patch(cli, "load_scenario", "scenario.load_scenario")
    tracer.patch(scenario.Scenario, "build_grid", "scenario.build_grid",
                 lambda _args, grid: {"points": grid.size})
    for owner in (cli, nonlinear):
        tracer.patch(owner, "check_admissibility", "coefficient.check_admissibility")
    tracer.patch(coefficient.CoefficientPath, "to_csv", "coefficient.to_csv")
    tracer.patch(spectral.Trajectory, "state_gevrey_series", "spectral.state_gevrey_series",
                 lambda _args, norms: {"samples": norms.size})
    tracer.patch(spectral.Trajectory, "hamiltonian_series", "spectral.hamiltonian_series")
    for owner in (linear, nonlinear):
        tracer.patch(owner, "solve_modes", "linear.solve_modes", _solve_counts)
    for fn in ("approximate_energy", "decay_integral", "verify_energy_bound"):
        tracer.patch(cli, fn, f"linear.{fn}")
    tracer.patch(cli, "fixed_point_solve", "nonlinear.fixed_point_solve",
                 lambda _args, report: {"iterations": report.iterations})
    tracer.patch(cli, "direct_oracle", "nonlinear.direct_oracle", _mode_steps)
    tracer.patch(cli, "check_induced_speed", "nonlinear.check_induced_speed")
    tracer.patch(certificate, "check_hypotheses", "certificate.check_hypotheses")
