"""Benchmark of the kirchhofflab CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fixedpoint-narrow --seed 1 --seconds 25 --trace 0

The workload's scenario files are generated from the seed.  Each run is one
in-process ``kirchhofflab.cli.main(argv)`` call with the default worker count
(no ``--workers`` flag, ``KIRCHHOFFLAB_WORKERS`` unset), closed loop, one at a
time.  Runs go round the workload's scenarios in whole cycles until
``--seconds`` have passed.  Every run's exit code, report and artefact
digests are checked outside its timed region; a failed check counts the run
as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
number of cycles untraced and then traced, and reports per-layer self times
and counts per run (see spans.py).  Metric names and units come from
BENCHMARK.json.  Human-readable lines come first; the last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
DRIFT_LIMIT = 1e-6
ORACLE_GAP_LIMIT = 1e-6
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import kirchhofflab; "
    "print(time.perf_counter() - t0)"
)
# What these measurements cannot see, recorded with every result.
LIMITS = (
    "wall-clock and peak-RSS only; no hardware perf counters; no system-wide tracing; "
    "no page-cache dropping; other load on the host is not controlled"
)


def import_cli():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (SRC / "kirchhofflab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kirchhofflab package under {SRC}")
    os.environ.pop("KIRCHHOFFLAB_WORKERS", None)
    sys.path.insert(0, str(SRC))
    import kirchhofflab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "kirchhofflab":
        sys.exit(f"perfbench: imported kirchhofflab from {cli.__file__}, not {SRC}")
    return cli


def write_scenarios(docs: list[dict], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = directory / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def measure_setup(docs: list[dict], directory: Path) -> tuple[float, list[Path]]:
    """Median over repeats of a fresh-process package import plus scenario generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        t0 = time.perf_counter()
        configs = write_scenarios(docs, directory)
        samples.append(float(probe.stdout.split()[-1]) + time.perf_counter() - t0)
    return statistics.median(samples), configs


def digests(out: Path) -> dict[str, tuple[str, int]]:
    return {
        p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
        for p in sorted(out.iterdir())
    }


def check_report(command: str, name: str, out: Path) -> str | None:
    """Return what is wrong with a run's report, or None."""
    if command == "simulate":
        report = json.loads((out / f"{name}-report.json").read_text())
        drift = report["relative_hamiltonian_drift"]
        if not drift <= DRIFT_LIMIT:
            return f"relative Hamiltonian drift {drift!r} > {DRIFT_LIMIT}"
    elif command == "fixedpoint":
        report = json.loads((out / f"{name}-report.json").read_text())
        if report["converged"] is not True or report["image_audit"]["passed"] is not True:
            return "fixed point did not converge or failed the image audit"
    else:
        report = json.loads((out / f"{name}-audit.json").read_text())
        ratio = report["energy_bound"]["worst_ratio"]
        if report["passed"] is not True or not ratio <= 1.0:
            return f"linear audit failed (worst ratio {ratio!r})"
    return None


def oracle_gap(config: Path, out: Path, name: str) -> float:
    """Sup distance between the fixed point's final speed and the coupled oracle's."""
    import numpy as np
    from kirchhofflab import KirchhoffRun, direct_oracle, load_scenario

    scn = load_scenario(config)
    basis = scn.build_basis()
    run = KirchhoffRun(
        basis=basis, initial=scn.build_initial(basis), horizon=scn.horizon,
        gevrey=scn.gevrey, grid=scn.build_grid(),
    )
    oracle = direct_oracle(run).induced_speed_series()
    final = np.loadtxt(out / f"{name}-coefficient.csv", delimiter=",", skiprows=1)[:, 1]
    return float(np.max(np.abs(final - oracle)))


class Runner:
    """Runs scenarios through ``cli.main`` and checks what each run wrote."""

    def __init__(self, cli, docs: list[dict], configs: list[Path], out_root: Path):
        self.cli = cli
        self.scenarios = list(zip(docs, configs))
        self.out_root = out_root
        self.first_digests: dict[str, dict] = {}
        self.oracle_checked = False
        self.run_s: list[float] = []
        self.written: list[tuple[int, int]] = []  # (bytes, files) per run, aligned with run_s
        self.failed = 0
        self.problems: list[str] = []

    def run(self, doc: dict, config: Path) -> None:
        name, command = doc["name"], doc["command"]
        out = self.out_root / name
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(config), "--out-dir", str(out)]
        sink = io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)  # looked up per call, so a traced pass sees the span
        except Exception as exc:  # a traceback is a failed run, not the end of the benchmark
            code, problem = None, f"raised {exc!r}"
        finally:
            self.run_s.append(time.perf_counter() - t0)
        if problem is None and code != 0:
            problem = f"exit code {code}"
        found = {}
        if problem is None:
            problem, found = self._check(command, name, config, out)
        self.written.append((sum(size for _, size in found.values()), len(found)))
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")

    def _check(self, command: str, name: str, config: Path, out: Path):
        """Return (what is wrong or None, artefact digests)."""
        try:
            problem = check_report(command, name, out)
            found = digests(out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return f"unreadable output ({exc!r})", {}
        if problem is None and found != self.first_digests.setdefault(name, found):
            problem = "artefacts differ from the first run of the same input"
        if problem is None and command == "fixedpoint" and not self.oracle_checked:
            self.oracle_checked = True
            try:
                gap = oracle_gap(config, out, name)
            except (OSError, ValueError, RuntimeError) as exc:
                gap = exc
            if not (isinstance(gap, float) and gap <= ORACLE_GAP_LIMIT):
                problem = f"fixed point differs from the coupled oracle: {gap!r}"
        return problem, found

    def cell_medians(self) -> dict[str, float]:
        """Median run time of each scenario, in cycle order."""
        k = len(self.scenarios)
        return {doc["name"]: statistics.median(self.run_s[i::k])
                for i, (doc, _) in enumerate(self.scenarios)}

    def cycle(self) -> None:
        for doc, config in self.scenarios:
            self.run(doc, config)

    def run_for(self, seconds: float) -> None:
        """Run whole cycles until ``seconds`` of wall time pass; at least two, so
        every input runs twice and its artefacts are compared."""
        t0 = time.perf_counter()
        done = 0
        while done < 2 or time.perf_counter() - t0 < seconds:
            self.cycle()
            done += 1


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest sample with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that rank is not above the
    median, so the sample just above the median is reported instead, with its
    own percentile.
    """
    xs = sorted(samples)
    rank = max(len(xs) - TAIL_BEYOND, len(xs) // 2 + 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


def cpu_description() -> dict:
    info = {"model": "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def machine(cli) -> dict:
    import numpy

    resolve = getattr(cli, "_resolve_workers", None)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_description(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_workers": resolve(None) if resolve else "unknown",
        "limits": LIMITS,
    }


def end_to_end(runner: Runner, setup_s: float) -> dict:
    n = len(runner.run_s)
    tail_s, tail_pct = tail(runner.run_s)
    print(f"runs: {n}, run_s.tail is p{tail_pct:.1f} of {n} samples")
    for name, median in runner.cell_medians().items():
        print(f"  {name}: median run_s {median!r}")
    print(f"fail_rate: {runner.failed / n!r} ({runner.failed} of {n} runs)")
    return {
        "runs_per_s": n / sum(runner.run_s),
        "run_s.p50": statistics.median(runner.run_s),
        "run_s.tail": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], tracer: spans.Tracer, runner: Runner,
              traced: list[int], untraced_s: float) -> dict:
    """Per-run values of the per-layer metrics, derived from each name's suffix.

    ``traced`` indexes the traced runs; ``untraced_s`` is the summed time of
    the same number of untraced runs of the same scenarios.
    """
    runs = len(traced)
    traced_s = sum(runner.run_s[i] for i in traced)
    values = {
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "cli.bytes_written": sum(runner.written[i][0] for i in traced) / runs,
        "cli.files_written": sum(runner.written[i][1] for i in traced) / runs,
    }
    for name in names:
        if name in values:
            continue
        if name.endswith(".self_s"):
            values[name] = tracer.self_s[name[: -len(".self_s")]] / runs
        elif name.endswith("_per_s"):
            span, measure = name[: -len("_per_s")].rsplit(".", 1)
            busy = tracer.self_s[span]
            values[name] = tracer.counts[f"{span}.{measure}"] / busy if busy else 0.0
        else:
            values[name] = tracer.counts[name] / runs
    spanned = sum(v for k, v in values.items() if k.endswith(".self_s"))
    print(f"traced run_s mean {traced_s / runs!r}, sum of per-layer self_s {spanned!r}, "
          f"untraced run_s mean {untraced_s / runs!r}, {runs} runs each")
    return values


def traced_cycles(runner: Runner, seconds: float):
    """Alternate untraced and traced cycles until ``seconds`` pass.

    Alternating spreads machine noise evenly over both sides of
    ``trace.overhead_frac``.  Returns the tracer, the traced run indices, the
    untraced time, and problems found (counts that differ between cycles of the
    same inputs, or trace points missing from the package).
    """
    tracer = spans.Tracer()
    per_cycle, traced, untraced_s = [], [], 0.0
    t0 = time.perf_counter()
    while not per_cycle or time.perf_counter() - t0 < seconds:
        start = len(runner.run_s)
        runner.cycle()
        untraced_s += sum(runner.run_s[start:])
        before = dict(tracer.counts)
        start = len(runner.run_s)
        spans.install(tracer)
        try:
            runner.cycle()
        finally:
            tracer.restore()
        traced += range(start, len(runner.run_s))
        per_cycle.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    problems = []
    if any(counts != per_cycle[0] for counts in per_cycle):
        problems.append("per-layer counts differ between cycles of the same inputs")
    if tracer.missing:
        problems.append(f"trace points not found: {', '.join(sorted(set(tracer.missing)))}")
    return tracer, traced, untraced_s, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_cli()
    work = WORK / str(os.getpid())
    problems = []
    try:
        docs = workloads.scenarios(args.workload, args.seed)
        if args.trace:
            configs = write_scenarios(docs, work / "scenarios")
        else:
            setup_s, configs = measure_setup(docs, work / "scenarios")
        runner = Runner(cli, docs, configs, work / "out")
        if args.trace:
            table = spec["per_layer"]
            tracer, traced, untraced_s, problems = traced_cycles(runner, args.seconds)
            values = per_layer([m["name"] for m in table], tracer, runner, traced, untraced_s)
        else:
            table = spec["end_to_end"]
            runner.run_for(args.seconds)
            values = end_to_end(runner, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if set(values) != {m["name"] for m in table}:
        sys.exit(f"perfbench: computed metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in table:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    for problem in runner.problems + problems:
        print(f"FAILED {problem}")
    print("machine: " + json.dumps(machine(cli)))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": len(runner.run_s),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
