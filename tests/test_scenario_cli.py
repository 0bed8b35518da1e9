"""Strict scenario parsing, CLI exit codes and output determinism."""
import contextlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kirchhofflab
from kirchhofflab import ScenarioError, coefficient
from kirchhofflab.cli import (
    COMMANDS as CLI_COMMANDS,
    EXIT_AUDIT_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_WORKERS,
    _build_run,
    _resolve_workers,
    _write_csvs,
    main,
)
from kirchhofflab.coefficient import _shared
from kirchhofflab.nonlinear import fixed_point_solve
from kirchhofflab.scenario import (
    COMMANDS,
    MAX_AUDIT_ROWS,
    MAX_ITER,
    MAX_ITER_MODE_SAMPLES,
    MAX_MODE_SAMPLES,
    MAX_MODES,
    MAX_POINTS,
    _grid_points,
    load_scenario,
    parse_scenario,
)

from conftest import SCENARIO_DIR, scenario_path


def minimal_doc(**overrides):
    doc = {
        "name": "t",
        "basis": {"kind": "interval-dirichlet", "count": 4},
        "initial": {"position": [0.1], "velocity": []},
        "gevrey": {"s": 2.0, "eta": 2.0},
        "horizon": 1.0,
        "grid": {"steps": 50},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def mutated_copy(tmp_path, name, changes):
    """Shipped scenario ``name`` with each dotted-path field of ``changes`` replaced."""
    doc = json.loads(scenario_path(name).read_text())
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[key] = value
    return write_doc(tmp_path, doc)


# A one-mode fixed point within count x points x max_iter <= 2^30 that would march for an hour.
HOUR_LONG_FIXED_POINT = {"basis.count": 1, "grid.steps": MAX_POINTS - 1,
                         "options.max_iter": MAX_ITER}


# The CLI's entry point, then exit 99 if it left a child process unreaped.
MAIN_THEN_CHECK_CHILDREN = """
import os, sys
from kirchhofflab.cli import main
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


def run_cli(tmp_path, command, cfg, *flags, out=None, env=None):
    """Run the CLI in a child process, with a time bound."""
    src = str(Path(kirchhofflab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", MAIN_THEN_CHECK_CHILDREN, command, "--config", cfg,
         "--out-dir", str(out or tmp_path / "out"), *flags],
        env={**os.environ, **(env or {}), "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_in_process(command, cfg, out, seconds=60):
    """Run ``main`` in this process; returns (exit code, stdout, stderr).

    Warnings are errors, so a numpy warning escapes like any exception, and
    SIGALRM bounds the run's time.
    """
    def timed_out(*_):
        raise TimeoutError(f"{command} on {cfg} ran longer than {seconds} s")

    stdout, stderr = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out-dir", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, stdout.getvalue(), stderr.getvalue()


class TestScenarioParsing:
    def test_minimal_document(self):
        scn = parse_scenario(minimal_doc())
        assert scn.name == "t"
        assert scn.basis_count == 4
        assert scn.position[0] == 0.1 and np.all(scn.velocity == 0.0)
        assert scn.tol == 1e-10 and scn.max_iter == 30 and scn.sigma == 1.0

    def test_unknown_keys_rejected_at_every_level(self):
        with pytest.raises(ScenarioError, match="unknown field 'extra'"):
            parse_scenario(minimal_doc(extra=1))
        doc = minimal_doc()
        doc["gevrey"]["bogus"] = 2
        with pytest.raises(ScenarioError, match="gevrey: unknown field 'bogus'"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["grid"]["dt"] = 0.1
        with pytest.raises(ScenarioError, match="grid: unknown field 'dt'"):
            parse_scenario(doc)

    def test_missing_fields_named(self):
        doc = minimal_doc()
        del doc["horizon"]
        with pytest.raises(ScenarioError, match="missing required field 'horizon'"):
            parse_scenario(doc)
        doc = minimal_doc()
        del doc["gevrey"]["s"]
        with pytest.raises(ScenarioError, match="missing required field 's'"):
            parse_scenario(doc)

    def test_null_reads_as_absent_only_without_a_default_value(self):
        scn = parse_scenario(minimal_doc(command=None, options={"M": None}))
        assert scn.command is None and scn.m_choice is None
        for options, message in [({"tol": None}, "options.tol: expected a number, got None"),
                                 ({"manufactured": None}, "options.manufactured: expected an object")]:
            with pytest.raises(ScenarioError, match=message):
                parse_scenario(minimal_doc(options=options))

    def test_range_checks(self):
        with pytest.raises(ScenarioError, match="gevrey.s"):
            parse_scenario(minimal_doc(gevrey={"s": 1.0, "eta": 2.0}))
        with pytest.raises(ScenarioError, match="gevrey.s"):
            parse_scenario(minimal_doc(gevrey={"s": 1e300, "eta": 2.0}))  # 1 + 1/s == 1
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(minimal_doc(horizon=-1.0))
        with pytest.raises(ScenarioError, match="steps"):
            parse_scenario(minimal_doc(grid={"steps": 0}))

    @pytest.mark.parametrize("ratio", [0.01, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("horizon, end_gap", [(1.0, 1e-9), (3.0, 1e-14), (1e5, 1e-3), (0.5, 2**-54)])
    def test_graded_grid_within_its_point_bound(self, ratio, horizon, end_gap):
        doc = minimal_doc(horizon=horizon, grid={"steps": 200, "grading_ratio": ratio, "end_gap": end_gap})
        scn = parse_scenario(doc)
        bound = _grid_points(200, horizon, ratio, end_gap)
        assert scn.build_grid().size <= bound <= MAX_POINTS

    def test_explicit_lists_are_padded_not_truncated(self):
        scn = parse_scenario(minimal_doc(initial={"position": [0.1, 0.2], "velocity": [0.3]}))
        assert np.allclose(scn.position, [0.1, 0.2, 0.0, 0.0])
        assert np.allclose(scn.velocity, [0.3, 0.0, 0.0, 0.0])
        with pytest.raises(ScenarioError, match="5 entries"):
            parse_scenario(minimal_doc(initial={"position": [1, 1, 1, 1, 1]}))

    def test_family_builds_exponential_profile(self):
        doc = minimal_doc(
            initial={"family": {"amplitude": 2.0, "decay": 0.5, "modes": [2, 3]}}
        )
        scn = parse_scenario(doc)
        mu = np.arange(1.0, 5.0)
        expected = np.where(
            (mu >= 2) & (mu <= 3), 2.0 * np.exp(-0.5 * np.sqrt(mu)), 0.0
        )
        assert np.allclose(scn.position, expected, rtol=1e-15)

    def test_family_and_position_conflict(self):
        doc = minimal_doc(
            initial={
                "position": [1.0],
                "family": {"amplitude": 1.0, "decay": 0.0, "modes": [1, 1]},
            }
        )
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(doc)

    def test_bad_json_is_scenario_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(p)

    def test_shipped_scenarios_all_parse(self, scenario_dir):
        files = sorted(scenario_dir.glob("*.json"))
        assert files, "no shipped scenarios found"
        for f in files:
            scn = load_scenario(f)
            assert scn.name == f.stem

    def test_grid_construction(self):
        scn = parse_scenario(minimal_doc(grid={"steps": 4}))
        assert np.allclose(scn.build_grid(), np.linspace(0.0, 1.0, 5))
        scn = parse_scenario(
            minimal_doc(grid={"steps": 100, "grading_ratio": 0.9, "end_gap": 1e-6})
        )
        g = scn.build_grid()
        assert g[-1] == pytest.approx(1.0 - 1e-6)

    def test_end_gap_must_leave_a_representable_stop(self, tmp_path):
        for gap in (1e-17, 1.0, 2.0):
            doc = minimal_doc(grid={"steps": 100, "grading_ratio": 0.9, "end_gap": gap})
            with pytest.raises(ScenarioError, match="end_gap"):
                parse_scenario(doc)
        doc = minimal_doc(grid={"steps": 100, "grading_ratio": 0.9, "end_gap": 1e-17})
        code = main(["simulate", "--config", write_doc(tmp_path, doc), "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE


class TestCliExitCodes:
    def test_simulate_ok(self, tmp_path):
        code = main(
            ["simulate", "--config", str(scenario_path("zero-data")), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert (tmp_path / "zero-data-trajectory.csv").exists()
        assert (tmp_path / "zero-data-report.json").exists()

    def test_simulate_conservation_column(self, tmp_path):
        # same data as the module-level single-mode runs, driven via the CLI
        code = main(
            ["simulate", "--config", str(scenario_path("single-mode-small")), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "single-mode-small-report.json").read_text())
        assert report["relative_hamiltonian_drift"] < 1e-6

    def test_certify_pass_and_fail(self, tmp_path, capsys):
        assert (
            main(["certify", "--config", str(scenario_path("certify-pass")), "--out-dir", str(tmp_path)])
            == EXIT_OK
        )
        assert capsys.readouterr().out.strip() == "PASS"
        assert (
            main(["certify", "--config", str(scenario_path("certify-fail")), "--out-dir", str(tmp_path)])
            == EXIT_HYPOTHESIS
        )
        assert capsys.readouterr().out.startswith("FAIL")

    def test_fixedpoint_ok(self, tmp_path):
        code = main(
            ["fixedpoint", "--config", str(scenario_path("single-mode-small")), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "single-mode-small-report.json").read_text())
        assert report["converged"] is True
        assert report["image_audit"]["passed"] is True

    def test_fixedpoint_non_convergence(self, tmp_path):
        doc = minimal_doc(options={"tol": 1e-14, "max_iter": 1})
        cfg = write_doc(tmp_path, doc)
        code = main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_NO_CONVERGENCE

    def test_guard_violation_exit(self, tmp_path, capsys):
        doc = minimal_doc(basis={"kind": "interval-dirichlet", "count": 32}, grid={"steps": 10})
        cfg = write_doc(tmp_path, doc)
        code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_AUDIT_FAILED
        assert "dt <=" in capsys.readouterr().err

    def test_non_finite_speed_ceiling_is_an_overflow(self, tmp_path, capsys):
        cfg = mutated_copy(tmp_path, "certify-pass", {"initial.position": [1e150]})
        code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_AUDIT_FAILED
        err = capsys.readouterr().err
        assert "not finite" in err and "dt <=" not in err

    @pytest.mark.parametrize(
        "command, name, changes, expected",
        [
            ("certify", "certify-pass", {"initial.position": [1e300]}, EXIT_AUDIT_FAILED),
            ("norms", "norms-demo", {"initial.position": [1e300]}, EXIT_AUDIT_FAILED),
            ("linear-audit", "linear-audit", {"options.manufactured.M": 1e300}, EXIT_AUDIT_FAILED),
            (
                "linear-audit",
                "linear-audit",
                {"options.manufactured.M": 20.0, "gevrey.eta": 2000.0,
                 "initial": {"position": [1e-300]}},
                EXIT_AUDIT_FAILED,
            ),
            ("certify", "certify-pass", {"gevrey.s": 1e300}, EXIT_USAGE),
            ("fixedpoint", "two-mode", {"initial.velocity": [1e200]}, EXIT_AUDIT_FAILED),
            # lambda^2 * x overflows inside the march, though D(0) and the guard are finite
            ("fixedpoint", "two-mode",
             {"initial": {"position": [0.1, 0.05], "velocity": [0, 1e308]}}, EXIT_AUDIT_FAILED),
            ("linear-audit", "linear-audit", {"initial": {"position": [0, 1e308]}},
             EXIT_AUDIT_FAILED),
            ("simulate", "linear-audit", {}, EXIT_USAGE),  # graded grid
            ("fixedpoint", "linear-audit", {}, EXIT_USAGE),
        ],
    )
    def test_overflowing_scenarios_exit_cleanly(self, tmp_path, command, name, changes, expected):
        proc = run_cli(tmp_path, command, mutated_copy(tmp_path, name, changes))
        assert proc.returncode == expected, proc.stderr
        # one message line: no traceback, no numpy warning before it
        prefix = "numerical failure: " if expected == EXIT_AUDIT_FAILED else "scenario error: "
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr

    @pytest.mark.parametrize("a", [1e-80, 1e-100, 1e-120])
    def test_overflowing_horizon_power_is_not_a_traceback(self, tmp_path, a):
        # T**q overflows while K0 itself fits in a double
        cfg = mutated_copy(tmp_path, "certify-pass", {"horizon": 1e300, "initial.position": [a]})
        proc = run_cli(tmp_path, "certify", cfg)
        assert proc.returncode in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_AUDIT_FAILED, EXIT_USAGE), proc.stderr
        assert len(proc.stderr.splitlines()) <= 1, proc.stderr

    @pytest.mark.parametrize(
        "command, name, changes, bound",
        [
            ("certify", "certify-pass", {"basis.count": 10**12}, MAX_MODES),
            ("fixedpoint", "two-mode", {"grid.steps": 10**9}, MAX_POINTS),
            ("fixedpoint", "two-mode", {"basis.count": 4096, "grid.steps": 2**14}, MAX_MODE_SAMPLES),
            # gaps shrink by 1e-12 a step: about 1e13 graded points
            ("linear-audit", "linear-audit", {"grid.grading_ratio": 1.0 - 1e-12}, MAX_POINTS),
            ("fixedpoint", "two-mode", {"options.max_iter": 10**9}, MAX_ITER),
            # 1.7e7 mode-samples a sweep, 100 sweeps
            ("fixedpoint", "two-mode",
             {"basis.count": 1024, "grid.steps": 2**14, "options.max_iter": 100},
             MAX_ITER_MODE_SAMPLES),
            # about 2.1e6 output rows; checked after the grid is built, before the solve
            ("linear-audit", "linear-audit", {"basis.count": 1024}, MAX_AUDIT_ROWS),
            # one mode, 2^20 points, 1000 iterations: about an hour at 4-5 us a sample-iteration,
            # though count x points x max_iter is below 2^30; priced per sample, before the solve
            ("fixedpoint", "single-mode-small", HOUR_LONG_FIXED_POINT, MAX_ITER_MODE_SAMPLES),
        ],
    )
    def test_oversized_scenarios_exit_64(self, tmp_path, command, name, changes, bound):
        # rejected before anything of that size is allocated or solved
        proc = run_cli(tmp_path, command, mutated_copy(tmp_path, name, changes))
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: "), proc.stderr
        assert f"bound {bound}" in lines[0] or f"<= {bound}" in lines[0], lines[0]

    def test_only_fixedpoint_prices_max_iter(self, tmp_path):
        # the per-sample corner that fixedpoint refuses above: norms does not iterate
        cfg = mutated_copy(tmp_path, "single-mode-small", HOUR_LONG_FIXED_POINT)
        code, out, err = run_in_process("norms", cfg, tmp_path / "out")
        assert code == EXIT_OK, err

    def test_linear_audit_requires_manufactured(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, minimal_doc())
        code = main(["linear-audit", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "manufactured" in capsys.readouterr().err

    def test_linear_audit_hypothesis_gate(self, tmp_path, capsys):
        doc = minimal_doc(
            gevrey={"s": 2.0, "eta": 0.5},
            grid={"steps": 200, "grading_ratio": 0.9, "end_gap": 1e-6},
            options={"manufactured": {"q": 1.5, "amplitude": 0.1, "offset": 2.0, "M": 1.3}},
        )
        cfg = write_doc(tmp_path, doc)
        code = main(["linear-audit", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_HYPOTHESIS
        assert "hypothesis unmet" in capsys.readouterr().err

    def test_malformed_configs_exit_64(self, tmp_path, capsys):
        missing = write_doc(tmp_path, {k: v for k, v in minimal_doc().items() if k != "horizon"}, "m1.json")
        assert main(["simulate", "--config", missing]) == EXIT_USAGE
        assert "horizon" in capsys.readouterr().err

        unknown = write_doc(tmp_path, minimal_doc(surprise=1), "m2.json")
        assert main(["simulate", "--config", unknown]) == EXIT_USAGE
        assert "surprise" in capsys.readouterr().err

        syntax = tmp_path / "m3.json"
        syntax.write_text("{]")
        assert main(["simulate", "--config", str(syntax)]) == EXIT_USAGE

        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE

    def test_usage_errors_exit_64(self):
        assert tuple(CLI_COMMANDS) == COMMANDS  # the scenario's command hint names a subcommand
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["simulate"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    def test_norms_prints_table(self, capsys):
        assert main(["norms", "--config", str(scenario_path("norms-demo"))]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hamiltonian = " in out
        assert "data_radius = " in out

    def test_tol_flag_overrides_scenario(self, tmp_path):
        cfg = str(scenario_path("single-mode-small"))
        code = main(
            ["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path), "--tol", "0.01"]
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "single-mode-small-report.json").read_text())
        assert report["tolerance"] == 0.01
        assert report["iterations"] == 1  # the loose tolerance converges immediately

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["fixedpoint", "certify", "simulate"])
    def test_tol_flag_is_range_checked(self, tmp_path, tol, command):
        cfg = str(scenario_path("two-mode"))
        proc = run_cli(tmp_path, command, cfg, "--tol", tol)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: --tol: "), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["0", "-5", "abc", "2.5", ""])
    def test_workers_must_be_a_positive_integer(self, tmp_path, value):
        cfg = str(scenario_path("certify-pass"))
        proc = run_cli(tmp_path, "certify", cfg, f"--workers={value}")
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines == [f"scenario error: --workers must be a positive integer, got {value!r}"]
        assert proc.stdout == ""

    def test_workers_cap(self, monkeypatch):
        # the resolver alone: nothing runs, so nothing forks
        cap = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
        assert _resolve_workers("1000000") == cap
        assert _resolve_workers("1") == 1
        assert _resolve_workers(None) == min(os.cpu_count(), cap)
        monkeypatch.delattr(os, "fork")
        assert _resolve_workers("1000000") == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("blocked", ["out-dir", "mode2", "mode3", "report"])
    def test_unwritable_artefacts_exit_64(self, tmp_path, workers, blocked):
        # at --workers 2, mode2 falls to the forked writer, mode3 and the report to the parent
        out = tmp_path / "out"
        if blocked == "out-dir":
            out.write_text("")
            path = out
        else:
            name = "audit.json" if blocked == "report" else f"{blocked}.csv"
            path = out / f"linear-audit-{name}"
            path.mkdir(parents=True)
        proc = run_cli(tmp_path, "linear-audit", str(scenario_path("linear-audit")),
                       "--workers", workers, out=out)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: "), proc.stderr
        assert str(path) in lines[0]
        if blocked != "out-dir":  # no artefact is left, whichever process wrote it
            assert [p.name for p in out.iterdir()] == [path.name]

    def test_killed_writer_is_a_scenario_error(self, tmp_path):
        parent = os.getpid()

        class KillsChild(list):
            def __len__(self):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().__len__()

        jobs = [(tmp_path / f"m{k}.csv", ["x"], [KillsChild(["1.0"])]) for k in range(3)]
        with pytest.raises(ScenarioError, match=rf"{jobs[1][0]}.*exit code -{signal.SIGKILL}"):
            _write_csvs(jobs, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.iterdir()) == []  # the files written before the failure are gone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_allocation_while_writing_leaves_nothing(self, tmp_path, workers):
        # at 2 workers m1.csv fails in the forked writer and reports through its pipe
        class NoMemory(list):
            def __len__(self):
                raise MemoryError

        jobs = [(tmp_path / f"m{k}.csv", ["x"], [column(["1.0"])])
                for k, column in enumerate((list, NoMemory))]
        with pytest.raises(ScenarioError, match="^out of memory$"):
            _write_csvs(jobs, workers)
        assert list(tmp_path.iterdir()) == []  # m0.csv, written before the failure, is gone

    def test_no_jobs_write_nothing(self, tmp_path):
        _write_csvs([], 2)
        assert list(tmp_path.iterdir()) == []

    def test_failure_after_the_solve_writes_nothing(self, tmp_path):
        # the horizon power underflows in the certificate, after the fixed point is solved
        cfg = mutated_copy(tmp_path, "two-mode", {"horizon": 1e-300})
        code, out, err = run_in_process("fixedpoint", cfg, tmp_path / "out")
        assert code == EXIT_AUDIT_FAILED, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), err
        assert out == ""
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("blocked", ["two-mode-trajectory.csv", "two-mode-report.json",
                                         "two-mode-coefficient.csv"])
    def test_unwritable_fixedpoint_csv_leaves_no_csv(self, tmp_path, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code, stdout, err = run_in_process("fixedpoint", scenario_path("two-mode"), out)
        assert code == EXIT_USAGE, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: "), err
        assert stdout == ""
        assert [p.name for p in out.iterdir()] == [blocked]

    def test_coefficient_csv_matches_to_csv(self, tmp_path):
        scn = load_scenario(scenario_path("two-mode"))
        report = fixed_point_solve(_build_run(scn), tol=scn.tol, max_iter=scn.max_iter)
        report.final_coeff.to_csv(tmp_path / "expected.csv")
        assert main(["fixedpoint", "--config", str(scenario_path("two-mode")),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        cli_csv = (tmp_path / "out" / "two-mode-coefficient.csv").read_bytes()
        assert cli_csv == (tmp_path / "expected.csv").read_bytes()

    def test_coefficient_csv_is_the_trajectory_t_and_induced_speed(self, tmp_path):
        assert main(["fixedpoint", "--config", str(scenario_path("two-mode")),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        coeff = (tmp_path / "two-mode-coefficient.csv").read_text().splitlines()
        rows = [row.split(",") for row in
                (tmp_path / "two-mode-trajectory.csv").read_text().splitlines()[1:]]
        assert coeff[0] == "t,c" and len(rows) > 1000
        assert coeff[1:] == [f"{t},{speed}" for t, _, speed, _ in rows]

    def test_a_column_off_by_its_last_bit_is_formatted_on_its_own(self, tmp_path, monkeypatch):
        formatted = []
        cells = coefficient._csv_cells
        monkeypatch.setattr(coefficient, "_csv_cells", lambda columns, rows: formatted.append(
            [id(c) for c in columns]) or cells(columns, rows))
        t = np.linspace(0.0, 1.0, 3 * coefficient._CSV_BLOCK // 2)
        c = 1.0 + t * t
        near = np.nextafter(c, np.inf)
        near[:-1] = c[:-1]  # one ulp apart at the last sample only
        assert _shared(c.copy(), c) is c and _shared(near, c) is near
        assert _shared(np.array([-0.0]), np.array([0.0])).tobytes() == np.array([-0.0]).tobytes()
        coefficient._write_files([(tmp_path / "a.csv", ["t", "c"], [t, c]),
                                  (tmp_path / "b.csv", ["t", "c"], [t, _shared(c.copy(), c)]),
                                  (tmp_path / "n.csv", ["t", "c"], [t, _shared(near, c)])])
        # the shared t and c in one call a block, near on its own
        assert formatted == [[id(t), id(c)], [id(near)]] * 2
        a, b, n = ((tmp_path / f"{k}.csv").read_text().splitlines() for k in "abn")
        assert a == b and a[:-1] == n[:-1] and a[-1] != n[-1]
        assert n[-1] == f"{float(t[-1])!r},{float(near[-1])!r}" and near[-1] != c[-1]

    def test_a_writer_holds_at_most_its_open_files_at_once(self, tmp_path, monkeypatch):
        # the mode files of linear-audit's scenario at one writer, three files at a time
        cfg = str(scenario_path("linear-audit"))
        argv = ["linear-audit", "--config", cfg, "--workers", "1", "--out-dir"]
        assert main([*argv, str(tmp_path / "all")]) == EXIT_OK
        files, most = [], []

        def counted_open(*args, **kwargs):
            files.append(open(*args, **kwargs))
            most.append(sum(not f.closed for f in files))
            return files[-1]

        monkeypatch.setattr(coefficient, "open", counted_open, raising=False)
        monkeypatch.setattr(coefficient, "_OPEN_FILES", 3)
        assert main([*argv, str(tmp_path / "three")]) == EXIT_OK
        assert max(most) == 3 and len(files) > 3 * coefficient._OPEN_FILES
        assert ({p.name: p.read_bytes() for p in (tmp_path / "three").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()})

    def test_run_reads_no_environment_variable_for_workers(self, tmp_path):
        # --workers is the only input for the writer count: a former variable changes nothing
        cfg = str(scenario_path("linear-audit"))
        plain = run_cli(tmp_path, "linear-audit", cfg, out=tmp_path / "plain")
        env = run_cli(tmp_path, "linear-audit", cfg, out=tmp_path / "env",
                      env={"KIRCHHOFFLAB_WORKERS": "nope"})
        assert plain.returncode == env.returncode == EXIT_OK, env.stderr
        assert (env.stdout, env.stderr) == (plain.stdout, plain.stderr)
        files = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "env").iterdir())
        for name in files:
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Inputs that each ended in a traceback or a numpy warning: one per kind of escape.
ESCAPES = [
    pytest.param("fixedpoint", "two-mode", {"initial.position": [1e300]}, EXIT_AUDIT_FAILED,
                 "Dirichlet", id="initial-dirichlet-energy-overflows"),
    pytest.param("fixedpoint", "two-mode", {"horizon": 1e-300}, EXIT_AUDIT_FAILED, "T^q",
                 id="horizon-power-underflows"),
    pytest.param("linear-audit", "linear-audit", {"options.manufactured.m0": 5e-324},
                 EXIT_AUDIT_FAILED, "radius loss", id="radius-loss-divisor-underflows"),
    pytest.param("linear-audit", "linear-audit", {"initial.family.amplitude": 1e300},
                 EXIT_AUDIT_FAILED, "data norm", id="data-norm-overflows"),
    pytest.param("linear-audit", "linear-audit", {"options.manufactured.q": 2.0**40},
                 EXIT_AUDIT_FAILED, "manufactured speed", id="manufactured-phase-overflows"),
    pytest.param("linear-audit", "linear-audit", {"options.manufactured.amplitude": 1e300},
                 EXIT_AUDIT_FAILED, "grid too coarse", id="slope-overflow-warning"),
    pytest.param("fixedpoint", "conservation-n32", {"initial.family.amplitude": 1.5}, EXIT_OK,
                 "", id="envelope-overflow-warning"),
    pytest.param("simulate", "two-mode", {"horizon": 5e-324}, EXIT_USAGE, "grid.steps = 2000",
                 id="grid-finer-than-horizon"),
    pytest.param("linear-audit", "linear-audit", {"options.manufactured.m0": 1.5}, EXIT_USAGE,
                 "<= M", id="m0-above-M"),
    pytest.param("linear-audit", "linear-audit", {"grid.grading_ratio": None}, EXIT_USAGE,
                 "graded grid", id="audit-on-uniform-grid"),
    pytest.param("linear-audit", "linear-audit",
                 {"options.manufactured.q": 1.001, "options.manufactured.amplitude": 0},
                 EXIT_OK, "", id="freeze-time-power-overflows"),
    pytest.param("simulate", "band-limited-n16", {"initial.family.decay": sys.float_info.max},
                 EXIT_OK, "", id="family-decay-overflows"),
    pytest.param("simulate", "band-limited-n16", {"gevrey.eta": sys.float_info.max},
                 EXIT_AUDIT_FAILED, "weighted norm", id="gevrey-weight-overflows"),
    pytest.param("linear-audit", "linear-audit", {"options.sigma": sys.float_info.max},
                 EXIT_AUDIT_FAILED, "weighted norm", id="sobolev-weight-overflows"),
    pytest.param("simulate", "zero-data", {"gevrey.eta": sys.float_info.max}, EXIT_OK, "",
                 id="zero-data-weight-overflows"),
    pytest.param("linear-audit", "linear-audit",
                 {"options.sigma": 400, "initial": {"position": [1.0]}}, EXIT_AUDIT_FAILED,
                 "audit weight overflows double range", id="audit-weight-overflows"),
    pytest.param("linear-audit", "linear-audit",
                 {"options.sigma": sys.float_info.max, "initial": {"position": [1.0]}},
                 EXIT_AUDIT_FAILED, "audit weight overflows double range",
                 id="audit-weight-order-overflows"),
    # c = 1e100 at c*sqrt(lambda)*dt = 0.004: the step coefficients' a1*a3 overflow, and at
    # 1e-300 h^4 underflows to 0 against an infinite product; the march refuses what they give
    pytest.param("fixedpoint", "two-mode", {"initial.position": [1e100], "horizon": 1e-99},
                 EXIT_AUDIT_FAILED, "must be finite", id="step-coefficients-overflow"),
    pytest.param("fixedpoint", "two-mode", {"initial.position": [1e100], "horizon": 1e-300},
                 EXIT_AUDIT_FAILED, "must be finite", id="step-coefficients-invalid"),
]

# Replacement values of the CLI fuzz: the double range's edges, huge ints, wrong types.
FUZZ_VALUES = [0, -1, 1e300, -1e300, sys.float_info.max, 1e-300, 5e-324, 2**40, 1.5, "x", None,
               True]
SHIPPED = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def _paths(node, path=()):
    """(path, is_number) of every list entry and object value under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutate(draw, doc):
    """Drop one key of ``doc``, replace one number by a fuzz value, or put a fuzz value at
    any mode of its initial position (in place of a family) or velocity."""
    initial, count = doc.get("initial"), doc.get("basis", {}).get("count")
    kinds = ["drop", "number"]
    if isinstance(initial, dict) and type(count) is int and 1 <= count <= MAX_MODES:
        kinds.append("mode")
    kind = draw(st.sampled_from(kinds))
    if kind == "mode":
        key = draw(st.sampled_from(["position", "velocity"]))
        k = draw(st.integers(0, count - 1))
        listed = initial.get(key, [])
        initial[key] = listed + [0.0] * (k + 1 - len(listed))
        initial[key][k] = draw(st.sampled_from(FUZZ_VALUES))
        if key == "position":
            initial.pop("family", None)
        return
    paths = list(_paths(doc))
    keys = [p for p, _ in paths if isinstance(p[-1], str)]
    numbers = [p for p, is_number in paths if is_number]
    drop = kind == "drop"
    *parents, last = draw(st.sampled_from(keys if drop else numbers))
    node = doc
    for part in parents:
        node = node[part]
    if drop:
        del node[last]
    else:
        node[last] = draw(st.sampled_from(FUZZ_VALUES))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one or two mutations of :func:`_mutate`."""
    doc = json.loads(scenario_path(draw(st.sampled_from(SHIPPED))).read_text())
    for _ in range(draw(st.integers(1, 2))):
        _mutate(draw, doc)
    return doc


# Grading ratios for a uniform-grid scenario: typical, near 1, and the double range's bottom.
GRADINGS = [0.5, 0.9, 0.999, 1e-300, 5e-324]
UNIFORM = [name for name in SHIPPED
           if "grading_ratio" not in json.loads(scenario_path(name).read_text())["grid"]]


@st.composite
def graded_scenarios(draw):
    """A uniform-grid shipped scenario given a grading ratio, and maybe an end gap."""
    doc = json.loads(scenario_path(draw(st.sampled_from(UNIFORM))).read_text())
    doc["grid"]["grading_ratio"] = draw(st.sampled_from(GRADINGS))
    end_gap = draw(st.none() | st.sampled_from([1e-9, 1e-3, 0.5, 1e-300, 5e-324]))
    if end_gap is not None:
        doc["grid"]["end_gap"] = end_gap
    return doc


def assert_documented_exit(doc, command, child=False):
    """``command`` on scenario ``doc`` exits 0/2/3/4/64 with at most one stderr line.

    With ``child``, the run is a child process, so a hang past :func:`run_cli`'s
    time bound or a death by signal fails too.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scn.json"
        cfg.write_text(json.dumps(doc))
        if child:
            proc = run_cli(Path(tmp), command, str(cfg))
            code, err = proc.returncode, proc.stderr
        else:
            code, _, err = run_in_process(command, cfg, Path(tmp) / "out")
    assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_NO_CONVERGENCE, EXIT_AUDIT_FAILED,
                    EXIT_USAGE), err
    assert len(err.splitlines()) <= 1, err


class TestMutatedScenarios:
    @pytest.mark.parametrize("command, name, changes, expected, message", ESCAPES)
    def test_escapes_end_in_one_line(self, tmp_path, command, name, changes, expected, message):
        cfg = mutated_copy(tmp_path, name, changes)
        code, _, err = run_in_process(command, cfg, tmp_path / "out")
        assert code == expected, err
        if expected == EXIT_OK:
            assert err == ""
        else:
            prefix = "numerical failure: " if expected == EXIT_AUDIT_FAILED else "scenario error: "
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(prefix) and message in lines[0], err

    @settings(max_examples=300, deadline=None)
    @given(doc=mutated_scenarios(), command=st.sampled_from(list(COMMANDS)))
    def test_every_mutation_ends_in_a_documented_exit(self, doc, command):
        assert_documented_exit(doc, command)

    @settings(max_examples=100, deadline=None)
    @given(doc=graded_scenarios(), command=st.sampled_from(list(COMMANDS)))
    def test_every_grading_ends_in_a_documented_exit(self, doc, command):
        assert_documented_exit(doc, command)

    @settings(max_examples=8, deadline=None)
    @given(doc=mutated_scenarios(), command=st.sampled_from(list(COMMANDS)))
    def test_mutations_in_a_child_process_end_in_a_documented_exit(self, doc, command):
        assert_documented_exit(doc, command, child=True)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self, tmp_path):
        cfg = str(scenario_path("two-mode"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fixedpoint", "--config", cfg, "--out-dir", str(a), "--workers", "1"]) == EXIT_OK
        assert main(["fixedpoint", "--config", cfg, "--out-dir", str(b), "--workers", "3"]) == EXIT_OK
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("count", [16, 5, 1])
    def test_linear_audit_bytes_do_not_depend_on_workers(self, tmp_path, count):
        # 5 mode files do not split evenly; 1 file caps the writers at 1
        cfg = mutated_copy(tmp_path, "linear-audit", {"basis.count": count,
                                                      "initial.family.modes": [1, count]})
        outs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            assert main(["linear-audit", "--config", cfg, "--out-dir", str(out),
                         "--workers", workers]) == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outs[0]) == count + 1
        assert outs[0] == outs[1] == outs[2]

    def test_trajectory_csv_round_trip_precision(self, tmp_path):
        assert (
            main(["simulate", "--config", str(scenario_path("zero-data")), "--out-dir", str(tmp_path)])
            == EXIT_OK
        )
        lines = (tmp_path / "zero-data-trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,hamiltonian,induced_speed,state_gevrey_norm"
        t, ham, speed, _ = lines[1].split(",")
        assert float(t) == 0.0 and float(ham) == 0.0 and float(speed) == 1.0


# The CLI's entry point under an address-space limit of its own: what the process has mapped
# after import plus the MiB of its first argument.
MAIN_UNDER_MEMORY_LIMIT = """
import resource, sys
from kirchhofflab.cli import main
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = mapped * 1024 + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


def corner_under_limit(tmp_path, command, headroom_mib):
    """``command`` on 8,192 live modes x 4,096 points, at the parse bound count x points = 2^25,
    in a child whose address space may grow by ``headroom_mib``; the limit is set in the child
    only.  Returns the finished child, the output directory and the scenario file."""
    family = {"amplitude": 1e-6, "decay": 0.001, "modes": [1, 8192]}
    cfg = mutated_copy(tmp_path, "band-limited-n16", {
        "basis.count": 8192, "initial.family": family, "horizon": 0.02, "grid.steps": 4095,
        "options.tol": 1e-300, "options.max_iter": 3})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_UNDER_MEMORY_LIMIT, str(headroom_mib), command,
         "--config", cfg, "--out-dir", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(kirchhofflab.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    return proc, out, cfg


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
@pytest.mark.parametrize("command, headroom_mib", [
    # simulate marches in 256-sample blocks: at 8,192 modes one block is 32 MiB
    pytest.param("simulate", 16, id="simulate"),
    # fixedpoint holds its live rows: one march buffer is 512 MiB
    pytest.param("fixedpoint", 256, id="fixedpoint"),
])
def test_a_failed_allocation_ends_in_one_line(tmp_path, command, headroom_mib):
    proc, out, _ = corner_under_limit(tmp_path, command, headroom_mib)
    lines = proc.stderr.splitlines()
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("scenario error: Unable to allocate"), lines
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
def test_simulate_holds_no_samples_by_modes_array(tmp_path):
    # the corner's (2 x 4,096 x 8,192) trajectory is 512 MiB; the streamed run fits in 256
    proc, out, cfg = corner_under_limit(tmp_path, "simulate", 256)
    assert proc.returncode == EXIT_OK and proc.stderr == "", proc.stderr
    free = tmp_path / "unlimited"
    assert main(["simulate", "--config", cfg, "--out-dir", str(free)]) == EXIT_OK
    names = sorted(p.name for p in free.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names and len(names) == 2
    for name in names:
        assert (out / name).read_bytes() == (free / name).read_bytes(), name


# seed 7919's 64-mode benchmark cell: its D(t) series is one gemv per block of samples, and a
# gemv over all 9,956 samples is split across BLAS threads at a column the blocks do not share
BLAS_THREADS_DOC = {
    "name": "n64", "basis": {"kind": "interval-dirichlet", "count": 64},
    "initial": {"family": {"amplitude": 0.458576, "decay": 1.0, "modes": [1, 64]}},
    "gevrey": {"s": 2.0, "eta": 2.0}, "horizon": 1.0, "grid": {"steps": 9955},
}


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs 2 usable CPUs")
@pytest.mark.parametrize("command", ["simulate", "fixedpoint"])
def test_artefacts_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    cfg = write_doc(tmp_path, BLAS_THREADS_DOC)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "kirchhofflab.cli", command, "--config", cfg,
             "--out-dir", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                 "PYTHONPATH": str(Path(kirchhofflab.__file__).resolve().parents[1])},
            capture_output=True, timeout=120,
        )
        written.append((proc.returncode, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert written[0][0] in (EXIT_OK, EXIT_NO_CONVERGENCE) and len(written[0][1]) > 1
    assert written[0] == written[1]


@pytest.mark.parametrize("changes, first", [
    # the certificate's norm and the oracle's guard both fail: the guard is checked first
    ({"gevrey.eta": 1e300, "horizon": 1e300}, "grid too coarse"),
    # only the certificate fails: its error comes after the march
    ({"gevrey.eta": 1e300}, "weighted norm overflows"),
])
def test_simulate_raises_the_march_errors_before_the_certificate(tmp_path, capsys, changes,
                                                                 first):
    # simulate's certificate picks the norm's radius before the march, yet its error is
    # raised after the march's own, in the order of a march that comes first
    cfg = mutated_copy(tmp_path, "band-limited-n16", changes)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_AUDIT_FAILED
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and first in lines[0], lines
    assert not out.exists() or list(out.iterdir()) == []


def test_linear_audit_runs_one_decay_quadrature_per_mode(monkeypatch):
    # the quadrature's mode-independent parts are built once a run, and each frequency is
    # quadratured exactly once, in chunks of modes: a mode's weighted energy and its decay
    # integral come from one cumulative
    from kirchhofflab import cli, linear

    build, built, mus = linear._decay_quadrature, [], []

    def counted(*args):
        cumulative = build(*args)
        built.append(args)
        return lambda chunk: mus.append(chunk.tolist()) or cumulative(chunk)

    monkeypatch.setattr(linear, "_decay_quadrature", counted)
    monkeypatch.setattr(linear, "_AUDIT_DOUBLES", 1 << 12)  # one mode a chunk
    scn = load_scenario(scenario_path("linear-audit"))
    assert cli.cmd_linear_audit(scn)[1] == EXIT_OK
    assert len(built) == 1 and len(mus) > 1
    assert sum(mus, []) == scn.build_basis().frequencies.tolist()


def test_an_audit_write_makes_one_formatter_call_per_file_block(tmp_path, monkeypatch):
    # 64 mode CSVs: each block, one call for each file's v, vdot and E and one for the t its
    # group of files shares
    from kirchhofflab import floattext

    cfg = mutated_copy(tmp_path, "linear-audit", {"basis.count": 64, "grid.steps": 1000,
                                                  "initial.family.modes": [1, 64]})
    calls, cells = [], floattext.repr_cells
    monkeypatch.setattr(floattext, "repr_cells", lambda x: calls.append(len(x)) or cells(x))
    out = tmp_path / "out"
    assert main(["linear-audit", "--config", cfg, "--workers", "1", "--out-dir", str(out)]) == 0
    files = list(out.iterdir())
    rows = len((out / "linear-audit-mode1.csv").read_text().splitlines()) - 1
    blocks = -(-rows // coefficient._CSV_BLOCK)
    assert len(files) == 65 and blocks == 2
    assert len(calls) <= (len(files) + 1) * blocks


def test_one_process_runs_like_fresh_ones(tmp_path, capsys, monkeypatch):
    # the parser is built once a process: a usage error, then a fixed point, then an audit,
    # each print and write what a fresh process does
    from kirchhofflab import cli

    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal's width
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    runs = [["fixedpoint", "--out-dir"],
            ["fixedpoint", "--config", str(scenario_path("two-mode")), "--out-dir"],
            ["linear-audit", "--config", str(scenario_path("linear-audit")), "--out-dir"]]
    env = {**os.environ, "PYTHONPATH": str(Path(kirchhofflab.__file__).resolve().parents[1])}
    fresh = [subprocess.Popen([sys.executable, "-m", "kirchhofflab.cli", *argv,
                               str(tmp_path / f"fresh{i}")], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for i, argv in enumerate(runs)]
    for i, (argv, proc) in enumerate(zip(runs, fresh)):
        code = main([*argv, str(tmp_path / f"same{i}")])
        stdout, stderr = proc.communicate(timeout=120)
        assert (code, *capsys.readouterr()) == (proc.returncode, stdout, stderr)
        written = [{p.name: p.read_bytes() for p in (tmp_path / f"{k}{i}").glob("*")}
                   for k in ("same", "fresh")]
        assert written[0] == written[1]
    assert [proc.returncode for proc in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert len(built) == 1


def test_perfbench_trace_points_resolve():
    # perfbench traces by patching names in the package; a rename or a moved
    # import would otherwise show up only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from kirchhofflab import cli

    main_fn = cli.main
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing == []
        assert cli.main is not main_fn
    finally:
        tracer.restore()
    assert cli.main is main_fn
