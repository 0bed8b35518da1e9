"""Strict scenario parsing, CLI exit codes and output determinism."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kirchhofflab
from kirchhofflab import ScenarioError
from kirchhofflab.cli import (
    EXIT_AUDIT_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from kirchhofflab.scenario import (
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

from conftest import scenario_path


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


def run_cli(tmp_path, command, cfg, *flags):
    """Run the CLI in a child process, with a time bound."""
    src = str(Path(kirchhofflab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "kirchhofflab.cli", command, "--config", cfg,
         "--out-dir", str(tmp_path / "out"), *flags],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


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
        ],
    )
    def test_oversized_scenarios_exit_64(self, tmp_path, command, name, changes, bound):
        # rejected before anything of that size is allocated or solved
        proc = run_cli(tmp_path, command, mutated_copy(tmp_path, name, changes))
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: "), proc.stderr
        assert f"bound {bound}" in lines[0] or f"<= {bound}" in lines[0], lines[0]

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
    def test_tol_flag_is_range_checked(self, tmp_path, tol):
        cfg = str(scenario_path("two-mode"))
        proc = run_cli(tmp_path, "fixedpoint", cfg, "--tol", tol)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: --tol: "), proc.stderr
        assert proc.stdout == ""

    def test_workers_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KIRCHHOFFLAB_WORKERS", "2")
        code = main(
            ["fixedpoint", "--config", str(scenario_path("certified-tiny")), "--out-dir", str(tmp_path)]
        )
        assert code == EXIT_OK
        monkeypatch.setenv("KIRCHHOFFLAB_WORKERS", "nope")
        assert (
            main(["fixedpoint", "--config", str(scenario_path("certified-tiny")), "--out-dir", str(tmp_path)])
            == EXIT_USAGE
        )


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

    def test_trajectory_csv_round_trip_precision(self, tmp_path):
        assert (
            main(["simulate", "--config", str(scenario_path("zero-data")), "--out-dir", str(tmp_path)])
            == EXIT_OK
        )
        lines = (tmp_path / "zero-data-trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,hamiltonian,induced_speed,state_gevrey_norm"
        t, ham, speed, _ = lines[1].split(",")
        assert float(t) == 0.0 and float(ham) == 0.0 and float(speed) == 1.0


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
