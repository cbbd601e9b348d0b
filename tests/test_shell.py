"""Scenario parsing/validation, the runner, and the CLI surface."""

import ast
import contextlib
import functools
import importlib.util
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cusplab
from cusplab import shell, verify
from cusplab.errors import ParseError, ValidationError
from cusplab.flow import classical_scatter
from cusplab.phasespace import CuspData
from cusplab.quantum import (
    WaveField,
    coherent_data,
    extract_asymptotic,
    load_field,
    scattering_map,
)
from cusplab.shell import (
    Scenario,
    bundled_scenario_path,
    load_scenario,
    main,
    resolve_scenario,
    run,
)


def _write(tmp_path, doc, name="case.scn"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _minimal(**overrides):
    doc = {
        "schema_version": 1,
        "name": "case",
        "dimension": 1,
        "perturbation": {},
        "grid": {"points": 256, "half_width": 20.0},
        "solver": {"dt": 2e-3},
        "jobs": [],
    }
    doc.update(overrides)
    return doc


def _report_agrees(out_root, name, code):
    """`cusplab report` on the outputs of a run that exited ``code`` (0 or
    1) gives the same verdict; a run that selected no job wrote none, which
    the report also fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", str(out_root), "report", name]) == code


def _run(sc, out_root, **kwargs):
    """:func:`run` into ``out_root``, checked against `cusplab report`."""
    code, reports = run(sc, out_root=str(out_root), **kwargs)
    _report_agrees(out_root, sc.name, code if reports else 1)
    return code, reports


def _all(out_root, name, *argv):
    """The exit status of `cusplab all` with ``argv``, which `cusplab report`
    on scenario ``name`` repeats when it is 0 or 1."""
    code = main(["--out", str(out_root), "all", *argv])
    if code in (0, 1):
        _report_agrees(out_root, name, code)
    return code


def test_bundled_flat_scenario_loads():
    sc = load_scenario(bundled_scenario_path("flat"))
    assert sc.name == "flat"
    assert sc.spec.is_flat
    assert len(sc.spec.bumps) == 0
    assert sc.grid.N == 1024 and sc.grid.L == 60.0


def test_bundled_bump_metric_scenario_metric_value():
    sc = load_scenario(bundled_scenario_path("bump_metric"))
    g = sc.spec.inverse_metric([0.0], 0.0)
    assert abs(g[0, 0] - 1.05) < 1e-14


def test_all_bundled_scenarios_parse():
    for name in ("flat", "potential", "bump_metric", "classical2d",
                 "egorov", "highfreq", "eikonal"):
        sc = resolve_scenario(name)
        assert isinstance(sc, Scenario)


def test_scenario_not_positive_definite(tmp_path):
    doc = _minimal(perturbation={
        "bumps": [{"amplitude": -1.5, "center_z": [0.0], "center_t": 0.0,
                   "radius_z": 1.0, "radius_t": 1.0, "pattern": [[1.0]]}]})
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.invariant == "NotPositiveDefinite"


def test_scenario_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text('{"schema_version": 1,\n  "name": oops}')
    with pytest.raises(ParseError) as err:
        load_scenario(str(path))
    assert "line 2" in str(err.value)


def test_scenario_missing_field(tmp_path):
    doc = _minimal()
    del doc["name"]
    with pytest.raises(ParseError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.field == "scenario.name"


def test_scenario_unknown_check(tmp_path):
    doc = _minimal(jobs=[{"check": "does-not-exist"}])
    with pytest.raises(ParseError):
        load_scenario(_write(tmp_path, doc))


def test_scenario_wrong_schema_version(tmp_path):
    doc = _minimal(schema_version=99)
    with pytest.raises(ParseError):
        load_scenario(_write(tmp_path, doc))


def test_scenario_support_must_fit_in_box(tmp_path):
    doc = _minimal(perturbation={
        "bumps": [{"amplitude": 0.05, "center_z": [15.0], "center_t": 0.0,
                   "radius_z": 4.0, "radius_t": 1.0, "pattern": [[1.0]]}]})
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.invariant == "support-inside-box"


def _bump(**entries):
    """A 1-D perturbation of one metric bump, its entries overridden."""
    return {"bumps": [{"amplitude": 0.05, "center_z": [0.0], "center_t": 0.0,
                       "radius_z": 1.0, "radius_t": 1.0, "pattern": [[1.0]], **entries}]}


def _potential(**entries):
    """A 1-D perturbation of one potential term, its entries overridden."""
    return {"potential_terms": [{"amplitude": [0.5, 0.0], "center_z": [0.0],
                                 "center_t": 0.0, "radius_z": 1.0, "radius_t": 1.0,
                                 **entries}]}


_BAD_H = [{"check": "eikonal", "params": {"Z0": [1.0], "frak0": [0.0], "h": -1}}]
_BAD_H_LIST = [{"check": "egorov", "params": {"Z0": [1.0], "frak0": [0.0],
                                              "h_list": [0.1, 0.0]}}]
# both checks take their widths in decreasing order; a list that rises
# stops at load time, like any other bad value
_RISING_H_LIST = {"Z0": [1.5], "frak0": [0.0], "h_list": [0.02, 0.05, 0.1]}


_BEAM = {"Z0": [1.0], "frak0": [0.0]}


@pytest.mark.parametrize("overrides, field", [
    ({"grid": {"points": 1000, "half_width": 20.0}}, "grid.points"),
    ({"solver": {"dt": -1}}, "solver.dt"),
    ({"perturbation": _bump(radius_z=0.0)}, "perturbation.bumps[0].radius_z"),
    ({"jobs": _BAD_H}, "jobs[0].params.h"),
    ({"jobs": _BAD_H_LIST}, "jobs[0].params.h_list"),
    ({"jobs": [{"check": "pairing", "params": {"tolx": 5}}]}, "jobs[0].params.tolx"),
    ({"jobs": [{"check": "pairing", "params": {"out_dir": "x"}}]},
     "jobs[0].params.out_dir"),
    ({"jobs": [{"check": "noncompact", "params": {**_BEAM, "mapped": []}}]},
     "jobs[0].params.mapped"),
    ({"jobs": [{"check": "highfreq", "params": {"Z0": [1.0], "h": 0.5}}]},
     "jobs[0].params.frak_far"),
    ({"jobs": [{"check": "pairing", "params": {"tol": "x"}}]}, "jobs[0].params.tol"),
    ({"jobs": [{"check": "symplectic", "params": {"samples": 2.0}}]},
     "jobs[0].params.samples"),
    ({"jobs": [{"check": "eikonal", "params": {**_BEAM, "Z0": [1.0, 0.0]}}]},
     "jobs[0].params.Z0"),
    ({"solver": {"dt": 2e-3, "dtt": 1e-3}}, "solver.dtt"),
    ({"solver": {"measure_compensated": True}}, "solver.measure_compensated"),
    ({"jobs": [{"check": "pairing", "control": "false"}]}, "jobs[0].control"),
    ({"seeed": 3}, "scenario.seeed"),
    ({"jobs": [{"check": "free-identity", "parms": {"tol": 1e-300}}]}, "jobs[0].parms"),
    ({"perturbation": {"bump": []}}, "perturbation.bump"),
    ({"grid": {"points": 256, "half_width": 20.0, "dz": 0.1}}, "grid.dz"),
    ({"jobs": [{"check": "symplectic", "params": {"h_fd": 0}}]}, "jobs[0].params.h_fd"),
    ({"jobs": [{"check": "symplectic", "params": {"samples": 0}}]},
     "jobs[0].params.samples"),
    ({"jobs": [{"check": "noncompact", "params": _RISING_H_LIST}]},
     "jobs[0].params.h_list"),
    ({"jobs": [{"check": "egorov", "params": _RISING_H_LIST}]},
     "jobs[0].params.h_list"),
    ({"solver": {"dt": 2e-3, "flow_tol": 0}}, "solver.flow_tol"),
    ({"solver": {"dt": 2e-3, "flow_tol": -1}}, "solver.flow_tol"),
    ({"solver": {"dt": 2e-3, "flow_tol": 1}}, "solver.flow_tol"),
    ({"solver": {"dt": 2e-3, "flow_tol": 1e300}}, "solver.flow_tol"),
    ({"solver": {"dt": 2e-3, "flow_tol": float("inf")}}, "solver.flow_tol"),
    ({"solver": {"dt": 2e-3, "flow_tol": "1e-11"}}, "solver.flow_tol"),
    ({"perturbation": _bump(center_z=[[0.0]])}, "perturbation.bumps[0].center_z"),
    ({"perturbation": _bump(center_z=[float("nan")])}, "perturbation.bumps[0].center_z"),
    ({"perturbation": _bump(center_z=["0.5"])}, "perturbation.bumps[0].center_z"),
    ({"perturbation": _bump(center_z=[True])}, "perturbation.bumps[0].center_z"),
    ({"perturbation": _bump(pattern=[[float("nan")]])}, "perturbation.bumps[0].pattern"),
    ({"perturbation": _bump(pattern=[1.0])}, "perturbation.bumps[0].pattern"),
    ({"perturbation": _potential(amplitude=[float("nan"), 0.0])},
     "perturbation.potential_terms[0].amplitude"),
    ({"perturbation": _potential(center_z=["0.5"])},
     "perturbation.potential_terms[0].center_z"),
    ({"perturbation": _bump(radius_z=1e200)}, "perturbation.bumps[0].radius_z"),
    ({"perturbation": _potential(radius_t=1e200)}, "perturbation.potential_terms[0].radius_t"),
    ({"seed": -1}, "scenario.seed"),
    ({"jobs": [{"check": "symplectic", "params": {"seed": -1}}]}, "jobs[0].params.seed"),
    ({"jobs": [{"check": "noncompact", "params": {**_BEAM, "c_floor": 0}}]},
     "jobs[0].params.c_floor"),
    ({"seed": 10**400}, "scenario.seed"),
], ids=["points", "dt", "bump", "h", "h_list", "unknown-key", "scenario-key",
        "scenario-key-mapped",
        "missing-frak_far", "tol-string", "samples-float", "Z0-length",
        "unknown-solver-key", "compensated-string", "control-string",
        "unknown-scenario-key", "unknown-job-key", "unknown-perturbation-key",
        "unknown-grid-key", "h_fd-zero", "samples-zero",
        "h_list-rising-noncompact", "h_list-rising-egorov", "flow_tol-zero",
        "flow_tol-negative", "flow_tol-one", "flow_tol-huge", "flow_tol-infinity",
        "flow_tol-string", "center_z-nested", "center_z-nan", "center_z-string",
        "center_z-bool", "pattern-nan", "pattern-flat", "amplitude-nan",
        "potential-center_z-string", "radius_z-overflowing", "potential-radius_t-overflowing",
        "seed-negative", "job-seed-negative", "c_floor-zero", "seed-beyond-float"])
def test_scenario_bad_values_are_parse_errors(tmp_path, capsys, overrides, field):
    path = _write(tmp_path, _minimal(**overrides))
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert err.value.field == field
    assert main(["--out", str(tmp_path), "all", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [1e300, float("inf"), float("nan")])
def test_flow_tol_out_of_range_is_refused_as_such(tmp_path, value):
    # a flow tolerance of 1e300 passes every Runge-Kutta step; an infinite
    # one is a number out of range, not an entry of the wrong type
    path = _write(tmp_path, _minimal(solver={"dt": 2e-3, "flow_tol": value}))
    with pytest.raises(ParseError, match="flow_tol must be a finite number in") as err:
        load_scenario(path)
    assert err.value.field == "solver.flow_tol"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "all", "--jobs", jobs, "--scenario", "flat"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "flat").exists()


def test_all_is_the_one_command_that_runs_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert ("{flow,classical-map,jacobian,radial,propagate,scatter,all,report}"
            in capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    ["flow", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3",
     "--t0", "-2", "--t1", "2"],
    ["classical-map", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3"],
    ["jacobian", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3"],
    ["radial", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3"],
    ["propagate", "--scenario", "eikonal", "--Z", "1.0", "--frak", "0.0"],
    ["scatter", "--scenario", "eikonal", "--Z", "1.0", "--frak", "0.0"],
    ["report", "flat"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", [["--only", "pairng"], ["--jobs", "3"]],
                         ids=lambda flag: flag[0])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_commands_that_run_no_jobs_refuse_only_and_jobs(tmp_path, capsys, argv, flag,
                                                        before):
    # the flags were global, and every command but the run accepted and
    # ignored them before its name
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + (flag + argv if before else argv + flag))
    assert exc.value.code == 2
    assert "cusplab: error: " in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("dt", [1e-300, 1e-30])
def test_a_dt_of_too_many_steps_fails_the_job_naming_dt(tmp_path, capsys, dt):
    # the march asked numpy for one time a step, and the run ended in a
    # traceback
    doc = json.loads(Path(bundled_scenario_path("potential")).read_text())
    doc["solver"]["dt"], doc["jobs"] = dt, doc["jobs"][:1]
    assert _all(tmp_path, "potential", "--scenario", _write(tmp_path, doc)) == 1
    out = capsys.readouterr().out
    assert f"note: ValidationError: dt = {dt:.3g} needs" in out


def _fresh_python(*args):
    """Run a new interpreter that imports this checkout's cusplab."""
    src = str(Path(cusplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_cli_imports_shell_once():
    # `python -m cusplab.shell` warns when the package has already imported
    # the module it is asked to run as __main__
    proc = _fresh_python("-W", "error::RuntimeWarning", "-m", "cusplab.shell", "--help")
    assert proc.returncode == 0, proc.stderr


_ODE_SOLVER_PROBE = """
import sys
from cusplab import flow, shell
from cusplab.phasespace import PhasePoint
from cusplab.symbols import MetricBump, PerturbationSpec
def ode_solver_loaded():
    return any(m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"])
               for m in sys.modules)
print("import", ode_solver_loaded())
code, _ = shell.run(shell.load_scenario(shell.bundled_scenario_path("flat")),
                    only={"pairing"}, out_root=sys.argv[1])
print("pairing", code, ode_solver_loaded())
spec = PerturbationSpec(n=1, bumps=(MetricBump(
    amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0, radius_t=1.0, pattern=1.0),))
flow.integrate(spec, PhasePoint(z=[-4.0], t=-2.0, zeta=[1.0], tau=-1.0), 2.0)
print("flow", ode_solver_loaded())
"""


def test_flow_loads_no_ode_solver(tmp_path):
    # the Runge-Kutta loop and its exit root are in-tree: neither grid work
    # nor a flow imports scipy.integrate or scipy.optimize
    proc = _fresh_python("-c", _ODE_SOLVER_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import False", "pairing 0 False", "flow False"]


_COLD_START_PROBE = """
import contextlib, io, sys
from cusplab import quantum, shell
from cusplab.symbols import MetricBump, PerturbationSpec
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
print("import", scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [shell.main(["--out", sys.argv[1], "all", "--scenario", "flat"]),
             shell.main(["--out", sys.argv[1], "report", "flat"])]
print("flat", codes, scipy_modules())
with contextlib.redirect_stdout(io.StringIO()):
    code = shell.main(["--out", sys.argv[1], "all", "--scenario", "classical2d"])
print("classical2d", code, scipy_modules())
spec = PerturbationSpec(n=1, bumps=(MetricBump(
    amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0, radius_t=0.1, pattern=1.0),))
grid = quantum.Grid(n=1, N=256, L=20.0)
quantum.scattering_map(spec, quantum.coherent_data(grid, [1.0], [0.0], 0.5),
                       quantum.SolverParams(dt=1e-2))
print("map", "scipy.linalg" in sys.modules)
"""


def test_scipy_loads_only_with_the_first_banded_solve(tmp_path):
    # import, a flat run and its report, and a classical run, whose flow is
    # in-tree, load no scipy; the remainder step does
    proc = _fresh_python("-c", _COLD_START_PROBE, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import []", "flat [0, 0] []", "classical2d 0 []",
                                        "map True"]


_SPARSE_PROBE = """
import sys
from cusplab import shell
code, _ = shell.run(shell.load_scenario(sys.argv[1]), out_root=sys.argv[2])
print("pairing", code, "scipy.sparse" in sys.modules)
"""


def test_2d_pairing_never_loads_scipy_sparse(tmp_path):
    # the 2-D remainder is one band of LAPACK's banded solver, no sparse matrix
    doc = _minimal(
        dimension=2,
        perturbation={"bumps": [
            {"amplitude": 0.05, "center_z": [0.0, 0.0], "center_t": 0.0,
             "radius_z": 2.0, "radius_t": 0.1, "pattern": [[1.0, 0.0], [0.0, 1.0]]}]},
        grid={"points": 32, "half_width": 10.0},
        solver={"dt": 5e-3},
        jobs=[{"check": "pairing", "params": {"tol": 5e-3}}])
    proc = _fresh_python("-c", _SPARSE_PROBE, _write(tmp_path, doc), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pairing 0 False"]


def test_scenario_grid_must_accommodate_packets(tmp_path):
    doc = _minimal(jobs=[{
        "check": "highfreq",
        "params": {"Z0": [1.0], "frak_far": [30.0], "h": 0.5}}])
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.invariant == "grid-accommodates-jobs"


@pytest.mark.parametrize("job, width", [
    ({"check": "noncompact", "params": {"Z0": [1.5], "frak0": [0.0]}},
     {"h_list": [0.1, 0.05, 0.02, 0.01]}),
    ({"check": "eikonal", "params": {"Z0": [1.5], "frak0": [0.0]}}, {"h": 0.25}),
], ids=["noncompact-h_list", "eikonal-h"])
def test_a_defaulted_width_must_fit_the_box_as_a_written_one(tmp_path, job, width):
    # the extent rule read the widths from the job's params alone, so a job
    # that left them to the check's defaults loaded and then leaked
    grid = {"points": 256, "half_width": 20.0 if "h_list" in width else 9.0}
    for params in (job["params"], {**job["params"], **width}):
        doc = _minimal(grid=grid, jobs=[{**job, "params": params}])
        with pytest.raises(ValidationError) as err:
            load_scenario(_write(tmp_path, doc))
        assert err.value.invariant == "grid-accommodates-jobs"


def test_a_grid_check_without_a_grid_is_refused_at_load_naming_the_check(tmp_path, capsys):
    doc = json.loads(Path(bundled_scenario_path("classical2d")).read_text())
    doc["jobs"] = [{"check": "symplectic", "params": {"samples": 1}},
                   {"check": "pairing", "control": True}]
    with pytest.raises(ParseError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.field == "jobs[1].check"


def test_a_single_number_is_a_beam_in_a_1d_scenario(tmp_path):
    # a job's beam on n = 1 may be one number, as the library takes it
    doc = _minimal(jobs=[{"check": "eikonal", "params": {"Z0": 1.0, "frak0": 0.0}},
                         {"check": "radial", "params": {"Z0": [1.0], "frak0": 0.3}}])
    sc = load_scenario(_write(tmp_path, doc))
    assert [job["params"]["Z0"] for job in sc.jobs] == [1.0, [1.0]]
    with pytest.raises(ParseError) as err:
        load_scenario(_write(tmp_path, _minimal(dimension=2, jobs=[
            {"check": "radial", "params": {"Z0": 1.0, "frak0": [0.0, 0.3]}}])))
    assert err.value.field == "jobs[0].params.Z0"


def test_every_argument_a_job_may_set_declares_a_kind_the_rule_knows():
    # the loader and every check refuse a job's arguments by these kinds; an
    # argument without one would reach the check unrefused
    for family, (name, _) in verify.JOB_FAMILIES.items():
        check = getattr(verify, name)
        settable = [arg for arg in inspect.signature(check).parameters
                    if arg not in shell.SCENARIO_ARGS]
        assert settable and set(settable) <= set(verify.kinds(check)), family


def test_run_flat_scenario_exit_zero(tmp_path):
    sc = load_scenario(bundled_scenario_path("flat"))
    code, reports = _run(sc, tmp_path, only={"pairing"})
    assert code == 0
    assert len(reports) == 1 and reports[0].status == "pass"
    out = tmp_path / "flat" / "02_pairing" / "report.json"
    assert out.exists()


def test_run_fails_when_a_control_passes(tmp_path):
    # a control that fails to fail is unsatisfied, and so is the run;
    # highfreq has no negative-control mode, so its control job passes
    doc = _minimal(
        grid={"points": 2048, "half_width": 32.0},
        perturbation={"bumps": [
            {"amplitude": 0.5, "center_z": [0.0], "center_t": 0.0,
             "radius_z": 1.0, "radius_t": 0.5, "pattern": [[1.0]]}]},
        jobs=[{"check": "highfreq", "control": True,
               "params": {"Z0": [1.0], "frak_far": [16.0], "h": 0.5}}])
    sc = load_scenario(_write(tmp_path, doc))
    code, reports = _run(sc, tmp_path)
    assert reports[0].status == "pass" and not reports[0].satisfied
    assert code == 1


_WEAK_POTENTIAL = {"potential_terms": [
    {"amplitude": [0.08, 0.0], "center_z": [0.0], "center_t": 0.0,
     "radius_z": 8.0, "radius_t": 0.5}]}
_METRIC_BUMP = {"bumps": [
    {"amplitude": 0.05, "center_z": [0.0], "center_t": 0.0,
     "radius_z": 4.0, "radius_t": 1.0, "pattern": [[1.0]]}]}


@pytest.mark.parametrize("check, perturbation, params", [
    ("pairing", _WEAK_POTENTIAL, {}),
    ("eikonal", _WEAK_POTENTIAL, {"Z0": [1.0], "frak0": [0.0], "h": 0.25}),
    ("symplectic", _METRIC_BUMP, {"samples": 1}),
    ("radial", _METRIC_BUMP, {"Z0": [1.0], "frak0": [0.3], "horizon": 1e3}),
    # one h and a loose cap: this grid is too coarse for the Egorov rate,
    # and the control must fail through its reflected classical target
    ("egorov", _METRIC_BUMP, {"Z0": [1.5], "frak0": [0.0], "h_list": [0.1],
                              "rel_cap": 1.0}),
], ids=["pairing", "eikonal", "symplectic", "radial", "egorov"])
def test_control_job_runs_the_checks_negative_control(tmp_path, check,
                                                      perturbation, params):
    # the same job passes plain and fails as a control, so the run exits 0
    doc = _minimal(grid={"points": 512, "half_width": 30.0},
                   perturbation=perturbation,
                   jobs=[{"check": check, "params": params, "control": control}
                         for control in (False, True)])
    sc = load_scenario(_write(tmp_path, doc))
    code, (plain, control) = _run(sc, tmp_path)
    assert plain.status == "pass" and not plain.control
    assert control.status == "fail" and control.control and control.satisfied
    assert code == 0


def test_run_captures_boundary_leak_and_fails(tmp_path):
    # deliberately cramped box: the pairing check's packets reach the
    # outer-shell monitor during the window
    doc = _minimal(
        grid={"points": 256, "half_width": 8.0},
        perturbation={"potential_terms": [
            {"amplitude": [0.3, 0.0], "center_z": [0.0], "center_t": 0.0,
             "radius_z": 2.0, "radius_t": 1.0}]},
        jobs=[{"check": "pairing"}])
    sc = load_scenario(_write(tmp_path, doc))
    code, reports = _run(sc, tmp_path)
    assert code == 1
    assert reports[0].status == "fail"
    assert "BoundaryLeak" in reports[0].note


def test_run_captures_precondition_errors(tmp_path):
    # run-time precondition violation (beam offset too small) is captured
    doc = _minimal(
        grid={"points": 512, "half_width": 20.0},
        perturbation={"bumps": [
            {"amplitude": 0.05, "center_z": [0.0], "center_t": 0.0,
             "radius_z": 1.0, "radius_t": 1.0, "pattern": [[1.0]]}]},
        jobs=[{"check": "highfreq",
               "params": {"Z0": [1.0], "frak_far": [4.0], "h": 0.5}}])
    sc = load_scenario(_write(tmp_path, doc))
    code, reports = _run(sc, tmp_path)
    assert code == 1
    assert "ValidationError" in reports[0].note


def test_huge_h_fd_is_a_typed_error_naming_it(tmp_path, capsys):
    # the shifted beams of a 1e300 step have no finite phase-space point
    doc = json.loads(Path(bundled_scenario_path("classical2d")).read_text())
    doc["jobs"] = [{"check": "symplectic", "params": {"h_fd": 1e300, "samples": 1}}]
    code, reports = _run(load_scenario(_write(tmp_path, doc)), tmp_path)
    assert code == 1 and reports[0].status == "fail"
    assert reports[0].note.startswith("InvalidArgument: h_fd = 1e+300")
    code = main(["--out", str(tmp_path), "jacobian", "--scenario", "classical2d",
                 "--Z", "1.0,0.0", "--frak", "0.0,0.3", "--h-fd", "1e300"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: h_fd = 1e+300")


def test_a_radius_whose_square_overflows_stops_the_run_naming_it(tmp_path, capsys):
    # the mollifier squares each radius: a radius_z of 1e200 once ended the
    # run in a bare OverflowError
    doc = json.loads(Path(bundled_scenario_path("bump_metric")).read_text())
    doc["perturbation"]["bumps"][0]["radius_z"] = 1e200
    assert main(["--out", str(tmp_path), "all", "--scenario", _write(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius_z = 1e+200 is too large")
    assert "(field: perturbation.bumps[0].radius_z)" in err


@pytest.mark.parametrize("command, Z", [
    (["classical-map"], 1e200), (["radial"], 1e200),
    (["flow", "--t0=-2.5", "--t1=2.5"], 1e200), (["jacobian"], 1e300),
], ids=["classical-map", "radial", "flow", "jacobian"])
def test_a_beam_whose_seed_overflows_stops_naming_z(tmp_path, capsys, command, Z):
    # |Z|^2 overflows the beam's seed: a ValueError traceback from PhasePoint,
    # and in `jacobian` an error blaming h_fd, as if the unshifted beam were
    # finite
    code = main(["--out", str(tmp_path), *command, "--scenario", "classical2d",
                 "--Z", f"{Z},0", "--frak", "0,0.3"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: Z = [{Z!r}, 0.0] overflows")


def test_a_radial_job_whose_seed_overflows_reports_an_error(tmp_path, capsys):
    # a frak0 whose seed's |z|^2 overflows once flew as a beam that missed
    # the support, with numpy's overflow warnings and a NaN exponent
    for entry, value, note in (("Z0", [1e200, 0.0], "Z = [1e+200, 0.0] overflows"),
                               ("frak0", [1e300, 0.3], "frak = [1e+300, 0.3] overflows")):
        doc = json.loads(Path(bundled_scenario_path("classical2d")).read_text())
        doc["jobs"][1]["params"][entry] = value
        out = tmp_path / entry
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _all(out, "classical2d", "--scenario", _write(tmp_path, doc)) == 1
        assert not caught, [str(w.message) for w in caught]
        report = json.loads((out / "classical2d" / "01_radial" / "report.json").read_text())
        assert report["note"].startswith(f"InvalidArgument: {note}")
        assert "Traceback" not in capsys.readouterr().err


def test_a_time_window_that_overflows_the_march_is_refused_at_load(tmp_path, capsys):
    # a centre of 1e308 loaded; the run then ended in a ValueError traceback
    # naming the span of an internal free propagation
    doc = json.loads(Path(bundled_scenario_path("bump_metric")).read_text())
    doc["perturbation"]["bumps"][0]["center_t"] = 1e308
    path = _write(tmp_path, doc)
    with pytest.raises(ParseError) as err:
        load_scenario(path)
    assert err.value.field == "perturbation.bumps[0].center_t"
    assert main(["--out", str(tmp_path), "all", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    doc["perturbation"]["bumps"][0]["center_t"] = 0.0
    doc["solver"]["margin"] = 1e308
    with pytest.raises(ParseError) as err:
        load_scenario(_write(tmp_path, doc))
    assert err.value.field == "solver.margin"


def test_a_bump_whose_inverse_metric_vanishes_at_its_centre_is_refused_at_load(
        tmp_path, capsys):
    # no point of the positive-definiteness lattice is the bump's centre, so
    # an amplitude of -1 loaded; pairing then divided by det g = 0 there
    doc = json.loads(Path(bundled_scenario_path("bump_metric")).read_text())
    doc["perturbation"]["bumps"][0]["amplitude"] = -1.0
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match=r"^bumps\[0\] alone") as err:
        load_scenario(path)
    assert err.value.invariant == "NotPositiveDefinite"
    assert main(["--out", str(tmp_path), "all", "--scenario", path]) == 2
    assert capsys.readouterr().err.startswith("error: bumps[0] alone")


def _mutated(name, keys, value):
    """The text of bundled scenario ``name`` with the entry at ``keys``
    replaced by ``value``."""
    doc = json.loads(Path(bundled_scenario_path(name)).read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(doc)


_CLASSICAL_BEAM = ["--scenario", "classical2d", "--Z", "1.0,0.0"]
_BUMP0 = ("perturbation", "bumps", 0)
# (arguments, files written under the output root first, start of the error)
_REFUSALS = {
    "Z": (["classical-map", "--scenario", "classical2d", "--Z", "1e200,0", "--frak", "0,0.3"],
          {}, "Z"),
    "frak": (["classical-map", "--scenario", "classical2d", "--Z", "1,0", "--frak", "1e308,0"],
             {}, "frak"),
    "job-Z0": (["all", "--scenario", "s.scn"],
               {"s.scn": _mutated("egorov", ("jobs", 0, "params", "Z0"), [1e308])},
               "job 'egorov'"),
    # the seed's |z|^2 overflowed, and the beam flew as if it missed the support
    "radial-frak": (["radial", *_CLASSICAL_BEAM, "--frak", "1e300,0.3"], {}, "frak"),
    "flow-frak": (["flow", *_CLASSICAL_BEAM, "--frak", "1e300,0.3", "--t0=-2.5", "--t1=2.5"],
                  {}, "frak"),
    # every backward |w| is exactly 0: there is no decay exponent to fit
    "radial-frak-zero": (["radial", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.0"],
                         {}, "frak puts the incoming beam on its radial set"),
    # the last backward |w| is exactly 0, the rest round-off: the fit read 0.92
    "radial-frak-1e-13": (["radial", "--scenario", "bump_metric", "--Z", "1.0",
                           "--frak", "1e-13"],
                          {}, "frak puts the incoming beam on its radial set"),
    "flow_tol-zero": (["all", "--scenario", "s.scn"],
                      {"s.scn": _mutated("classical2d", ("solver", "flow_tol"), 0)},
                      "flow_tol = 0.0 is too small"),
    # a flow tolerance of 1 or more would pass every Runge-Kutta step
    "flow_tol-1e300": (["all", "--scenario", "s.scn"],
                       {"s.scn": _mutated("classical2d", ("solver", "flow_tol"), 1e300)},
                       "flow_tol = 1e+300 is too large"),
    "center_z-nested": (["all", "--scenario", "s.scn"],
                        {"s.scn": _mutated("bump_metric", (*_BUMP0, "center_z"), [[0.0]])},
                        "center_z must be"),
    "radius_z-1e200": (["all", "--scenario", "s.scn"],
                       {"s.scn": _mutated("bump_metric", (*_BUMP0, "radius_z"), 1e200)},
                       "radius_z = 1e+200 is too large"),
    "amplitude-minus-1": (["all", "--scenario", "s.scn"],
                          {"s.scn": _mutated("bump_metric", (*_BUMP0, "amplitude"), -1.0)},
                          "bumps[0] alone"),
    "center_t-1e308": (["all", "--scenario", "s.scn"],
                       {"s.scn": _mutated("bump_metric", (*_BUMP0, "center_t"), 1e308)},
                       "the maps' horizon 1e+308"),
    "report-truncated": (["report", "flat"],
                         {"flat/00_pairing/report.json": '{"status": "pa'},
                         "cannot read report"),
    "only-misspelt": (["all", "--only", "pairng", "--scenario", "flat"], {},
                      "unknown job family 'pairng'"),
    "measure_compensated": (["all", "--scenario", "s.scn"],
                            {"s.scn": _mutated("classical2d", ("solver", "measure_compensated"),
                                               True)},
                            "unknown entry 'measure_compensated'"),
    # an integer beyond every float ended in an OverflowError from float(),
    # and as an element of a list in numpy's TypeError from isfinite
    "half_width-10**400": (["all", "--scenario", "s.scn"],
                           {"s.scn": _mutated("flat", ("grid", "half_width"), 10**400)},
                           "entry 'half_width' is an integer beyond every float"),
    "dt-10**400": (["all", "--scenario", "s.scn"],
                   {"s.scn": _mutated("flat", ("solver", "dt"), 10**400)},
                   "entry 'dt' is an integer beyond every float"),
    "center_z-10**400": (["all", "--scenario", "s.scn"],
                         {"s.scn": _mutated("eikonal", ("perturbation", "potential_terms", 0,
                                                        "center_z", 0), 10**400)},
                         "center_z must be"),
    # a grid check in a scenario without a grid failed when it ran, and as
    # a control that error report counted as satisfied: the run exited 0
    "gridless-control": (["all", "--scenario", "s.scn"],
                         {"s.scn": _mutated("classical2d", ("jobs",),
                                            [{"check": "pairing", "control": True}])},
                         "check 'pairing' needs the scenario's grid section"),
}


@pytest.mark.parametrize("command, files, error", _REFUSALS.values(), ids=_REFUSALS)
def test_an_overflow_refused_by_name_prints_one_error_line(tmp_path, command, files, error):
    # a refused input ends the process with exit 2 and one error line;
    # numpy's overflow warnings once reached stderr ahead of it
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    command = [str(tmp_path / arg) if arg in files else arg for arg in command]
    proc = _fresh_python("-m", "cusplab.shell", "--out", str(tmp_path), *command)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {error}") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("magnitude", [1e150, 1e160, 1e300])
@pytest.mark.parametrize("flag", ["--Z", "--frak"])
@pytest.mark.parametrize("command", [["classical-map"], ["flow", "--t0=-2.5", "--t1=2.5"],
                                     ["jacobian"], ["radial"]], ids=lambda command: command[0])
def test_a_beam_command_flies_or_names_an_entry_that_overflows(tmp_path, capsys, command, flag,
                                                               magnitude):
    # on either side of 1.3e154, where a square overflows: |Z| = 1e150 ended
    # in a ZeroDivisionError, and a frak of 1e160 warned and flew as if the
    # beam missed the support
    beam = {"--Z": "1.0,0.0", "--frak": "0.0,0.3"}
    beam[flag] = f"{magnitude!r},{beam[flag].split(',')[1]}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--out", str(tmp_path), *command, "--scenario", "classical2d",
                     "--Z", beam["--Z"], "--frak", beam["--frak"]])
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2)
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} = [{magnitude!r}, ") and err.count("\n") == 1, err


def test_a_radial_horizon_short_of_the_samples_is_a_typed_error_naming_it(tmp_path, capsys):
    # on this beam the samples start at |t| = 3: a horizon of 0.5 would
    # sample the free flight run back into the window, and every check pass
    doc = json.loads(Path(bundled_scenario_path("bump_metric")).read_text())
    doc["jobs"] = [{"check": "radial", "params": {"Z0": [1.0], "frak0": [0.3], "horizon": 0.5}}]
    code, reports = _run(load_scenario(_write(tmp_path, doc)), tmp_path)
    assert code == 1 and reports[0].status == "fail"
    assert reports[0].note.startswith("InvalidArgument: horizon = 0.5")
    code = main(["--out", str(tmp_path), "radial", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3", "--horizon", "0.5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: horizon = 0.5")


def test_run_is_deterministic(tmp_path):
    sc = load_scenario(bundled_scenario_path("flat"))
    run(sc, only={"pairing"}, out_root=str(tmp_path / "a"))
    run(sc, only={"pairing"}, out_root=str(tmp_path / "b"))
    rep_a = (tmp_path / "a" / "flat" / "02_pairing" / "pairing_residuals.csv").read_bytes()
    rep_b = (tmp_path / "b" / "flat" / "02_pairing" / "pairing_residuals.csv").read_bytes()
    assert rep_a == rep_b


def test_classical_only_scenario_needs_no_grid(tmp_path):
    sc = resolve_scenario("classical2d")
    assert sc.grid is None
    # the symplectic job runs without any quantum solver being constructed
    code, reports = _run(sc, tmp_path, only={"symplectic"})
    assert code == 0 and reports[0].status == "pass"


def _outputs(root):
    """Every file under ``root``, by relative path, as bytes."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


# a small 1-D scenario whose noncompact family and pairing packet share one
# forward march
_SHARED_MARCH = _minimal(
    perturbation={"bumps": [
        {"amplitude": 0.05, "center_z": [0.0], "center_t": 0.0,
         "radius_z": 4.0, "radius_t": 0.5, "pattern": [[1.0]]}]},
    jobs=[{"check": "noncompact",
           "params": {"Z0": [1.0], "frak0": [0.0], "h_list": [0.2, 0.1]}},
          {"check": "pairing", "params": {"tol": 5e-3}}])


def _workload(name):
    """The small scenario document of benchmark workload ``name``, seed 7,
    read from the benchmark's workload module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.scenario(name, 7, small=True)


def test_parallel_job_execution(tmp_path):
    # distinct operators march in parallel, and every file is what one
    # process writes: on 1-D grids, on a 2-D grid and for classical jobs
    out = tmp_path / "out"
    for doc in (None, _SHARED_MARCH, _workload("strang2d"), _workload("classical")):
        sc = resolve_scenario("flat") if doc is None else load_scenario(_write(tmp_path, doc))
        written = {}
        for jobs in (1, 2):
            shutil.rmtree(out, ignore_errors=True)
            code, reports = _run(sc, out, jobs=jobs)
            written[jobs] = _outputs(out)
            assert code == 0
            assert [r.name for r in reports] == [job["check"] for job in sc.jobs]
        assert any(path.name == "report.json" for path in written[1])
        assert written[2] == written[1]


def _with_noncompact(sc, **params):
    """``sc`` with its noncompact job's params updated, past the load-time
    extent rule."""
    return replace(sc, jobs=tuple(
        {**job, "params": {**job["params"], **params}} if job["check"] == "noncompact"
        else job for job in sc.jobs))


@pytest.mark.parametrize("params, note, marches", [
    # the family and pairing's forward packet march once; S* marches alone
    ({}, "", [2, 1]),
    # the family starts near the box edge and leaks: the shared march
    # raises, and each of its jobs maps alone
    ({"frak0": [18.0]}, "BoundaryLeak", [2, 1, 1, 1, 1]),
    # the family sits in the outer band of the dual grid: the shared march
    # refuses it and raises, and each of its jobs maps alone
    ({"Z0": [16.0]}, "ValidationError: input carries", [2, 1, 1, 1, 1]),
    # the family's packet leaves the dual grid while it is planned: the job
    # joins no group, and pairing's packets march without it
    ({"Z0": [19.5]}, "PacketClipped", [1, 1]),
], ids=["shared", "leaking", "refused", "unplanned"])
def test_each_job_writes_its_solo_outputs(tmp_path, monkeypatch, params, note, marches):
    sc = _with_noncompact(load_scenario(_write(tmp_path, _SHARED_MARCH)), **params)
    sizes = []
    march = verify.march

    def spy(requests):
        sizes.append(len(requests))
        return march(requests)

    monkeypatch.setattr(verify, "march", spy)
    out = tmp_path / "out"
    code, (noncompact, pairing) = _run(sc, out)
    assert sizes == marches
    assert pairing.status == "pass" and noncompact.note.startswith(note)
    assert code == (1 if note else 0)
    together = _outputs(out)
    for index, job in enumerate(sc.jobs):
        shutil.rmtree(out)
        run(sc, only={job["check"]}, out_root=str(out))
        alone = _outputs(out)
        assert {path.parts[1] for path in alone} == {f"{index:02d}_{job['check']}"}
        assert alone == {path: data for path, data in together.items()
                         if path.parts[1] == f"{index:02d}_{job['check']}"}


def test_eikonal_plans_the_doubled_amplitudes_map(tmp_path, monkeypatch):
    # the doubled amplitude's map was made inside the check, after the
    # scenario's marches; both maps are planned now, each its own operator
    doc = _minimal(grid={"points": 512, "half_width": 30.0}, perturbation=_WEAK_POTENTIAL,
                   jobs=[{"check": "eikonal", "params": {"Z0": [1.0], "frak0": [0.0]}}])
    sc = load_scenario(_write(tmp_path, doc))
    events = []
    march, check = verify.march, verify.check_eikonal_phase

    @functools.wraps(check)
    def spy(**kwargs):
        events.append("check")
        return check(**kwargs)

    monkeypatch.setattr(verify, "march",
                        lambda requests: events.append(len(requests)) or march(requests))
    monkeypatch.setattr(verify, "check_eikonal_phase", spy)
    code, (report,) = _run(sc, tmp_path / "run")
    assert code == 0 and events == [1, 1, "check"]
    assert [m.label for m in report.measured] == ["phase-mismatch", "amplitude-linearity"]
    alone = check(sc.spec, sc.grid, [1.0], [0.0], params=sc.solver)
    assert json.dumps(alone.to_dict()) == json.dumps({**report.to_dict(), "artifacts": []})


def test_compare_outputs_names_the_first_file_that_differs(tmp_path, capsys):
    for root in ("a", "b"):
        assert main(["--out", str(tmp_path / root), "all", "--scenario", "flat"]) == 0
    script = Path(__file__).resolve().parent / "compare_outputs.py"

    def compare():
        return subprocess.run([sys.executable, str(script), str(tmp_path / "a"),
                               str(tmp_path / "b")], capture_output=True, text=True, timeout=60)

    same = compare()
    assert same.returncode == 0 and same.stdout.startswith("same: "), same.stdout
    csv = tmp_path / "b" / "flat" / "02_pairing" / "pairing_residuals.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1   # a digit of the last number
    csv.write_bytes(bytes(data))
    differs = compare()
    assert differs.returncode == 1
    assert differs.stdout == "differs: flat/02_pairing/pairing_residuals.csv\n"


def test_cli_classical_map(capsys):
    code = main(["classical-map", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Z_out" in out and "action_diff" in out


def test_cli_flow_writes_trajectory(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "flow", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3", "--t0", "-2.5", "--t1", "2.5",
                 "--stride", "0.5"])
    assert code == 0
    csv = tmp_path / "bump_metric" / "flow" / "trajectory.csv"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,z_1,zeta_1,tau,p_residual"
    assert len(lines) > 5


def test_cli_classical_commands_print_plain_numbers(tmp_path, capsys):
    # transit and the flow statistics print as Python numbers, not as numpy
    # scalar reprs whose form depends on the numpy version
    assert main(["classical-map", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3"]) == 0
    out = capsys.readouterr().out
    transit = next(line for line in out.splitlines() if line.startswith("transit ="))
    assert "np." not in out
    lo, hi = (float(v) for v in transit.split("=", 1)[1].strip(" ()").split(","))
    assert lo < hi
    assert main(["--out", str(tmp_path), "flow", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3", "--t0", "-3", "--t1", "3"]) == 0
    out = capsys.readouterr().out
    stats = next(line for line in out.splitlines() if line.startswith("stats:"))
    assert "np." not in out
    values = ast.literal_eval(stats.split(":", 1)[1].strip())
    assert {type(v) for v in values.values()} <= {int, float}
    assert values["time_inside_support"] > 0.0


def test_cli_jacobian(capsys):
    code = main(["jacobian", "--scenario", "classical2d",
                 "--Z", "1.0,0.0", "--frak", "0.0,0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "symplectic defect" in out


def test_cli_radial_prints_exponents_and_limits(capsys):
    code = main(["radial", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3"])
    assert code == 0
    out = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    for key in ("exponent forward ", "exponent backward"):
        assert abs(float(out[key]) - 1.0) < 0.01
    sc = resolve_scenario("bump_metric")
    c_out = classical_scatter(sc.spec, CuspData([1.0], [0.3]), tol=sc.flow_tol).c_out
    for key, (Z, frak) in (("limit forward    ", (c_out.Z[0], c_out.frak[0])),
                           ("limit backward   ", (1.0, 0.3))):
        limit = [float(v) for v in out[key].replace("[", " ").replace("]", " ").split()]
        assert np.allclose(limit, [Z, frak], atol=1e-6)


def test_cli_propagate_writes_a_loadable_field(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "propagate", "--scenario", "potential",
                 "--Z", "1.0", "--frak", "0.0", "--h", "0.25"])
    assert code == 0
    path = tmp_path / "potential" / "propagate" / "field.field"
    u = load_field(path)
    assert isinstance(u, WaveField) and u.time == 1.25
    assert f"norm = {u.norm():.12g}" in capsys.readouterr().out
    # a real potential: the field keeps the norm (2 pi)^{-1/2} of unit data
    assert abs(u.norm() - (2.0 * np.pi) ** -0.5) < 1e-9
    # the field read back is the map's outgoing field, bit for bit
    sc = resolve_scenario("potential")
    f = coherent_data(sc.grid, [1.0], [0.0], 0.25)
    assert np.array_equal(extract_asymptotic(u, sc.spec).values,
                          scattering_map(sc.spec, f, sc.solver).values)


def test_cli_scatter_and_report(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "scatter", "--scenario", "eikonal",
                 "--Z", "1.0", "--frak", "0.0", "--h", "0.25"])
    assert code == 0
    assert (tmp_path / "eikonal" / "scatter" / "outgoing.csv").exists()
    assert (tmp_path / "eikonal" / "scatter" / "outgoing.field").exists()


def test_cli_run_of_one_family_and_report(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "all", "--only", "eikonal", "--scenario", "eikonal"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    code = main(["--out", str(tmp_path), "report", "eikonal"])
    out = capsys.readouterr().out
    assert code == 0
    assert "eikonal" in out


@pytest.mark.parametrize("text", ['{"status": "pass", "contr',
                                  '{"status": "pass", "satisfied": true}', "[]"],
                         ids=["truncated", "no-control", "array"])
def test_report_of_a_malformed_report_json_is_an_error_naming_it(tmp_path, capsys, text):
    path = tmp_path / "flat" / "00_pairing" / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert main(["--out", str(tmp_path), "report", "flat"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_only_runs_any_job_family_radial_included(tmp_path, capsys):
    # `radial` is also the beam command, which runs no jobs
    assert _all(tmp_path, "flat", "--only", "free-identity", "--scenario", "flat") == 0
    assert "[PASS] free-identity" in capsys.readouterr().out
    assert _all(tmp_path, "bump_metric", "--only", "radial", "--scenario", "bump_metric") == 0
    assert "[PASS] radial" in capsys.readouterr().out


def test_only_of_an_unknown_job_family_is_an_error(tmp_path, capsys):
    # a misspelt family selected no job, and the run passed
    code = main(["--out", str(tmp_path), "all", "--only", "pairng", "--scenario", "flat"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'pairng'" in err and "(field: --only)" in err
    assert not os.listdir(tmp_path)


def test_a_run_that_selects_no_job_fails(tmp_path, capsys):
    # flat declares no egorov job, and `all` passed with nothing checked, as
    # it did on a scenario without jobs
    path = _write(tmp_path, _minimal())
    for argv, name in ((["--only", "egorov", "--scenario", "flat"], "flat"),
                       (["--scenario", path], "case")):
        assert _all(tmp_path, name, *argv) == 1
        assert capsys.readouterr().out == f"scenario '{name}' declares no matching jobs\n"


def test_report_without_reports_fails(tmp_path, capsys):
    # `flow` writes under the scenario's directory, but no report.json
    code = main(["--out", str(tmp_path), "flow", "--scenario", "bump_metric",
                 "--Z", "1.0", "--frak", "0.3", "--t0", "-2.5", "--t1", "2.5"])
    assert code == 0 and (tmp_path / "bump_metric" / "flow").is_dir()
    capsys.readouterr()
    assert main(["--out", str(tmp_path), "report", "bump_metric"]) == 1
    assert capsys.readouterr().out == f"no outputs under {tmp_path / 'bump_metric'}\n"


@pytest.mark.parametrize("command, scenario", [("classical-map", "bump_metric"),
                                               ("scatter", "eikonal")])
@pytest.mark.parametrize("flag", ["--Z", "--frak"])
def test_cli_beam_of_wrong_dimension_is_an_error(tmp_path, capsys, command, scenario, flag):
    beam = {"--Z": "1.0", "--frak": "0.3"}
    beam[flag] = "1.0,0.0"
    code = main(["--out", str(tmp_path), command, "--scenario", scenario,
                 "--Z", beam["--Z"], "--frak", beam["--frak"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {flag})" in err


@pytest.mark.parametrize("argv, flag", [
    (["scatter", "--scenario", "eikonal", "--Z", "1.0", "--frak", "0.0", "--h", "0"], "--h"),
    (["propagate", "--scenario", "eikonal", "--Z", "1.0", "--frak", "0.0", "--h", "0"],
     "--h"),
    (["jacobian", "--scenario", "classical2d", "--Z", "1.0,0.0", "--frak", "0.0,0.3",
      "--h-fd", "0"], "--h-fd"),
    (["radial", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3",
      "--horizon", "-1"], "--horizon"),
    (["flow", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3",
      "--t0", "-2", "--t1", "2", "--stride", "0"], "--stride"),
    (["flow", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3",
      "--t0", "-2", "--t1", "-2"], "--t1"),
    (["flow", "--scenario", "bump_metric", "--Z", "1.0", "--frak", "0.3",
      "--t0", "nan", "--t1", "2"], "--t0"),
], ids=["scatter-h", "propagate-h", "h-fd", "horizon", "stride", "t1-equals-t0",
        "t0-nan"])
def test_cli_bad_number_flags_are_errors(tmp_path, capsys, argv, flag):
    try:
        code = main(["--out", str(tmp_path)] + argv)
    except SystemExit as exc:       # argparse rejects the flag's value
        code = exc.code
    assert code == 2
    error = [line for line in capsys.readouterr().err.splitlines() if "error: " in line]
    assert len(error) == 1 and flag in error[0]
    assert not os.listdir(tmp_path)


def test_cli_bad_scenario_returns_error(capsys):
    code = main(["classical-map", "--scenario", "nope-does-not-exist",
                 "--Z", "1.0", "--frak", "0.0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_the_output_root_is_the_out_flag_alone(tmp_path, monkeypatch, capsys):
    # --out, default "out", is the one setting: the environment variable
    # that once overrode the default is not read
    monkeypatch.setenv("CUSPLAB_OUT", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    assert _all("out", "eikonal", "--only", "eikonal", "--scenario", "eikonal") == 0
    assert (tmp_path / "out" / "eikonal").exists() and not (tmp_path / "env").exists()
