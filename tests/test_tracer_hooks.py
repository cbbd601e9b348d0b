"""The benchmark's tracer must find every binding it wraps.

perfbench/tracer.py wraps cusplab's public functions and methods by name at
every module binding that holds them.  Importing it by path and installing
it here makes a deleted or renamed binding fail this unit test, not only a
benchmark run."""

import importlib.util
import json
import math
from pathlib import Path

from cusplab import quantum, shell

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# one per (owner, attribute) the tracer patches on this tree; a binding that
# a caller stops importing would otherwise drop its spans without an error
BINDINGS = 62


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert len(patched) == BINDINGS
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_tracer_records_the_check_a_job_runs(tmp_path):
    # the shell looks each check up on verify when the job runs, so the
    # check's span nests inside the job's
    doc = {"schema_version": 1, "name": "traced", "dimension": 1, "grid": None,
           "perturbation": {"bumps": [{
               "amplitude": 0.05, "center_z": [0.0], "center_t": 0.0,
               "radius_z": 4.0, "radius_t": 1.0, "pattern": [[1.0]]}]},
           "jobs": [{"check": "radial",
                     "params": {"Z0": [1.0], "frak0": [0.3], "horizon": 1e3}}]}
    path = tmp_path / "traced.scn"
    path.write_text(json.dumps(doc))
    tracer = _load_tracer().Tracer()
    with tracer:
        code, _ = shell.run(shell.load_scenario(str(path)), out_root=str(tmp_path))
    assert code == 0
    names = [span[1] for span in tracer.spans]
    checks = [span for span in tracer.spans if span[1] == "verify.check_radial"]
    assert len(checks) == 1
    assert names[checks[0][0]] == "shell.run_job"


def test_stacked_noncompact_job_maps_its_family_in_one_call(tmp_path):
    # the three widths share one forward map, which the benchmark still
    # counts as three inputs, and its march makes one banded solve per step
    # through the module binding the tracer wraps
    doc = {"schema_version": 1, "name": "stacked", "dimension": 1,
           "grid": {"points": 1024, "half_width": 80.0},
           "solver": {"dt": 2e-3, "margin": 0.25},
           "perturbation": {"bumps": [{
               "amplitude": 0.2, "center_z": [0.0], "center_t": 0.0,
               "radius_z": 12.0, "radius_t": 0.1, "pattern": [[1.0]]}]},
           "jobs": [{"check": "noncompact",
                     "params": {"Z0": [1.5], "frak0": [0.0], "h_list": [0.1, 0.05, 0.02]}}]}
    path = tmp_path / "stacked.scn"
    path.write_text(json.dumps(doc))
    scenario = shell.load_scenario(str(path))
    tracer = _load_tracer().Tracer()
    with tracer:
        shell.run(scenario, out_root=str(tmp_path))
    assert len(tracer._patches) == 0
    maps = [span for span in tracer.spans if span[1] == "quantum.scattering_map"]
    assert len(maps) == 1
    assert tracer.counts["quantum.scattering_map.inputs"] == 3
    (lo, hi), = quantum._active_intervals(scenario.spec, -1.0, 1.0)
    steps = math.ceil((hi - lo) / scenario.solver.dt - 1e-12)
    solves = [span for span in tracer.spans if span[1] == "quantum.solve_banded"]
    assert steps > 0 and len(solves) == steps


def test_jobs_sharing_an_operator_make_one_march_per_direction(tmp_path):
    # noncompact's three widths and pairing's forward packet share S; the
    # pairing packet mapped by S* marches alone
    doc = {"schema_version": 1, "name": "shared", "dimension": 1,
           "grid": {"points": 1024, "half_width": 80.0},
           "solver": {"dt": 2e-3, "margin": 0.25},
           "perturbation": {"bumps": [{
               "amplitude": 0.2, "center_z": [0.0], "center_t": 0.0,
               "radius_z": 12.0, "radius_t": 0.1, "pattern": [[1.0]]}]},
           "jobs": [{"check": "noncompact",
                     "params": {"Z0": [1.5], "frak0": [0.0], "h_list": [0.1, 0.05, 0.02]}},
                    {"check": "pairing", "params": {"tol": 5e-4}}]}
    path = tmp_path / "shared.scn"
    path.write_text(json.dumps(doc))
    tracer = _load_tracer().Tracer()
    with tracer:
        code, _ = shell.run(shell.load_scenario(str(path)), out_root=str(tmp_path))
        assert len(tracer._patches) == BINDINGS
    assert code == 0
    names = [span[1] for span in tracer.spans]
    assert names.count("quantum.scattering_map") == 1
    assert names.count("quantum.adjoint_scattering_map") == 1
    assert tracer.counts["quantum.scattering_map.inputs"] == 4
    assert tracer.counts["quantum.adjoint_scattering_map.inputs"] == 1
    checks = [span for span in tracer.spans if span[1].startswith("verify.check_")]
    assert [span[1] for span in checks] == ["verify.check_noncompactness",
                                            "verify.check_pairing"]
    assert {names[span[0]] for span in checks} == {"shell.run_job"}


def test_tracer_times_the_banded_solves_of_a_grid_job(tmp_path):
    # quantum imports scipy's solver at its first call, inside the module
    # function the tracer wraps, so every remainder solve is still timed
    doc = {"schema_version": 1, "name": "banded", "dimension": 1,
           "grid": {"points": 256, "half_width": 20.0},
           "solver": {"dt": 1e-2},
           "perturbation": {"bumps": [{
               "amplitude": 0.1, "center_z": [0.0], "center_t": 0.0,
               "radius_z": 1.0, "radius_t": 0.1, "pattern": [[1.0]]}]},
           "jobs": [{"check": "pairing", "params": {"tol": 1e-2}}]}
    path = tmp_path / "banded.scn"
    path.write_text(json.dumps(doc))
    tracer = _load_tracer().Tracer()
    with tracer:
        shell.run(shell.load_scenario(str(path)), out_root=str(tmp_path))
    names = [span[1] for span in tracer.spans]
    solves = [span for span in tracer.spans if span[1] == "quantum.solve_banded"]
    assert solves
    assert {names[span[0]] for span in solves} == {"quantum.propagate_window"}
    assert tracer.counts["quantum.solve_banded.bytes_computed"] > 0
