"""Check reports: pass/fail semantics, examples, and negative controls."""

import inspect
import math

import numpy as np
import pytest

from cusplab import verify
from cusplab.errors import InvalidArgument, ValidationError
from cusplab.quantum import Grid, SolverParams
from cusplab.symbols import MetricBump, PerturbationSpec, PotentialTerm, flat_spec
from cusplab.verify import (
    JOB_FAMILIES,
    CheckReport,
    Measurement,
    check_egorov,
    check_eikonal_phase,
    check_free_identity,
    check_highfreq_identity,
    check_noncompactness,
    check_pairing,
    check_radial,
    check_symplectic,
    check_unitarity,
)

GRID = Grid(n=1, N=1024, L=30.0)
PARAMS = SolverParams(dt=1e-3)


def _potential_spec(amp=0.5, radius_z=4.0):
    return PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=amp, center_z=[0.0], center_t=0.0,
        radius_z=radius_z, radius_t=1.0),))


def _metric_spec(eps=0.05, radius_z=4.0):
    return PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=eps, center_z=[0.0], center_t=0.0,
        radius_z=radius_z, radius_t=1.0, pattern=np.eye(1)),))


def test_report_status_is_pure_function_of_measurements():
    good = Measurement("a", 0.5, 1.0)
    bad = Measurement("b", 2.0, 1.0)
    assert CheckReport(name="x", measured=[good]).status == "pass"
    assert CheckReport(name="x", measured=[good, bad]).status == "fail"
    control = CheckReport(name="x", measured=[bad], control=True)
    assert control.status == "fail" and control.satisfied


def test_measurement_rejects_nonfinite_values():
    assert not Measurement("m", float("nan"), 1.0).ok
    assert not Measurement("m", float("inf"), 1.0).ok


def test_free_identity_passes_and_mutated_control_fails():
    report = check_free_identity(GRID, PARAMS, tol=1e-6, span=1.0)
    assert report.status == "pass"
    assert all(m.value < 1e-12 for m in report.measured)
    control = check_free_identity(GRID, PARAMS, tol=1e-6, span=1.0, control=True)
    assert control.status == "fail" and control.control and control.satisfied


def test_unitarity_real_potential_and_dissipative_control():
    report = check_unitarity(_potential_spec(0.5), GRID, PARAMS, tol=1e-6)
    assert report.status == "pass"
    control = check_unitarity(_potential_spec(0.5), GRID, PARAMS, tol=1e-6,
                              control=True)
    assert control.status == "fail" and control.satisfied


def test_unitarity_rejects_metric_or_complex_potential():
    with pytest.raises(ValidationError):
        check_unitarity(_metric_spec(), GRID, PARAMS)
    with pytest.raises(ValidationError):
        check_unitarity(_potential_spec(0.3 - 0.2j), GRID, PARAMS)


def test_pairing_flat_and_potential_and_metric():
    assert check_pairing(flat_spec(1), GRID, PARAMS, tol=1e-10).status == "pass"
    assert check_pairing(_potential_spec(0.4), GRID, PARAMS, tol=5e-4).status == "pass"
    metric = check_pairing(_metric_spec(0.05), GRID, PARAMS, tol=5e-3, refine=True)
    assert metric.status == "pass"
    labels = [m.label for m in metric.measured]
    assert "refinement-shrink" in labels


def test_symplectic_check_on_2d_bump():
    spec = PerturbationSpec(n=2, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=1.0, radius_t=1.0, pattern=np.eye(2)),))
    report = check_symplectic(spec, samples=5, tol=1e-6, seed=3)
    assert report.status == "pass"


def test_radial_check_bump():
    report = check_radial(_metric_spec(0.05), [1.0], [0.3])
    assert report.status == "pass"


def test_egorov_flat_control_absolute_cap():
    report = check_egorov(flat_spec(1), GRID, [1.0], [0.0], [0.1, 0.05],
                          PARAMS, abs_cap=1e-6)
    assert report.status == "pass"
    labels = [m.label for m in report.measured]
    assert "max-absolute-moment-drift" in labels


def test_egorov_pure_potential_moments_drift_small():
    # classical map is the identity; quantum moments drift by the eikonal
    # phase gradient only (weak-coupling control run, <= 2%)
    spec = _potential_spec(0.2, radius_z=4.0)
    report = check_egorov(spec, GRID, [1.0], [0.0], [0.1, 0.05], PARAMS,
                          abs_cap=0.02)
    assert report.status == "pass"


def test_egorov_requires_decreasing_h_list():
    with pytest.raises(ValidationError):
        check_egorov(flat_spec(1), GRID, [1.0], [0.0], [0.01, 0.1], PARAMS)


@pytest.mark.parametrize("h_list", [[0.02, 0.05, 0.1], [0.05, 0.05]])
def test_noncompact_requires_decreasing_h_list(h_list):
    # increasing widths once failed a correct operator (weak-null trend
    # +0.144); equal widths passed with a family that is not weakly null
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0], center_t=0.0, radius_z=18.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=2048, L=48.0)
    with pytest.raises(InvalidArgument) as err:
        check_noncompactness(spec, grid, [1.5], [0.0], h_list=h_list, params=PARAMS)
    assert err.value.field == "h_list"


def test_eikonal_zero_potential_gives_zero_phases():
    report = check_eikonal_phase(flat_spec(1), GRID, [1.0], [0.0], h=0.25,
                                 params=PARAMS)
    assert report.status == "pass"
    mismatch = [m for m in report.measured if m.label == "phase-mismatch"][0]
    assert mismatch.value < 1e-12


def test_eikonal_single_bump_within_tolerance_and_linear():
    spec = _potential_spec(0.05, radius_z=8.0)
    grid = Grid(n=1, N=2048, L=30.0)
    report = check_eikonal_phase(spec, grid, [1.0], [0.0], h=0.25, params=PARAMS)
    assert report.status == "pass"


def test_eikonal_rejects_strong_potential():
    with pytest.raises(ValidationError):
        check_eikonal_phase(_potential_spec(0.5), GRID, [1.0], [0.0])


def test_highfreq_flat_spec_trivial():
    report = check_highfreq_identity(flat_spec(1), GRID, [1.0], [10.0], h=0.5,
                                     params=PARAMS, tol=1e-8)
    assert report.status == "pass"


def test_highfreq_offset_beam_and_control():
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.5, center_z=[0.0], center_t=0.0, radius_z=1.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=4096, L=32.0)
    report = check_highfreq_identity(spec, grid, [1.0], [16.0],
                                     frak_through=[0.0], h=0.5, params=PARAMS)
    assert report.status == "pass"
    labels = {m.label: m for m in report.measured}
    assert labels["far-beam-defect"].value <= 1e-3
    assert labels["control-discriminates"].value <= 0.0


def test_highfreq_rejects_insufficient_offset():
    spec = _metric_spec(0.05, radius_z=1.0)
    with pytest.raises(ValidationError):
        check_highfreq_identity(spec, GRID, [1.0], [2.0], h=0.5, params=PARAMS)


def test_noncompact_flat_control_fails_fixed_floor():
    report = check_noncompactness(flat_spec(1), GRID, [1.0], [0.0],
                                  h_list=[0.1, 0.05], params=PARAMS,
                                  c_floor=0.05, control=True)
    assert report.status == "fail" and report.satisfied


def test_noncompact_displacing_bump_holds_floor():
    # wide time-gated pulse: the classical image is genuinely displaced
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0], center_t=0.0, radius_z=18.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=2048, L=48.0)
    report = check_noncompactness(spec, grid, [1.5], [0.0],
                                  h_list=[0.1, 0.05, 0.02], params=PARAMS)
    assert report.status == "pass"
    floors = {m.label: m for m in report.measured}
    assert floors["difference-norm-floor"].value <= 0.0
    assert floors["weak-null-trend"].value <= 0.0


def test_every_check_ships_a_failing_negative_control():
    """One deliberately broken configuration per check must report fail."""
    wide = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0], center_t=0.0, radius_z=18.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid48 = Grid(n=1, N=2048, L=48.0)
    controls = [
        check_free_identity(GRID, PARAMS, span=1.0, control=True),
        check_unitarity(_potential_spec(0.5), GRID, PARAMS, control=True),
        check_pairing(_potential_spec(0.3 - 0.1j), GRID, PARAMS, control=True),
        check_symplectic(_metric_spec(0.05), samples=1, seed=3, control=True),
        check_radial(_metric_spec(0.05), [1.0], [0.3], control=True),
        check_egorov(wide, grid48, [1.5], [0.0], [0.1], PARAMS, control=True),
        check_eikonal_phase(_potential_spec(0.05, radius_z=8.0), GRID,
                            [1.0], [0.0], h=0.25, params=PARAMS, control=True),
        check_noncompactness(flat_spec(1), GRID, [1.0], [0.0],
                             h_list=[0.1, 0.05], params=PARAMS,
                             c_floor=0.05, control=True),
    ]
    for report in controls:
        assert report.control, report.name
        assert report.status == "fail", report.name
        assert report.satisfied, report.name


def test_highfreq_through_beam_control_is_discriminating():
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.5, center_z=[0.0], center_t=0.0, radius_z=1.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=4096, L=32.0)
    report = check_highfreq_identity(spec, grid, [1.0], [16.0],
                                     frak_through=[0.0], h=0.5, params=PARAMS,
                                     tol=1e-3, control_floor=1e-1)
    control = [m for m in report.measured if m.label == "control-discriminates"][0]
    assert control.value <= 0.0    # the through-beam defect exceeds the floor


def test_reports_serialize(tmp_path):
    report = check_free_identity(GRID, PARAMS, tol=1e-6, span=0.5,
                                 out_dir=str(tmp_path))
    path = report.write(str(tmp_path))
    import json

    doc = json.loads(open(path).read())
    assert doc["status"] == "pass"
    assert doc["measured"][0]["ok"] is True
    assert report.artifacts and report.artifacts[0].endswith(".csv")


# every argument a check needs but no tolerance: fixed, valid values
_REQUIRED = {"spec": _metric_spec(), "grid": Grid(n=1, N=64, L=30.0), "Z0": [1.0],
             "frak0": [0.3], "frak_far": [12.0], "h_list": [0.1, 0.05]}
# out of range, though neither non-finite nor a non-positive float
_OUT_OF_RANGE = {"samples": [0, -3], "seed": [-1], "tol_flow": [1.0],
                 "h_list": [[], [0.02, 0.05, 0.1], [0.05, 0.05], [0.1, 0.0], [0.1, -0.05]]}


@pytest.mark.parametrize("family", sorted(JOB_FAMILIES))
def test_a_check_refuses_a_non_finite_tolerance_by_name(family):
    # a NaN tolerance once gave a report whose measurement could never pass
    # (or, as a control, could never fail) instead of an error naming it;
    # samples 0 passed having measured nothing, and an empty h_list was an
    # IndexError.  The numbers are the arguments whose default is a real
    # number, and c_floor, whose default is None
    check = getattr(verify, JOB_FAMILIES[family][0])
    args = inspect.signature(check).parameters
    numbers = [name for name, arg in args.items() if name == "c_floor" or (
        isinstance(arg.default, (int, float)) and not isinstance(arg.default, bool))]
    assert numbers
    required = {name: _REQUIRED[name] for name, arg in args.items()
                if arg.default is arg.empty}
    cases = [(name, value) for name in numbers
             for value in (math.nan, math.inf, -1.0) + ((0.0,) if name != "seed" else ())]
    cases += [(name, value) for name in args for value in _OUT_OF_RANGE.get(name, [])]
    for name, value in cases:
        with pytest.raises(InvalidArgument) as refused:
            check(**{**required, name: value})
        assert refused.value.field == name, (name, value)
