"""Bicharacteristic integration, the classical scattering map, diagnostics."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from cusplab import flow
from cusplab.errors import StepFailure, TrappingSuspected, ValidationError
from cusplab.flow import (
    classical_scatter,
    hamilton_rhs,
    integrate,
    radial_convergence,
    scatter_jacobian,
    symplectic_defect,
    time_reversed_spec,
)
from cusplab.phasespace import (
    CuspData,
    PhasePoint,
    bichar_from_cusp,
    cusp_from_bichar,
    free_flow,
    galilean_invariant,
)
from cusplab.symbols import (
    MetricBump,
    PerturbationSpec,
    PotentialTerm,
    flat_spec,
    principal_symbol,
    symbol_jet,
)
from cusplab.verify import check_radial, check_symplectic

BUMP2 = PerturbationSpec(n=2, bumps=(MetricBump(
    amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
    radius_z=1.0, radius_t=1.0, pattern=np.eye(2)),))

POT2 = PerturbationSpec(n=2, potential_terms=(PotentialTerm(
    amplitude=0.1, center_z=[0.0, 0.0], center_t=0.0,
    radius_z=1.0, radius_t=1.0),))

BEAM = CuspData(Z=[1.0, 0.0], frak=[0.0, 0.3])

# frozen reference for classical_scatter(BUMP2, BEAM): independent fixed-step
# RK4 oracle at 40k/80k steps over the same transit, Richardson gap 1.6e-12
REF_Z_OUT = np.array([0.999808975353424, -0.02889223935701866])
REF_FRAK_OUT = np.array([-0.02549362008467959, 0.3007940268463855])


def test_hamilton_rhs_flat():
    p = PhasePoint(z=[0.4, -1.0], t=0.2, zeta=[0.7, 0.1], tau=-0.5)
    rhs = hamilton_rhs(flat_spec(2), p)
    assert np.array_equal(rhs, [1.4, 0.2, 1.0, 0.0, 0.0, 0.0])


def test_hamilton_rhs_at_bump_center():
    p = PhasePoint(z=[0.0, 0.0], t=0.0, zeta=[1.0, 0.5], tau=-1.25)
    rhs = hamilton_rhs(BUMP2, p)
    assert np.allclose(rhs[:2], 2.0 * 1.05 * p.zeta, atol=1e-14)
    assert rhs[2] == 1.0
    # time-centred bump: d/dt vanishes at t = 0, d/dz vanishes at the centre
    assert np.allclose(rhs[3:], 0.0, atol=1e-14)


def test_hamilton_rhs_is_symplectic_gradient():
    rng = np.random.default_rng(17)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(-1, 1, 2)
        t = float(rng.uniform(-1, 1))
        zeta = rng.uniform(-2, 2, 2)
        tau = -float(zeta @ BUMP2.inverse_metric(z, t) @ zeta)
        p = PhasePoint(z=z, t=t, zeta=zeta, tau=tau)
        rhs = hamilton_rhs(BUMP2, p)
        grad = np.zeros(6)
        base = np.concatenate([z, [t], zeta, [tau]])
        for i in range(6):
            dq = np.zeros(6)
            dq[i] = h
            pp = PhasePoint.from_state(base + dq)
            pm = PhasePoint.from_state(base - dq)
            grad[i] = (principal_symbol(BUMP2, pp) - principal_symbol(BUMP2, pm)) / (2 * h)
        expected = np.concatenate([grad[3:5], [grad[5]], -grad[:2], [-grad[2]]])
        worst = max(worst, float(np.max(np.abs(rhs - expected))))
    assert worst < 1e-6


def test_integrate_flat_matches_closed_form():
    p0 = PhasePoint(z=[1.0, 2.0], t=0.0, zeta=[0.5, -0.3], tau=-0.34)
    traj = integrate(flat_spec(2), p0, 7.0)
    end = PhasePoint.from_state(traj.states[-1])
    assert np.array_equal(end.z, p0.z + 2.0 * p0.zeta * 7.0)
    assert end.t == 7.0
    mid = traj.dense(3.1)
    assert np.allclose(mid.z, p0.z + 2.0 * p0.zeta * 3.1, atol=1e-14)


def test_integrate_time_reversal_round_trip():
    tol = 1e-11
    p0 = bichar_from_cusp(BEAM, -2.3)
    fwd = integrate(BUMP2, p0, 2.3, tol=tol)
    end = PhasePoint.from_state(fwd.states[-1])
    back = integrate(BUMP2, end, -2.3, tol=tol)
    start = back.states[0]
    assert np.max(np.abs(start - p0.state())) < 100 * tol * 1e3


def test_integrate_p_conservation_budget():
    tol = 1e-11
    p0 = bichar_from_cusp(BEAM, -2.3)
    traj = integrate(BUMP2, p0, 2.3, tol=tol)
    residuals = [abs(principal_symbol(BUMP2, PhasePoint.from_state(x)))
                 for x in traj.states]
    assert max(residuals) <= 1e-9
    assert traj.stats["max_p_drift"] <= 10 * tol * (2.3 + 2.3) * 10


def test_integrate_builds_phase_points_only_for_samples(monkeypatch):
    # the Runge-Kutta stages and the trajectory hold state rows; a
    # PhasePoint is built only for the state at each segment end
    calls = []
    post_init = PhasePoint.__post_init__

    def counting(self):
        calls.append(None)
        post_init(self)

    p0 = bichar_from_cusp(BEAM, -2.3)
    monkeypatch.setattr(PhasePoint, "__post_init__", counting)
    traj = integrate(BUMP2, p0, 2.3, tol=1e-11)
    monkeypatch.undo()
    assert traj.stats["steps"] > 10
    assert 0 < len(calls) <= len(traj.segments)


def _five_bumps():
    # five bumps on the beam z = 2t: five numeric segments
    return PerturbationSpec(n=1, bumps=tuple(MetricBump(
        amplitude=0.1, center_z=[z], center_t=z / 2, radius_z=0.8, radius_t=0.3,
        pattern=1.0) for z in (-8.0, -4.0, 0.0, 4.0, 8.0)))


def test_rejected_step_count_is_exact_over_many_segments(monkeypatch):
    # every call of the Runge-Kutta step is one attempt
    attempts = []
    rk_step = flow._rk_step

    def counting(*args, **kwargs):
        attempts.append(None)
        return rk_step(*args, **kwargs)

    p0 = PhasePoint.from_state(np.array([-12.0, -6.0, 1.0, -1.0]))
    monkeypatch.setattr(flow, "_rk_step", counting)
    traj = integrate(_five_bumps(), p0, 6.0)
    monkeypatch.undo()
    assert sum(seg.numeric for seg in traj.segments) == 5
    assert traj.stats["rejected_steps_estimate"] == len(attempts) - traj.stats["steps"] > 0


BUMP1 = PerturbationSpec(n=1, bumps=(MetricBump(
    amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0, radius_t=1.0, pattern=1.0),))

# (spec, seed state, final time, tol, numeric segments forward and
# backward); each runs forward from the seed and backward from the forward
# run's end
_SCIPY_CASES = {
    "1-D": (BUMP1, [-4.0, -2.0, 1.0, -1.0], 2.0, 1e-11, (1, 1)),
    "2-D": (BUMP2, bichar_from_cusp(BEAM, -2.3).state(), 2.3, 1e-11, (1, 1)),
    # forward, the t entry of the last state ends a rounding error short of
    # 0.3, yet the segment's clock reaches it: one numeric segment
    "2-D, ends inside": (BUMP2, bichar_from_cusp(BEAM, -2.3).state(), 0.3, 1e-9, (1, 1)),
    "1-D, five segments": (_five_bumps(), [-12.0, -6.0, 1.0, -1.0], 6.0, 1e-11, (5, 5)),
    # overlapping in space and time, with patterns that are not diagonal:
    # each bump's cached window, its zeta @ P and the sums over the bumps
    "2-D, two sheared bumps": (PerturbationSpec(n=2, bumps=(
        MetricBump(amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0, radius_z=1.0,
                   radius_t=1.0, pattern=[[1.0, 0.4], [0.4, -0.5]]),
        MetricBump(amplitude=-0.04, center_z=[0.6, -0.2], center_t=0.3, radius_z=0.8,
                   radius_t=0.7, pattern=[[0.3, -0.6], [-0.6, 0.8]]))),
        bichar_from_cusp(BEAM, -2.3).state(), 2.3, 1e-11, (1, 1)),
}


def _scipy_segment(spec, x0, t_final, tol):
    """solve_ivp's RK45 run of a numeric segment from the state row x0,
    with the exit from the support as its terminal event."""
    from scipy.integrate import solve_ivp

    def exit_event(t, x):
        return flow._outsideness(spec, x[:spec.n], t) - flow.EXIT_SHELL

    exit_event.terminal = True
    exit_event.direction = 1.0
    return solve_ivp(spec.hamilton_field, (float(x0[spec.n]), t_final), x0, method="RK45",
                     rtol=tol, atol=tol, dense_output=True, events=exit_event)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize("case", list(_SCIPY_CASES))
def test_integrate_is_bitwise_scipy_rk45(case, backward):
    # each numeric segment is scipy's RK45 run from the segment's first row:
    # the same rows, bounds, step and rejection counts, and dense output at
    # the step ends and between them, one time at a time and in arrays
    spec, x0, t_final, tol, n_numeric = _SCIPY_CASES[case]
    p0 = PhasePoint.from_state(np.asarray(x0, dtype=float))
    if backward:
        p0, t_final = PhasePoint.from_state(integrate(spec, p0, t_final, tol=tol).states[-1]), p0.t
    traj = integrate(spec, p0, t_final, tol=tol)
    rows, segments = traj.states, traj.segments
    if backward:
        rows, segments = rows[::-1], segments[::-1]
    rng = np.random.default_rng(5)
    i = steps = rejected = numeric = 0
    inside = 0.0
    for seg in segments:
        if not seg.numeric:
            i += 1
            continue
        res = _scipy_segment(spec, rows[i], t_final, tol)
        m = len(res.t) - 1
        assert np.array_equal(rows[i + 1:i + 1 + m], res.y.T[1:])
        assert (seg.t_lo, seg.t_hi) == tuple(sorted((float(res.t[0]), float(res.t[-1]))))
        times = np.concatenate([res.t, (res.t[:-1] + res.t[1:]) / 2,
                                rng.uniform(seg.t_lo, seg.t_hi, 9)])
        for t in times:
            assert np.array_equal(seg.sol(t), res.sol(t))
        for ts in (times, np.sort(times), rng.permutation(times), res.t[::-1]):
            assert np.array_equal(seg.sol(ts), res.sol(ts))
        steps += m
        rejected += (res.nfev - 2) // 6 - m
        inside += seg.t_hi - seg.t_lo
        numeric += 1
        i += m
    assert numeric == n_numeric[backward] and i == len(rows) - 1
    p_res = np.abs(rows[:, 2 * spec.n + 1] + spec.kinetic(rows))
    assert traj.stats == {"steps": steps, "rejected_steps_estimate": rejected,
                          "max_p_drift": float(p_res.max() - p_res[0]),
                          "time_inside_support": inside}


def test_flow_through_the_row_path_is_the_flow_through_a_stack_of_one(monkeypatch):
    # one state's field comes from the row path in Python floats; given as a
    # stack of one row it comes from the array path.  The two round apart in
    # the last bit on about 0.1 % of states inside a support (pow(s, 2)
    # against s * s), on none of this beam's, so its march is the same
    def beam():
        return (integrate(BUMP2, bichar_from_cusp(BEAM, -2.3), 2.3, tol=1e-11),
                classical_scatter(BUMP2, BEAM, tol=1e-11))

    traj, res = beam()
    field = PerturbationSpec.hamilton_field
    monkeypatch.setattr(PerturbationSpec, "hamilton_field",
                        lambda self, t, x: field(self, t, x[None])[0])
    traj_stack, res_stack = beam()
    assert traj.states.tobytes() == traj_stack.states.tobytes()
    assert traj.stats == traj_stack.stats and traj.stats["steps"] > 0
    assert res.c_out.pair().tobytes() == res_stack.c_out.pair().tobytes()
    assert (res.transit, res.action_diff) == (res_stack.transit, res_stack.action_diff)


def test_a_beam_crosses_a_bump_of_radius_below_1e_61():
    # the beam meets the bump's centre at t = 0 and is outside its support,
    # where the field is flat, from the next stage on.  There the slope's
    # denominator, radius**2 * (1 - r^2)**2, underflows to 0, and the field
    # was once NaN (0/0), which failed the march
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1e-70, radius_t=1.0,
        pattern=1.0),))
    p0 = PhasePoint.from_state(np.array([-4.0, -2.0, 1.0, -1.0]))
    traj = integrate(spec, p0, 2.0)
    assert [seg.numeric for seg in traj.segments] == [False, True, False]
    assert traj.stats["steps"] > 0
    assert np.array_equal(traj.states[:, 2:], np.tile([1.0, -1.0], (len(traj.states), 1)))
    assert abs(traj.states[-1, 0] - 4.0) < 1e-10


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, not a hang, when the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_field_that_turns_nan_is_a_step_failure(monkeypatch):
    # past t = 0.2 the field is NaN: every step there is rejected and
    # shrinks until it is below the spacing of t, never a hang
    field = PerturbationSpec.hamilton_field

    def turning_nan(self, t, x):
        f = field(self, t, x)
        return np.where(x[..., self.n] > 0.2, np.nan, f)

    monkeypatch.setattr(PerturbationSpec, "hamilton_field", turning_nan)
    with _deadline(20), pytest.raises(StepFailure, match="step size"):
        integrate(BUMP2, bichar_from_cusp(BEAM, -2.3), 2.3, tol=1e-11)


@pytest.mark.parametrize("f", [
    lambda x: x ** 3 - 0.3,
    lambda x: math.exp(x) - 1.5,
    lambda x: math.tanh(50.0 * (x - 0.2)) + 0.1 * x,
    lambda x: (x - 0.1) * abs(x - 0.1) ** 0.3,
], ids=["cubic", "exp", "steep", "cusp"])
def test_brent_root_is_bitwise_brentq(f):
    # the same evaluation points and the same root as scipy's brentq with
    # the tolerances solve_ivp places events with
    from scipy.optimize import brentq

    eps = np.finfo(float).eps
    for a, b in ((-1.0, 1.0), (1.0, -1.0), (-0.4, 1.3)):
        calls, ref_calls = [], []
        root = flow._brent_root(lambda x: calls.append(x) or f(x), a, b)
        ref = brentq(lambda x: ref_calls.append(x) or f(x), a, b, xtol=4 * eps, rtol=4 * eps)
        assert root == ref and calls == ref_calls and len(calls) > 5


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1e300, 1.0])
def test_integrate_refuses_a_tolerance_not_finite_or_not_below_one(tol):
    # a NaN tol makes the step size NaN, which no step-size test stops; at
    # 1e300 every step passes and the flow crosses the bump in 7 steps
    p0 = PhasePoint(z=[-4.0], t=-2.0, zeta=[1.0], tau=-1.0)
    with _deadline(20), pytest.raises(ValueError, match="^tol "):
        integrate(BUMP1, p0, 2.0, tol=tol)


@pytest.mark.parametrize("t_final", [float("nan"), float("inf"), -float("inf")])
def test_integrate_refuses_a_final_time_not_finite(t_final):
    # a NaN t_final would end the loop at once, leaving a one-row trajectory
    # with no segments; an infinite one would fail in PhasePoint, without
    # naming t_final
    p0 = PhasePoint(z=[-4.0], t=-2.0, zeta=[1.0], tau=-1.0)
    with _deadline(20), pytest.raises(ValueError, match="^t_final "):
        integrate(BUMP1, p0, t_final)


def test_integrate_monotone_samples_and_csv(tmp_path):
    p0 = bichar_from_cusp(BEAM, -2.3)
    traj = integrate(BUMP2, p0, 2.3, tol=1e-9)
    ts = traj.states[:, 2]
    assert np.all(np.diff(ts) > 0)
    path = tmp_path / "traj.csv"
    traj.export_csv(path, stride=0.25)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,z_1,z_2,zeta_1,zeta_2,tau,p_residual"
    assert len(lines) > 10
    first = [float(v) for v in lines[1].split(",")]
    assert abs(first[0] + 2.3) < 1e-12
    assert abs(first[-1]) < 1e-9    # on-characteristic residual column


@pytest.mark.parametrize("t0, t1", [(-0.2, 0.3), (0.3, -0.2)], ids=["forward", "backward"])
def test_flow_ending_inside_is_one_segment_sampled_to_its_end(tmp_path, t0, t1):
    # the segment's clock ends the flow at t1, though the t entry of its last
    # row may fall a rounding error short; the CSV samples the segments' span,
    # so it keeps a sample that falls on t1
    traj = integrate(BUMP2, bichar_from_cusp(BEAM, t0), t1, tol=1e-9)
    assert len(traj.segments) == 1
    path = tmp_path / "traj.csv"
    traj.export_csv(path, stride=0.25)
    times = [float(line.split(",", 1)[0]) for line in path.read_text().splitlines()[1:]]
    assert len(times) == 3 and (times[0], times[-1]) == (-0.2, 0.3)


@pytest.mark.parametrize("t0, t1", [(-3.0, 0.3), (0.3, -3.0)], ids=["forward", "backward"])
def test_csv_ends_at_the_end_of_the_span(tmp_path, t0, t1):
    # from -3 by 0.01 the grid ends at 0.29999999999992966, a rounding error
    # short of 0.3: that row becomes 0.3.  By 0.25 it ends at 0.25, and 0.3
    # follows it.  Every other row is the grid's
    traj = integrate(BUMP2, bichar_from_cusp(BEAM, t0), t1, tol=1e-9)
    path = tmp_path / "traj.csv"
    for stride, grid_rows in ((0.01, 330), (0.25, 14)):
        traj.export_csv(path, stride=stride)
        rows = path.read_text().splitlines()[1:]
        grid = np.arange(-3.0, 0.3 + 0.5 * stride, stride)[:grid_rows]
        assert [row.split(",", 1)[0] for row in rows[:-1]] == [f"{t:.17g}" for t in grid]
        end = traj.dense(0.3)
        assert rows[-1] == ",".join(f"{v:.17g}" for v in [
            0.3, *end.z, *end.zeta, end.tau, principal_symbol(BUMP2, end)])


def test_trapping_budget_guard(monkeypatch):
    monkeypatch.setattr(flow, "_transit_budget", lambda spec, zeta: 1e-3)
    p0 = bichar_from_cusp(BEAM, -2.3)
    with pytest.raises(TrappingSuspected):
        integrate(BUMP2, p0, 2.3, tol=1e-9)


def test_classical_scatter_flat_is_exact_identity():
    res = classical_scatter(flat_spec(2), BEAM)
    assert np.array_equal(res.c_out.Z, BEAM.Z)
    assert np.array_equal(res.c_out.frak, BEAM.frak)
    assert res.potential_phase == 0.0 and res.action_diff == 0.0


def test_classical_scatter_pure_potential_identity_and_phase():
    res = classical_scatter(POT2, BEAM, tol=1e-11)
    assert np.max(np.abs(res.c_out.pair() - BEAM.pair())) < 1e-12
    _assert_pure_potential_integrals(res)


def _assert_pure_potential_integrals(res):
    def v_beam(t):
        return POT2.potential(2 * t * BEAM.Z - BEAM.frak, t).real

    oracle, _ = quad(v_beam, -1.1, 1.1, epsabs=1e-13, epsrel=1e-13)
    assert abs(res.potential_phase - oracle) < 1e-8
    assert res.potential_phase_imag == 0.0
    assert abs(res.action_diff) < 1e-10


def test_beam_integrals_are_computed_once_on_first_read(monkeypatch):
    gauss_panels = flow._gauss_panels

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran for a caller that reads only c_out")

    # the map, its Jacobian and the checks built on them need no quadrature
    monkeypatch.setattr(flow, "_gauss_panels", no_quadrature)
    scatter_jacobian(BUMP2, BEAM, h_fd=1e-4)
    assert check_symplectic(BUMP2, samples=1, seed=3).satisfied
    assert check_radial(BUMP2, BEAM.Z, BEAM.frak).satisfied

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return gauss_panels(*args, **kwargs)

    monkeypatch.setattr(flow, "_gauss_panels", counting)
    res = classical_scatter(POT2, BEAM, tol=1e-11)
    assert calls == []
    for _ in range(2):
        _assert_pure_potential_integrals(res)
        assert res.transit is not None
    assert calls == res.trajectory.numeric_spans()


def test_classical_scatter_bump_matches_frozen_reference():
    res = classical_scatter(BUMP2, BEAM, tol=1e-11)
    assert res.displacement > 0.01
    assert np.max(np.abs(res.c_out.Z - REF_Z_OUT)) < 1e-8
    assert np.max(np.abs(res.c_out.frak - REF_FRAK_OUT)) < 1e-8


def test_classical_scatter_identity_for_missing_beams():
    rng = np.random.default_rng(23)
    for _ in range(10):
        frak = rng.uniform(5.0, 50.0, 2) * rng.choice([-1.0, 1.0], 2)
        c = CuspData(Z=rng.uniform(0.5, 2.0, 2), frak=frak)
        # keep only beams whose free extension misses the unit bump
        ts = np.linspace(-1.0, 1.0, 201)
        dists = np.linalg.norm(2 * ts[:, None] * c.Z - c.frak, axis=1)
        if np.min(dists) < 1.5:
            continue
        res = classical_scatter(BUMP2, c)
        assert np.array_equal(res.c_out.Z, c.Z)
        assert np.array_equal(res.c_out.frak, c.frak)
        assert res.transit is None


def test_classical_scatter_galilean_invariance_on_free_segments():
    res = classical_scatter(BUMP2, BEAM, tol=1e-11)
    for seg in res.trajectory.segments:
        if seg.numeric:
            continue
        a = PhasePoint.from_state(seg.sol(seg.t_lo))
        b = PhasePoint.from_state(seg.sol(seg.t_hi))
        assert np.max(np.abs(galilean_invariant(a) - galilean_invariant(b))) < 1e-12


def test_free_segment_solution_is_the_free_flow():
    # a free segment's dense solution is the closed-form flight through its
    # start state, a row of the trajectory, in both directions
    for t0, t1 in ((-2.3, 2.3), (2.3, -2.3)):
        traj = integrate(BUMP2, bichar_from_cusp(BEAM, t0), t1, tol=1e-11)
        free = [seg for seg in traj.segments if not seg.numeric]
        assert len(free) == 2
        for seg in free:
            start = seg.sol(seg.t_lo if t1 > t0 else seg.t_hi)
            assert np.any(np.all(traj.states == start, axis=1))
            anchor = PhasePoint.from_state(start)
            for t in np.linspace(seg.t_lo, seg.t_hi, 7)[1:-1]:
                flown = free_flow(anchor, t - anchor.t).state()
                assert np.array_equal(seg.sol(t), flown)
                assert np.array_equal(traj.dense(t).state(), flown)


def test_backward_integrate_states_ascend_and_drift_is_relative_to_p0():
    p0 = bichar_from_cusp(BEAM, 2.3)
    traj = integrate(BUMP2, p0, -2.3, tol=1e-11)
    ts = traj.states[:, 2]
    assert np.all(np.diff(ts) > 0)
    assert np.array_equal(traj.states[-1], p0.state())
    assert not traj.segments[0].numeric and traj.segments[0].t_lo == ts[0]
    p_res = np.abs(traj.states[:, 5] + BUMP2.kinetic(traj.states))
    assert traj.stats["max_p_drift"] == p_res.max() - p_res[-1]
    # the drift the per-sample trajectory reported on this beam
    assert traj.stats["max_p_drift"] == pytest.approx(3.328337605523757e-11, rel=1e-6)


def test_classical_scatter_time_reversal_composition():
    tol = 1e-11
    res = classical_scatter(BUMP2, BEAM, tol=tol)
    rev = time_reversed_spec(BUMP2)
    flipped = CuspData(Z=-res.c_out.Z, frak=res.c_out.frak)
    back = classical_scatter(rev, flipped, tol=tol)
    assert np.max(np.abs(back.c_out.Z - (-BEAM.Z))) < 100 * tol * 1e3
    assert np.max(np.abs(back.c_out.frak - BEAM.frak)) < 100 * tol * 1e3


def test_scatter_jacobian_flat_identity():
    jac = scatter_jacobian(flat_spec(2), BEAM, h_fd=1e-4)
    assert np.max(np.abs(jac - np.eye(4))) < 1e-8


def test_scatter_jacobian_pure_potential_identity():
    jac = scatter_jacobian(POT2, BEAM, h_fd=1e-4)
    assert np.max(np.abs(jac - np.eye(4))) < 1e-8


def test_scatter_jacobian_symplectic():
    jac = scatter_jacobian(BUMP2, BEAM, h_fd=1e-4, tol=1e-11)
    assert symplectic_defect(jac) < 1e-6


def test_radial_convergence_flat_exact_decay():
    p0 = PhasePoint(z=[0.5, -0.2], t=0.0, zeta=[1.0, 0.0], tau=-1.0)
    rep = radial_convergence(flat_spec(2), p0, horizon=1e6)
    assert abs(rep.exponent_forward - 1.0) < 1e-6
    assert abs(rep.exponent_backward - 1.0) < 1e-6
    # limiting Z equals the (constant) frequency in both directions
    assert np.array_equal(rep.limit_forward.Z, p0.zeta)
    assert np.array_equal(rep.limit_backward.Z, p0.zeta)


def test_radial_convergence_limits_match_scatter():
    res = classical_scatter(BUMP2, BEAM, tol=1e-11)
    p0 = bichar_from_cusp(BEAM, -3.0)
    rep = radial_convergence(BUMP2, p0, horizon=1e6, tol=1e-11)
    assert np.max(np.abs(rep.limit_forward.pair() - res.c_out.pair())) < 1e-8
    assert np.max(np.abs(rep.limit_backward.pair() - BEAM.pair())) < 1e-8


@pytest.mark.parametrize("horizon", [0.5, -1e3, np.nan, np.inf])
def test_radial_convergence_refuses_a_horizon_that_samples_nothing_beyond_the_beam(horizon):
    # the samples start at |t| >= 1, beyond the window: a horizon nearer in
    # samples the free flight run back into the window
    with pytest.raises(ValidationError, match="horizon"):
        radial_convergence(BUMP2, bichar_from_cusp(BEAM, -3.0), horizon=horizon, tol=1e-11)


def test_zero_frequency_beam_is_supported():
    c = CuspData(Z=[0.0, 0.0], frak=[0.2, 0.1])   # stationary beam inside bump
    res = classical_scatter(BUMP2, c, tol=1e-11)
    assert res.transit is not None
    assert np.all(np.isfinite(res.c_out.pair()))


def test_action_diff_reported_for_metric_transit():
    res = classical_scatter(BUMP2, BEAM, tol=1e-11)
    assert res.action_diff != 0.0
    assert abs(res.action_diff) < 0.1
