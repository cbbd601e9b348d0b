"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run under ``pytest -s`` to stream
them).  Tolerances are pinned here; the runtime budgets are asserted with
the wall clock.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from cusplab.flow import (
    classical_scatter,
    integrate,
    radial_convergence,
    scatter_jacobian,
    symplectic_defect,
)
from cusplab.phasespace import (
    CuspData,
    PhasePoint,
    bichar_from_cusp,
    from_boundary_chart,
    galilean_invariant,
    to_boundary_chart,
)
from cusplab.quantum import Grid, SolverParams, coherent_data, asymptotic_profile_error
from cusplab.symbols import MetricBump, PerturbationSpec, PotentialTerm, principal_symbol
from cusplab.verify import (
    check_egorov,
    check_eikonal_phase,
    check_free_identity,
    check_highfreq_identity,
    check_noncompactness,
    check_pairing,
    check_unitarity,
)

BUMP2 = PerturbationSpec(n=2, bumps=(MetricBump(
    amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
    radius_z=1.0, radius_t=1.0, pattern=np.eye(2)),))


def _verdict(idx, title, ok, detail=""):
    line = f"ACCEPTANCE {idx:2d} [{'PASS' if ok else 'FAIL'}] {title}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_acceptance_01_free_identity():
    start = time.time()
    grid = Grid(n=1, N=1024, L=60.0)
    report = check_free_identity(grid, SolverParams(dt=1e-3), tol=1e-6, span=6.0)
    elapsed = time.time() - start
    worst = max(m.value for m in report.measured)
    _verdict(1, "free operator maps data to itself (5 inputs, <= 1e-6)",
             report.status == "pass" and elapsed <= 10.0,
             f"worst defect {worst:.2e}, {elapsed:.1f}s <= 10s")


def test_acceptance_02_p_conservation_and_galilean_invariance():
    tol = 1e-11
    beams = [CuspData(Z=[1.0, 0.0], frak=[0.0, 0.3]),
             CuspData(Z=[0.8, 0.5], frak=[-0.2, 0.1]),
             CuspData(Z=[-1.2, 0.3], frak=[0.4, 0.0])]
    worst_p, worst_g, worst_time = 0.0, 0.0, 0.0
    for c in beams:
        seed = bichar_from_cusp(c, -2.5)
        start = time.time()
        traj = integrate(BUMP2, seed, 2.5, tol=tol)
        worst_time = max(worst_time, time.time() - start)
        worst_p = max(worst_p, max(abs(principal_symbol(BUMP2, PhasePoint.from_state(x)))
                                   for x in traj.states))
        for seg in traj.segments:
            if seg.numeric:
                continue
            a = PhasePoint.from_state(seg.sol(seg.t_lo))
            b = PhasePoint.from_state(seg.sol(seg.t_hi))
            worst_g = max(worst_g, float(np.max(np.abs(
                galilean_invariant(a) - galilean_invariant(b)))))
    _verdict(2, "p-conservation <= 1e-9 and Galilean invariance <= 1e-12",
             worst_p <= 1e-9 and worst_g <= 1e-12 and worst_time <= 1.0,
             f"|p| {worst_p:.2e}, galilean {worst_g:.2e}, {worst_time:.2f}s/traj")


def test_acceptance_03_symplecticity():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        Z = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        frak = rng.uniform(-1.0, 1.0, 2)
        jac = scatter_jacobian(BUMP2, CuspData(Z=Z, frak=frak),
                               h_fd=1e-4, tol=1e-11)
        worst = max(worst, symplectic_defect(jac))
    elapsed = time.time() - start
    _verdict(3, "||J^T Omega J - Omega||_F <= 1e-6 over 20 beams",
             worst <= 1e-6 and elapsed <= 30.0,
             f"worst {worst:.2e}, {elapsed:.1f}s <= 30s")


def test_acceptance_04_radial_convergence():
    c_in = CuspData(Z=[1.0, 0.0], frak=[0.0, 0.3])
    scatter = classical_scatter(BUMP2, c_in, tol=1e-11)
    rep = radial_convergence(BUMP2, bichar_from_cusp(c_in, -3.0),
                             horizon=1e6, tol=1e-11)
    exp_ok = (abs(rep.exponent_forward - 1.0) <= 0.01
              and abs(rep.exponent_backward - 1.0) <= 0.01)
    fwd = float(np.max(np.abs(rep.limit_forward.pair() - scatter.c_out.pair())))
    bwd = float(np.max(np.abs(rep.limit_backward.pair() - c_in.pair())))
    _verdict(4, "radial decay exponent 1.00 +/- 0.01, limits match map <= 1e-8",
             exp_ok and fwd <= 1e-8 and bwd <= 1e-8,
             f"exponents ({rep.exponent_forward:.4f}, {rep.exponent_backward:.4f}), "
             f"limits ({fwd:.2e}, {bwd:.2e})")


def test_acceptance_05_unitarity():
    start = time.time()
    spec = PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=0.5, center_z=[0.0], center_t=0.0, radius_z=4.0, radius_t=1.0),))
    grid = Grid(n=1, N=2048, L=30.0)
    report = check_unitarity(spec, grid, SolverParams(dt=5e-4), tol=1e-6)
    elapsed = time.time() - start
    worst = max(m.value for m in report.measured)
    _verdict(5, "unitarity |norm(Sf)-norm(f)|/norm(f) <= 1e-6 at ||V||=0.5",
             report.status == "pass" and elapsed <= 60.0,
             f"worst defect {worst:.2e}, {elapsed:.1f}s <= 60s")


def test_acceptance_06_pairing():
    grid = Grid(n=1, N=1024, L=30.0)
    params = SolverParams(dt=1e-3)
    pot = PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=0.4, center_z=[0.0], center_t=0.0, radius_z=4.0, radius_t=1.0),))
    r_pot = check_pairing(pot, grid, params, tol=5e-4)
    met = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0], center_t=0.0, radius_z=4.0,
        radius_t=1.0, pattern=np.eye(1)),))
    r_met = check_pairing(met, grid, params, tol=5e-3, refine=True,
                          refine_factor=3.0)
    pot_res = r_pot.measured[0].value
    met_res = r_met.measured[0].value
    _verdict(6, "pairing residual <= 5e-4 (potential), <= 5e-3 (metric), "
                "refinement shrink >= 3x",
             r_pot.status == "pass" and r_met.status == "pass",
             f"residuals {pot_res:.2e} / {met_res:.2e}")


def test_acceptance_07_egorov():
    start = time.time()
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[150.0], center_t=50.0, radius_z=85.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=32768, L=320.0)
    report = check_egorov(spec, grid, [1.5], [0.0], [0.1, 0.03, 0.01],
                          SolverParams(dt=2e-3), rel_cap=0.05)
    elapsed = time.time() - start
    vals = {m.label: m.value for m in report.measured}
    _verdict(7, "moment error e(h) decreases, e(0.01) <= 5% of displacement",
             report.status == "pass" and elapsed <= 300.0,
             f"trend {vals['moment-error-trend']:.2e}, "
             f"final {vals['final-relative-error']:.3f}, {elapsed:.0f}s <= 300s")


def test_acceptance_08_eikonal_phase():
    spec = PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=0.08, center_z=[0.0], center_t=0.0, radius_z=8.0, radius_t=1.0),))
    grid = Grid(n=1, N=2048, L=30.0)
    report = check_eikonal_phase(spec, grid, [1.0], [0.0], h=0.25,
                                 params=SolverParams(dt=1e-3),
                                 rel_tol=0.05, abs_tol=0.01, linearity_tol=0.1)
    vals = {m.label: m.value for m in report.measured}
    _verdict(8, "arg<Sf,f> = -int V dt within 5% + 0.01 rad, linear in amplitude",
             report.status == "pass",
             f"mismatch {vals['phase-mismatch']:.2e}, "
             f"linearity {vals.get('amplitude-linearity', 0):.3f}")


def test_acceptance_09_highfreq_identity():
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.5, center_z=[0.0], center_t=0.0, radius_z=1.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=4096, L=32.0)
    report = check_highfreq_identity(spec, grid, [1.0], [16.0],
                                     frak_through=[0.0], h=0.5,
                                     params=SolverParams(dt=1e-3),
                                     tol=1e-3, control_floor=1e-1)
    vals = {m.label: m.value for m in report.measured}
    _verdict(9, "offset beam scattered trivially <= 1e-3; through-beam > 1e-1",
             report.status == "pass",
             f"far {vals['far-beam-defect']:.2e}, "
             f"through margin {-vals['control-discriminates']:.2e}")


def test_acceptance_10_noncompactness():
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[150.0], center_t=50.0, radius_z=85.0,
        radius_t=1.0, pattern=np.eye(1)),))
    grid = Grid(n=1, N=32768, L=320.0)
    report = check_noncompactness(spec, grid, [1.5], [0.0],
                                  h_list=[0.1, 0.05, 0.02, 0.01],
                                  params=SolverParams(dt=2e-3))
    _verdict(10, "inf_k ||(S-Id) f_k|| >= c > 0 on a weakly-null family",
             report.status == "pass", report.note)


def test_acceptance_11_asymptotic_profile():
    grid = Grid(n=1, N=4096, L=800.0)
    f = coherent_data(grid, 0.0, 0.0, 0.08)
    e1 = asymptotic_profile_error(f, 200.0)
    e2 = asymptotic_profile_error(f, 400.0)
    _verdict(11, "profile error <= 2e-2 at t=200 and decays >= 1.5x at 2t",
             e1 <= 2e-2 and e1 / e2 > 1.5,
             f"e(200)={e1:.3e}, ratio {e1 / e2:.2f}")


def test_acceptance_12_boundary_chart():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = CuspData(Z=rng.normal(size=n) * rng.uniform(10.0, 1e4),
                     frak=rng.normal(size=n) * 5.0)
        back = from_boundary_chart(to_boundary_chart(c))
        worst = max(worst, float(np.max(np.abs(back.Z - c.Z)) / np.max(np.abs(c.Z))),
                    float(np.max(np.abs(back.frak - c.frak))
                          / max(1.0, np.max(np.abs(c.frak)))))
    t0, z0p = 0.7, np.array([0.4, -0.2])
    yhat = np.array([0.8, 0.5, 0.33])
    yhat /= np.linalg.norm(yhat)
    radii = np.geomspace(10.0, 1e4, 12)
    errs = []
    for R in radii:
        Z = R * yhat
        frak = 2 * t0 * Z - np.array([0.0, z0p[0], z0p[1]])
        b = to_boundary_chart(CuspData(Z=Z, frak=frak), axis=0)
        errs.append(abs(b.xi + 2 * t0))
    slope = float(np.polyfit(np.log(1.0 / radii), np.log(errs), 1)[0])
    _verdict(12, "chart round trips <= 1e-12; xi + 2 t0 slope 1.00 +/- 0.02",
             worst <= 1e-12 and abs(slope - 1.0) <= 0.02,
             f"round trip {worst:.2e}, slope {slope:.4f}")
