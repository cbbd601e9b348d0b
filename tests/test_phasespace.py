"""Coordinate transformations: exactness, round trips, chart geometry."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cusplab.errors import (
    CharacteristicViolation,
    ChartInvalid,
    InsidePerturbation,
    ZeroBasePoint,
)
from cusplab.phasespace import (
    CuspBoundaryCoords,
    CuspData,
    PhasePoint,
    bichar_from_cusp,
    cusp_from_bichar,
    free_flow,
    from_boundary_chart,
    galilean_invariant,
    to_boundary_chart,
)
from cusplab.symbols import MetricBump, PerturbationSpec


def test_galilean_invariant_vanishes_at_origin():
    p = PhasePoint(z=[0.0, 0.0], t=0.0, zeta=[1.0, 0.0], tau=-1.0)
    assert np.array_equal(galilean_invariant(p), [0.0, 0.0])


def test_galilean_invariant_example():
    p = PhasePoint(z=[1.0, 0.0], t=2.0, zeta=[3.0, 0.0], tau=-9.0)
    assert np.array_equal(galilean_invariant(p), [11.0, 0.0])


@pytest.mark.parametrize("dt", [0.1, -3.7, 250.0])
def test_galilean_invariant_conserved_under_free_flow(dt):
    p = PhasePoint(z=[0.3, -1.2], t=0.5, zeta=[1.1, 0.4], tau=-(1.1**2 + 0.4**2))
    drift = galilean_invariant(free_flow(p, dt)) - galilean_invariant(p)
    assert np.max(np.abs(drift)) < 1e-12 * max(1.0, abs(dt))


def test_cusp_from_bichar_example():
    p = PhasePoint(z=[-1.0, 0.0], t=0.0, zeta=[1.0, 0.0], tau=-1.0)
    c = cusp_from_bichar(p)
    assert np.array_equal(c.Z, [1.0, 0.0])
    assert np.array_equal(c.frak, [1.0, 0.0])


def test_cusp_bichar_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        c = CuspData(Z=rng.normal(size=n), frak=rng.normal(size=n))
        t0 = float(rng.uniform(-20, 20))
        back = cusp_from_bichar(bichar_from_cusp(c, t0))
        assert np.max(np.abs(back.Z - c.Z)) == 0.0
        assert np.max(np.abs(back.frak - c.frak)) < 1e-13 * (1 + np.max(np.abs(c.frak)))


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny     # absolute floor for results that underflow


def _vectors(n, bound=1e3):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), t0=st.floats(-1e3, 1e3))
def test_cusp_bichar_round_trip_property(data, n, t0):
    c = CuspData(Z=data.draw(_vectors(n)), frak=data.draw(_vectors(n)))
    back = cusp_from_bichar(bichar_from_cusp(c, t0))
    assert np.array_equal(back.Z, c.Z)
    # frak -> 2 t Z - frak -> 2 t Z - (2 t Z - frak): two roundings
    scale = np.abs(2.0 * t0 * c.Z) + np.abs(c.frak)
    assert np.all(np.abs(back.frak - c.frak) <= 2.0 * EPS * scale + TINY)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4), t=st.floats(-1e3, 1e3),
       tau=st.floats(-1e3, 1e3), a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
def test_free_flow_group_law_property(data, n, t, tau, a, b):
    p = PhasePoint(z=data.draw(_vectors(n)), t=t, zeta=data.draw(_vectors(n)), tau=tau)
    twice, once = free_flow(free_flow(p, a), b), free_flow(p, a + b)
    assert np.array_equal(twice.zeta, p.zeta) and np.array_equal(once.zeta, p.zeta)
    assert twice.tau == once.tau == p.tau
    scale_z = np.abs(p.z) + 2.0 * (abs(a) + abs(b)) * np.abs(p.zeta)
    assert np.all(np.abs(twice.z - once.z) <= 4.0 * EPS * scale_z + TINY)
    assert abs(twice.t - once.t) <= 4.0 * EPS * (abs(t) + abs(a) + abs(b)) + TINY


def test_cusp_from_bichar_commutes_with_free_flow():
    p = bichar_from_cusp(CuspData(Z=[0.7, -0.2], frak=[1.0, 0.1]), -4.0)
    a = cusp_from_bichar(p)
    b = cusp_from_bichar(free_flow(p, 11.5))
    assert np.max(np.abs(a.Z - b.Z)) == 0.0
    assert np.max(np.abs(a.frak - b.frak)) < 1e-12


def test_cusp_from_bichar_rejects_off_characteristic():
    p = PhasePoint(z=[0.0], t=0.0, zeta=[1.0], tau=-0.5)
    with pytest.raises(CharacteristicViolation):
        cusp_from_bichar(p)


def test_cusp_from_bichar_rejects_point_inside_support():
    spec = PerturbationSpec(n=1, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0], center_t=0.0, radius_z=1.0,
        radius_t=1.0, pattern=np.eye(1)),))
    p = PhasePoint(z=[0.0], t=0.0, zeta=[1.0], tau=-1.0)
    with pytest.raises(InsidePerturbation):
        cusp_from_bichar(p, spec=spec)


def test_bichar_from_cusp_example():
    p = bichar_from_cusp(CuspData(Z=[1.0, 0.0], frak=[0.0, 0.0]), -5.0)
    assert np.array_equal(p.z, [-10.0, 0.0])
    assert p.t == -5.0
    assert np.array_equal(p.zeta, [1.0, 0.0])
    assert p.tau == -1.0


def test_bichar_from_cusp_zero_frequency_is_stationary():
    c = CuspData(Z=[0.0, 0.0], frak=[0.4, -1.0])
    for t0 in (-7.0, 0.0, 3.3):
        p = bichar_from_cusp(c, t0)
        assert np.array_equal(p.z, [-0.4, 1.0])
        assert p.tau == 0.0


# ---------------------------------------------------------------------------
# boundary chart


def test_chart_parallel_covector():
    # frak parallel to Z: xi carries the beam time, eta vanishes
    t0 = 1.3
    for R in (10.0, 1e3):
        c = CuspData(Z=[R, 0.0], frak=[2 * t0 * R, 0.0])
        b = to_boundary_chart(c)
        assert b.axis == 0 and b.sign == 1
        assert abs(b.x - 1.0 / R) < 1e-18
        assert abs(b.xi + 2 * t0) < 1e-12
        assert np.max(np.abs(b.eta)) < 1e-12


def test_chart_perpendicular_covector():
    z0p = np.array([0.7, -0.4])
    for R in (10.0, 1e4):
        c = CuspData(Z=[R, 0.0, 0.0], frak=[0.0, -z0p[0], -z0p[1]])
        b = to_boundary_chart(c)
        assert np.max(np.abs(b.eta - (-z0p))) < 1e-12
        assert abs(b.xi) < 1e-12


def test_chart_round_trip_100_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        scale = float(rng.uniform(10.0, 1e4))
        c = CuspData(Z=rng.normal(size=n) * scale, frak=rng.normal(size=n) * 5.0)
        back = from_boundary_chart(to_boundary_chart(c))
        assert np.max(np.abs(back.Z - c.Z)) <= 1e-12 * np.max(np.abs(c.Z))
        assert np.max(np.abs(back.frak - c.frak)) <= 1e-12 * max(1.0, np.max(np.abs(c.frak)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 4))
def test_chart_round_trip_property(data, n):
    Z, frak = data.draw(_vectors(n)), data.draw(_vectors(n))
    assume(np.max(np.abs(Z)) >= 1e-3)
    c = CuspData(Z=Z, frak=frak)
    back = from_boundary_chart(to_boundary_chart(c))
    assert np.all(np.abs(back.Z - c.Z) <= 4.0 * EPS * np.max(np.abs(c.Z)))
    assert np.all(np.abs(back.frak - c.frak) <= 4.0 * n * EPS * np.max(np.abs(c.frak)) + TINY)


def test_chart_leading_order_slope():
    # axis-orthogonal beam offsets: xi + 2 t0 decays exactly like 1/|Z|
    t0 = 0.7
    z0p = np.array([0.4, -0.2])
    yhat = np.array([0.8, 0.5, 0.33])
    yhat /= np.linalg.norm(yhat)
    radii = np.geomspace(10.0, 1e4, 12)
    errs = []
    for R in radii:
        Z = R * yhat
        frak = 2 * t0 * Z - np.array([0.0, z0p[0], z0p[1]])
        b = to_boundary_chart(CuspData(Z=Z, frak=frak), axis=0)
        errs.append(abs(b.xi + 2 * t0))
    slope = np.polyfit(np.log(1.0 / radii), np.log(errs), 1)[0]
    assert abs(slope - 1.0) < 0.02


def test_from_boundary_chart_example():
    b = CuspBoundaryCoords(x=0.1, y=np.zeros(1), xi=-4.0, eta=np.zeros(1),
                           axis=0, sign=1)
    c = from_boundary_chart(b)
    assert np.allclose(c.Z, [10.0, 0.0])
    # frak parallel: encoded beam time t0 = (frak . Z) / (2 |Z|^2) = 2
    t0 = float(c.frak @ c.Z) / (2.0 * float(c.Z @ c.Z))
    assert abs(t0 - 2.0) < 1e-14
    assert abs(c.frak[1]) == 0.0


def test_chart_axis_permutation_consistency():
    c = CuspData(Z=[3.0, 40.0, 1.0], frak=[0.5, -1.0, 2.0])
    perm = [1, 0, 2]
    cp = CuspData(Z=c.Z[perm], frak=c.frak[perm])
    b, bp = to_boundary_chart(c), to_boundary_chart(cp)
    assert b.axis == 1 and bp.axis == 0
    assert abs(b.x - bp.x) < 1e-18 and abs(b.xi - bp.xi) < 1e-15
    assert np.allclose(np.sort(b.eta), np.sort(bp.eta))
    # reflection through the dominant axis flips the sign flag only
    cr = CuspData(Z=c.Z * np.array([1, -1, 1]), frak=c.frak * np.array([1, -1, 1]))
    br = to_boundary_chart(cr)
    assert br.sign == -b.sign and abs(br.xi - b.xi) < 1e-15


def test_chart_transition_is_smooth_on_overlap():
    # two dominant axes valid: the transition map has bounded FD derivative
    base = CuspData(Z=[50.0, 49.0], frak=[1.0, -0.7])

    def transition(q):
        c = CuspData(Z=[q[0], q[1]], frak=[q[2], q[3]])
        mid = from_boundary_chart(to_boundary_chart(c, axis=0))
        b = to_boundary_chart(mid, axis=1)
        return np.array([b.x, b.y[0], b.xi, b.eta[0]])

    q0 = np.concatenate([base.Z, base.frak])
    h = 1e-5
    for i in range(4):
        dq = np.zeros(4)
        dq[i] = h
        deriv = (transition(q0 + dq) - transition(q0 + 0.0)) / h
        assert np.all(np.isfinite(deriv))
        assert np.max(np.abs(deriv)) < 1e3


def test_chart_rejects_zero_base_point():
    with pytest.raises(ZeroBasePoint):
        to_boundary_chart(CuspData(Z=[0.0, 0.0], frak=[1.0, 0.0]))


def test_chart_rejects_non_dominant_axis():
    with pytest.raises(ChartInvalid):
        to_boundary_chart(CuspData(Z=[100.0, 1.0], frak=[0.0, 0.0]), axis=1)


def test_boundary_coords_invariants():
    with pytest.raises(ChartInvalid):
        CuspBoundaryCoords(x=-0.1, y=np.zeros(1), xi=0.0, eta=np.zeros(1),
                           axis=0, sign=1)
    with pytest.raises(ChartInvalid):
        CuspBoundaryCoords(x=0.1, y=np.array([1.2]), xi=0.0, eta=np.zeros(1),
                           axis=0, sign=1)


def test_phase_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhasePoint(z=[np.inf], t=0.0, zeta=[0.0], tau=0.0)
