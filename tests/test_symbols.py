"""Operator model: mollifier, metric assembly, analytic derivatives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cusplab.errors import InvalidArgument, NotPositiveDefinite
from cusplab.phasespace import PhasePoint
from cusplab.symbols import (
    FieldPoints,
    MetricBump,
    PerturbationSpec,
    PotentialTerm,
    _eigenvalue_bounds,
    _mollifier,
    flat_spec,
    principal_symbol,
    symbol_jet,
)


def _bump_spec(eps=0.05, n=2, pattern=None, radius_z=1.0, radius_t=1.0):
    pattern = np.eye(n) if pattern is None else pattern
    return PerturbationSpec(n=n, bumps=(MetricBump(
        amplitude=eps, center_z=np.zeros(n), center_t=0.0,
        radius_z=radius_z, radius_t=radius_t, pattern=pattern),))


def test_bump_normalization_and_support():
    def bump(r):
        return _mollifier(r, 1.0)[0]

    assert bump(0.0) == 1.0
    assert bump(1.0) == 0.0
    assert bump(-1.0) == 0.0
    assert bump(1.5) == 0.0
    r = np.linspace(0.0, 0.999, 400)
    vals = bump(r)
    assert np.all(np.diff(vals) < 0)           # monotone decrease on [0, 1)
    assert np.all(bump(np.linspace(1.0, 5.0, 50)) == 0.0)


def test_bump_derivative_matches_finite_differences():
    # _mollifier's second value k gives the derivative k * r
    h = 1e-6
    w_plus, w_minus = _mollifier(0.5 + h, 1.0)[0], _mollifier(0.5 - h, 1.0)[0]
    fd = (w_plus - w_minus) / (2 * h)
    assert abs(fd - _mollifier(0.5, 1.0)[1] * 0.5) < 1e-8


def test_inverse_metric_identity_outside_support():
    spec = _bump_spec()
    g, dgdz, dgdt = spec.inverse_metric_jet([3.0, 0.0], 0.0)
    assert np.array_equal(g, np.eye(2))
    assert np.all(dgdz == 0.0) and np.all(dgdt == 0.0)
    g2, _, _ = spec.inverse_metric_jet([0.0, 0.0], 5.0)
    assert np.array_equal(g2, np.eye(2))


def test_inverse_metric_center_value():
    spec = _bump_spec(eps=0.05)
    g = spec.inverse_metric([0.0, 0.0], 0.0)
    assert np.allclose(g, 1.05 * np.eye(2), atol=1e-15)


def test_inverse_metric_gradients_match_finite_differences():
    pattern = np.array([[1.0, 0.3], [0.3, 0.5]])
    spec = _bump_spec(eps=0.08, pattern=pattern)
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        z = rng.uniform(-0.9, 0.9, 2)
        t = float(rng.uniform(-0.9, 0.9))
        if np.linalg.norm(z) > 0.95:
            continue
        _, dgdz, dgdt = spec.inverse_metric_jet(z, t)
        for axis in range(2):
            dz = np.zeros(2)
            dz[axis] = h
            fd = (spec.inverse_metric(z + dz, t) - spec.inverse_metric(z - dz, t)) / (2 * h)
            assert np.max(np.abs(fd - dgdz[:, :, axis])) < 1e-7
        fd_t = (spec.inverse_metric(z, t + h) - spec.inverse_metric(z, t - h)) / (2 * h)
        assert np.max(np.abs(fd_t - dgdt)) < 1e-7


def test_principal_symbol_examples():
    spec = flat_spec(2)
    assert principal_symbol(spec, PhasePoint(z=[0, 0], t=0, zeta=[1, 0], tau=-1)) == 0.0
    assert principal_symbol(spec, PhasePoint(z=[0, 0], t=0, zeta=[0, 0], tau=3)) == 3.0
    bump_spec = _bump_spec(eps=0.05)
    val = principal_symbol(bump_spec, PhasePoint(z=[0, 0], t=0, zeta=[1, 0], tau=-1))
    assert abs(val - 0.05) < 1e-14


def test_principal_symbol_flat_outside_support_bit_exact():
    spec = _bump_spec()
    p = PhasePoint(z=[2.0, 1.0], t=0.3, zeta=[0.7, -0.2], tau=0.11)
    flat_value = p.tau + float(p.zeta @ p.zeta)
    assert principal_symbol(spec, p) == flat_value


def test_symbol_jet_matches_finite_differences_on_characteristic():
    pattern = np.array([[1.0, -0.2], [-0.2, 0.8]])
    spec = _bump_spec(eps=0.06, pattern=pattern)
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        z = rng.uniform(-0.8, 0.8, 2)
        t = float(rng.uniform(-0.8, 0.8))
        zeta = rng.uniform(-1.5, 1.5, 2)
        tau = -float(zeta @ spec.inverse_metric(z, t) @ zeta)
        p = PhasePoint(z=z, t=t, zeta=zeta, tau=tau)
        jet = symbol_jet(spec, p)
        assert jet.dp_dtau == 1.0
        scale = 1.0 + abs(jet.p)

        def ps(dz=np.zeros(2), dt=0.0, dzeta=np.zeros(2), dtau=0.0):
            return principal_symbol(spec, PhasePoint(
                z=z + dz, t=t + dt, zeta=zeta + dzeta, tau=tau + dtau))

        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            assert abs((ps(dz=e) - ps(dz=-e)) / (2 * h) - jet.dp_dz[axis]) < 1e-6 * scale
            assert abs((ps(dzeta=e) - ps(dzeta=-e)) / (2 * h)
                       - jet.dp_dzeta[axis]) < 1e-6 * scale
        assert abs((ps(dt=h) - ps(dt=-h)) / (2 * h) - jet.dp_dt) < 1e-6 * scale
        assert abs((ps(dtau=h) - ps(dtau=-h)) / (2 * h) - 1.0) < 1e-6


def test_potential_examples():
    spec = PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=0.3 - 0.1j, center_z=[0.5], center_t=0.0,
        radius_z=1.0, radius_t=1.0),))
    assert spec.potential([5.0], 0.0) == 0.0
    assert spec.potential([0.5], 5.0) == 0.0
    assert abs(spec.potential([0.5], 0.0) - (0.3 - 0.1j)) < 1e-15


def test_potential_quadrature_along_beam_matches_adaptive_oracle():
    spec = PerturbationSpec(n=1, potential_terms=(PotentialTerm(
        amplitude=0.2, center_z=[0.0], center_t=0.0, radius_z=1.0, radius_t=1.0),))
    Z0, frak0 = 1.0, 0.3

    def v_beam(t):
        return spec.potential([2 * t * Z0 - frak0], t).real

    oracle, _ = quad(v_beam, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    # composite Gauss-Legendre, the quadrature used along trajectories
    nodes, weights = np.polynomial.legendre.leggauss(10)
    total = 0.0
    edges = np.linspace(-1.0, 1.0, 25)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * np.sum(weights * np.array([v_beam(mid + half * x) for x in nodes]))
    assert abs(total - oracle) < 1e-8


def test_positive_definiteness_validation():
    with pytest.raises(NotPositiveDefinite):
        _bump_spec(eps=-1.2)
    # an overflowed metric has NaN or infinite eigenvalues, which pass a
    # test for <= 0
    with pytest.raises(NotPositiveDefinite):
        _bump_spec(eps=1e308, pattern=np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(NotPositiveDefinite):
        _bump_spec(eps=10.0, n=1, pattern=[[1e308]])
    with pytest.raises(ValueError, match="pattern must be finite"):
        _bump_spec(n=1, pattern=[[-np.inf]])


@pytest.mark.parametrize("term", [MetricBump, PotentialTerm])
@pytest.mark.parametrize("entry", [{"center_z": [np.nan]}, {"radius_z": np.inf},
                                   {"amplitude": np.nan}])
def test_terms_reject_non_finite_windows(term, entry):
    # a NaN centre would silently drop its term from the quantum footprint
    window = dict(amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0,
                  radius_t=1.0, **({"pattern": 1.0} if term is MetricBump else {}))
    with pytest.raises(InvalidArgument) as refused:
        term(**{**window, **entry})
    assert refused.value.field == next(iter(entry))


def test_positive_definite_lattice_accepts_valid_spec():
    spec = _bump_spec(eps=0.3, pattern=np.array([[1.0, 0.9], [0.9, 1.0]]))
    assert spec.inverse_metric([0.0, 0.0], 0.0)[0, 0] == pytest.approx(1.3)


def test_dt_log_det_metric_field():
    spec = _bump_spec(eps=0.1, n=1)
    pts = np.array([[0.0], [0.3], [2.0]])
    h = 1e-6
    vals = spec.dt_log_det_metric_field(pts, 0.2)
    for i, z in enumerate(pts):
        a_p = spec.inverse_metric(z, 0.2 + h)[0, 0]
        a_m = spec.inverse_metric(z, 0.2 - h)[0, 0]
        fd = -(np.log(a_p) - np.log(a_m)) / (2 * h)   # det g = 1 / g^{11}
        assert abs(vals[i] - fd) < 1e-7


@pytest.mark.parametrize("shear", [0.3, 0.9, -0.6])
@pytest.mark.parametrize("eps", [0.2, -0.45, 0.8])
def test_2d_dt_log_det_is_the_trace_of_the_solve(monkeypatch, shear, eps):
    # n = 2 takes -tr(g^{-1} d_t g) from the 2 x 2 adjugate, not from a
    # batched solve: within 8 ulps of the solve on a sheared bump, and of
    # the terms' scale where a second bump makes the trace cancel
    ax = np.linspace(-2.0, 2.0, 41)
    pts = FieldPoints(np.stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")], -1))
    times = np.linspace(-1.1, 1.2, 24)[:, None]
    sheared = MetricBump(amplitude=eps, center_z=[0.1, -0.2], center_t=0.1, radius_z=1.5,
                         radius_t=1.0, pattern=[[1.0, shear], [shear, 0.5]])
    other = MetricBump(amplitude=0.3, center_z=[-0.4, 0.3], center_t=-0.2, radius_z=1.0,
                       radius_t=0.8, pattern=[[0.2, -0.7], [-0.7, 1.0]])
    for bumps in ((sheared,), (sheared, other)):
        spec = PerturbationSpec(n=2, bumps=bumps)
        g, _, dgdt = spec._metric(pts, times, dt=True)
        solved = -np.trace(np.linalg.solve(g, dgdt), axis1=-2, axis2=-1)
        with monkeypatch.context() as no_solve:
            no_solve.setattr(np.linalg, "solve", None)
            closed = spec.dt_log_det_metric_field(pts, times)
        terms = np.abs(g[..., ::-1, ::-1] * np.swapaxes(dgdt, -1, -2)).sum(axis=(-2, -1))
        scale = np.abs(solved) if len(bumps) == 1 else terms / np.abs(np.linalg.det(g))
        assert np.all(np.abs(closed - solved) <= 8 * np.spacing(scale))
        # outside every support, and for the flat metric, exactly 0
        assert np.all(closed[solved == 0.0] == 0.0) and np.any(solved == 0.0)
    assert not np.any(flat_spec(2).dt_log_det_metric_field(pts, times))


def test_dt_log_det_metric_field_refuses_three_dimensions():
    # its one caller runs on a Grid, which has n = 1 or 2
    bump = MetricBump(amplitude=0.1, center_z=[0.0] * 3, center_t=0.0, radius_z=1.0,
                      radius_t=1.0, pattern=np.eye(3))
    for spec in (PerturbationSpec(n=3, bumps=(bump,)), flat_spec(3)):
        with pytest.raises(InvalidArgument) as refused:
            spec.dt_log_det_metric_field(np.zeros((1, 3)), 0.0)
        assert refused.value.field == "n"


def _dyadic(rng, lo, hi, size=None):
    """Multiples of 1/32 in [lo, hi].  Their sums, differences and squares
    are exact, so a drawn point can sit exactly on a support boundary."""
    return rng.integers(round(lo * 32), round(hi * 32) + 1, size) / 32


def _random_window(rng, n):
    # radius_z = 5j/32, so that (3j/32, 4j/32) is an exact boundary offset
    return dict(center_z=_dyadic(rng, -1.0, 1.0, n), center_t=float(_dyadic(rng, -1.0, 1.0)),
                radius_z=5 * int(rng.integers(2, 10)) / 32,
                radius_t=float(_dyadic(rng, 0.25, 1.0)))


def _boundary_points(term, n):
    j = round(term.radius_z * 32 / 5)
    pad = (0,) * (n - 2)
    offsets = ([(5 * j,), (-5 * j,)] if n == 1
               else [(3 * j, 4 * j) + pad, (-4 * j, -3 * j) + pad, pad + (0, 5 * j)])
    return [term.center_z + np.array(off) / 32 for off in offsets] + [term.center_z]


def _outside(terms, z, t):
    """True on or outside every support, in exact arithmetic (dyadic inputs)."""
    return all(float(np.sum((z - term.center_z) ** 2)) >= term.radius_z ** 2
               or abs(t - term.center_t) >= term.radius_t for term in terms)


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2]), n_bumps=st.integers(1, 3), n_pots=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_pointwise_rows_flat_support_and_jet_field(n, n_bumps, n_pots, seed):
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(n_bumps):
        a = rng.uniform(-0.5, 0.5, (n, n))
        # |amplitude| * |eigenvalues| <= 0.3 per bump keeps three bumps definite
        bumps.append(MetricBump(amplitude=rng.uniform(-0.3, 0.3), pattern=(a + a.T) / 2,
                                **_random_window(rng, n)))
    pots = [PotentialTerm(amplitude=complex(*rng.uniform(-1.0, 1.0, 2)), **_random_window(rng, n))
            for _ in range(n_pots)]
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        spec = PerturbationSpec(n=n, bumps=tuple(bumps), potential_terms=tuple(pots))
        points = [_dyadic(rng, -3.0, 3.0, n) for _ in range(6)]
        times = [float(_dyadic(rng, -2.0, 2.0))]
        for term in spec.terms():
            points += _boundary_points(term, n)
            times += [term.center_t - term.radius_t, term.center_t + term.radius_t]
        pts = np.array(points)
        for t in times:
            g = spec.inverse_metric_field(pts, t)
            g_jet, dgdz = spec.inverse_metric_jet_field(pts, t)
            v = spec.potential_field(pts, t)
            assert _bits(g_jet) == _bits(g)
            for i, z in enumerate(pts):
                assert _bits(spec.inverse_metric(z, t)) == _bits(g[i])
                g_i, dgdz_i, dgdt_i = spec.inverse_metric_jet(z, t)
                assert _bits(g_i) == _bits(g[i]) and _bits(dgdz_i) == _bits(dgdz[i])
                assert _bits(spec.potential(z, t)) == _bits(v[i])
                if _outside(spec.bumps, z, t):
                    assert np.array_equal(g_i, np.eye(n))
                    assert np.all(dgdz_i == 0.0) and np.all(dgdt_i == 0.0)
                if _outside(spec.potential_terms, z, t):
                    assert v[i] == 0.0

            # the jet field against central differences of the field
            h = 1e-6
            for axis in range(n):
                dz = np.zeros(n)
                dz[axis] = h
                fd = (spec.inverse_metric_field(pts + dz, t)
                      - spec.inverse_metric_field(pts - dz, t)) / (2 * h)
                assert np.max(np.abs(fd - dgdz[..., axis])) < 1e-7
            fd_t = (spec.inverse_metric_field(pts, t + h)
                    - spec.inverse_metric_field(pts, t - h)) / (2 * h)
            dgdt = np.array([spec.inverse_metric_jet(z, t)[2] for z in pts])
            assert np.max(np.abs(fd_t - dgdt)) < 1e-7


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 3]), n_bumps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_hamilton_field_contracts_the_metric_jet(n, n_bumps, seed):
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(n_bumps):
        a = rng.uniform(-0.5, 0.5, (n, n))
        bumps.append(MetricBump(amplitude=rng.uniform(-0.3, 0.3), pattern=(a + a.T) / 2,
                                **_random_window(rng, n)))
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        spec = PerturbationSpec(n=n, bumps=tuple(bumps))
        # on, just inside and just outside every boundary, still dyadic
        points = [_dyadic(rng, -3.0, 3.0, n) for _ in range(6)]
        times = [float(_dyadic(rng, -2.0, 2.0))]
        for b in spec.bumps:
            points += [b.center_z + (z - b.center_z) * s
                       for z in _boundary_points(b, n) for s in (31 / 32, 1.0, 33 / 32)]
            times += [b.center_t + s * b.radius_t for s in (-33 / 32, -1.0, -31 / 32,
                                                            31 / 32, 1.0, 33 / 32)]
        states = np.array([np.concatenate([z, [t], _dyadic(rng, -2.0, 2.0, n),
                                           [_dyadic(rng, -2.0, 2.0)]])
                           for z in points for t in times])
        field = spec.hamilton_field(None, states)
        for x, f in zip(states, field):
            z, t, zeta = x[:n], x[n], x[n + 1:2 * n + 1]
            # on these dyadic states a row of the stack is the single-state field
            assert _bits(spec.hamilton_field(t, x)) == _bits(f)
            g, dgdz, dgdt = spec.inverse_metric_jet(z, t)
            ref = np.concatenate([2.0 * g @ zeta, [1.0],
                                  -np.einsum("jkl,j,k->l", dgdz, zeta, zeta),
                                  [-(zeta @ dgdt @ zeta)]])
            assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref))
            if _outside(spec.bumps, z, t):
                assert np.array_equal(f, np.concatenate([2.0 * zeta, [1.0], np.zeros(n + 1)]))
        # the point jet reads the same field
        for x, f in zip(states[::7], field[::7]):
            jet = symbol_jet(spec, PhasePoint.from_state(x))
            rhs = np.concatenate([jet.dp_dzeta, [1.0], -jet.dp_dz, [-jet.dp_dt]])
            assert _bits(rhs) == _bits(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamilton_row_path_is_the_array_arithmetic_where_rounding_bites(n):
    """A flat state's field, computed in Python floats, has the bits of the
    array path on that state, sign bits included, at non-dyadic states:
    inside each support, where 1 - r^2 is tiny (w near underflow), outside
    with signed zeros in zeta, and with one NaN coordinate."""
    rng = np.random.default_rng(n)
    bumps = []
    for _ in range(2):
        a = rng.uniform(-0.5, 0.5, (n, n))
        bumps.append(MetricBump(amplitude=rng.uniform(-0.3, 0.3), pattern=(a + a.T) / 2,
                                center_z=rng.uniform(-0.5, 0.5, n),
                                center_t=rng.uniform(-0.5, 0.5),
                                radius_z=rng.uniform(0.5, 1.5), radius_t=rng.uniform(0.5, 1.5)))
    spec = PerturbationSpec(n=n, bumps=tuple(bumps))
    k = 150
    # |offset| / radius: inside, just inside (1 - r^2 from 2/3 down past the
    # exp's underflow at 1/745), and on or beyond the edge
    radii = [rng.uniform(0.0, 1.0, k), np.sqrt(1.0 - 1.0 / rng.uniform(1.5, 800.0, k)),
             1.0 + rng.uniform(0.0, 0.5, k) * (rng.random(k) < 0.8)]
    states = []
    for b in spec.bumps:
        for rz in radii:
            for rt in radii:
                u = rng.standard_normal((k, n))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                z = b.center_z + u * (rz * b.radius_z)[:, None]
                t = b.center_t + rng.choice([-1.0, 1.0], k) * rt * b.radius_t
                zeta = rng.uniform(-2.0, 2.0, (k, n)) * (rng.random((k, n)) < 0.8)
                zeta[rng.random((k, n)) < 0.3] *= -1.0     # -0.0 among the zeros
                states.append(np.column_stack([z, t, zeta, rng.uniform(-2.0, 2.0, k)]))
    states = np.concatenate(states)
    nan_states = states[rng.integers(0, len(states), 2 * n + 2)]
    nan_states[np.arange(2 * n + 2), np.arange(2 * n + 2)] = np.nan
    with np.errstate(invalid="ignore"):
        for x in np.concatenate([states, nan_states]):
            assert _bits(spec.hamilton_field(None, x)) == _bits(spec._hamilton_array(x))


def test_a_bump_of_radius_below_1e_61_is_flat_outside_its_support():
    # outside a bump of radius 1e-70, radius**2 * s**2 underflows to 0 at the
    # floor of s: the slope is -0.0 there, as at any radius, not 0/0, and the
    # row path and the array path give the flat field
    spec = _bump_spec(n=1, radius_z=1e-70)
    x = np.array([0.5, 0.0, 1.0, -1.0])
    with np.errstate(divide="raise", invalid="raise"):
        assert _mollifier(np.array([0.5]), 1e-70)[1].tobytes() == np.array([-0.0]).tobytes()
        f = spec.hamilton_field(None, x)
        assert _bits(f) == _bits(spec._hamilton_array(x))
        assert _bits(f) == _bits(flat_spec(1).hamilton_field(None, x))


@pytest.mark.parametrize("term", [MetricBump, PotentialTerm])
@pytest.mark.parametrize("name", ["radius_z", "radius_t"])
def test_terms_refuse_a_radius_whose_square_overflows(term, name):
    # the mollifier's slope squares each radius: 1e200 would end a run in a
    # bare OverflowError, so the term refuses it and names the field first
    window = dict(amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0,
                  radius_t=1.0, **({"pattern": 1.0} if term is MetricBump else {}))
    term(**{**window, name: 1e150})
    with pytest.raises(ValueError, match=rf"^{name} = 1e\+200 is too large"):
        term(**{**window, name: 1e200})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalue_bounds_give_eigvalsh_verdicts(n):
    # the positive-definiteness verdict, least > 0 and greatest < inf with a
    # NaN failing, on random symmetric stacks: definite, indefinite, with
    # entries that overflow or whose sums would, and with NaNs
    rng = np.random.default_rng(n)
    eye = np.eye(n)
    g = rng.standard_normal((400, 8, n, n)) * 10.0 ** rng.integers(-3, 4, (400, 8, 1, 1))
    g = g + np.swapaxes(g, -1, -2)
    verdicts = []
    with np.errstate(over="ignore", invalid="ignore"):
        g[:200] += 40.0 * eye                           # mostly definite
        g[200:250] *= 1e306                             # entries that overflow
        g[250:300, :, 0, 0] = np.inf
        g[300:340, :, -1, 0] = np.nan
        g[340:350, :, 0, -1] = np.nan                   # the upper triangle
        g[350:370] = eye * 10.0 ** rng.uniform(-300, 300, (20, 8, 1, 1))
        g[370:385] = 1.5e308 * eye + 1e307 * (1.0 - eye)    # a + c overflows
        g[385:] = -1e307 * eye + 1e308 * eye[::-1]
        for stack in g:
            lo, hi = _eigenvalue_bounds(stack)
            try:
                eigs = np.linalg.eigvalsh(stack)
                expected = bool(np.min(eigs) > 0.0 and np.max(eigs) < np.inf)
            except np.linalg.LinAlgError:
                expected = False
            verdicts.append((bool(np.min(lo) > 0.0 and np.max(hi) < np.inf), expected))
    assert all(got == expected for got, expected in verdicts)
    assert 0 < sum(expected for _, expected in verdicts) < len(verdicts)
