"""Grid propagators, scattering maps, packets, and persistence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.linalg import solve_banded as scipy_solve_banded

from cusplab import quantum
from cusplab.errors import (
    BoundaryLeak,
    ConvergenceFailure,
    InsideWindow,
    PacketClipped,
    ValidationError,
    ZeroMass,
)
from cusplab.quantum import (
    Grid,
    SolverParams,
    SpectralData,
    WaveField,
    adjoint_scattering_map,
    asymptotic_profile_error,
    check_band_limited,
    coherent_data,
    dump_field,
    export_spectrum_csv,
    extract_asymptotic,
    forward_ft,
    free_propagate,
    inverse_ft,
    load_field,
    packet_moments,
    poisson_free,
    propagate_window,
    scattering_map,
    solve_cyclic_tridiagonal,
)
from cusplab.symbols import FieldPoints, MetricBump, PerturbationSpec, PotentialTerm, flat_spec

GRID = Grid(n=1, N=1024, L=30.0)
PARAMS = SolverParams(dt=1e-3, margin=0.25)


def _potential_spec(amplitude=0.5, radius_z=4.0, n=1):
    return PerturbationSpec(n=n, potential_terms=(PotentialTerm(
        amplitude=amplitude, center_z=np.zeros(n), center_t=0.0,
        radius_z=radius_z, radius_t=1.0),))


def _metric_spec(eps=0.05, radius_z=4.0, n=1):
    return PerturbationSpec(n=n, bumps=(MetricBump(
        amplitude=eps, center_z=np.zeros(n), center_t=0.0,
        radius_z=radius_z, radius_t=1.0, pattern=np.eye(n)),))


# ---------------------------------------------------------------------------
# transforms and exact free operations


def test_transform_round_trip_and_parseval():
    rng = np.random.default_rng(1)
    u = rng.normal(size=GRID.N) + 1j * rng.normal(size=GRID.N)
    f = forward_ft(GRID, u)
    back = inverse_ft(GRID, f)
    assert np.max(np.abs(back - u)) < 1e-12
    phys = GRID.dz * np.sum(np.abs(u) ** 2)
    spec = GRID.dZ * np.sum(np.abs(f) ** 2)
    assert abs(spec - (2 * np.pi) * phys) < 1e-9 * phys


def test_free_propagate_zero_time_is_identity():
    f = coherent_data(GRID, 0.5, 1.0, 0.3)
    u = poisson_free(f, 0.0)
    assert free_propagate(u, 0.0) is u


def test_free_propagate_matches_analytic_gaussian():
    grid = Grid(n=1, N=1024, L=40.0)
    z = grid.axis_z()
    u0 = WaveField(grid=grid, values=np.exp(-z**2 / 2).astype(complex), time=0.0)
    u1 = free_propagate(u0, 1.0)
    a = 1.0 + 2.0j          # branch continuous in t from +1 at t = 0
    exact = a**-0.5 * np.exp(-z**2 / (2 * a))
    assert np.max(np.abs(u1.values - exact)) < 1e-10


def test_free_propagate_group_property_and_unitarity():
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, -3.0)
    two_step = free_propagate(free_propagate(u, 0.4), 0.6)
    one_step = free_propagate(u, 1.0)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-13
    assert abs(one_step.norm() - u.norm()) < 1e-13 * u.norm()


def test_poisson_extract_round_trips():
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, 0.0)
    assert np.max(np.abs(u.values - inverse_ft(GRID, f.values))) == 0.0
    for t in (-5.0, 0.0, 2.7):
        back = extract_asymptotic(poisson_free(f, t))
        assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_extract_is_time_independent_on_free_side():
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, -4.0)
    f1 = extract_asymptotic(u)
    f2 = extract_asymptotic(free_propagate(u, 6.5))
    assert np.max(np.abs(f1.values - f2.values)) < 1e-12


def test_poisson_then_free_propagate_agrees_with_later_poisson():
    f = coherent_data(GRID, 0.5, -1.0, 0.3)
    u = free_propagate(poisson_free(f, -2.0), 3.0)
    v = poisson_free(f, 1.0)
    assert np.max(np.abs(u.values - v.values)) < 1e-12


def test_extract_rejects_time_inside_window():
    spec = _potential_spec()
    f = coherent_data(GRID, 1.0, 0.0, 0.3)
    u = poisson_free(f, 0.5)
    with pytest.raises(InsideWindow):
        extract_asymptotic(u, spec)


# ---------------------------------------------------------------------------
# asymptotic profile


def test_asymptotic_profile_error_decays():
    grid = Grid(n=1, N=4096, L=800.0)
    f = coherent_data(grid, 0.0, 0.0, 0.08)
    e1 = asymptotic_profile_error(f, 200.0)
    e2 = asymptotic_profile_error(f, 400.0)
    assert e1 <= 2e-2
    assert e1 / e2 > 1.5


def test_asymptotic_profile_branch_regression():
    # one-time branch experiment, frozen: the stated branch
    # (4 pi i t)^{-n/2} = |4 pi t|^{-n/2} e^{-i pi n/4} for t > 0 places
    # the phase of u/v near 0; the flipped branch is ~pi/2 off.
    grid = Grid(n=1, N=2048, L=400.0)
    f = coherent_data(grid, 0.0, 0.0, 0.2)
    t = 150.0
    u = poisson_free(f, t)
    j0 = grid.N // 2
    # z = 0 maps to the node Z = 0, where the interpolant is exact
    amp = np.abs(4 * np.pi * t) ** -0.5 * f.values[j0]
    stated = np.angle(u.values[j0] / (amp * np.exp(-1j * np.pi / 4)))
    flipped = np.angle(u.values[j0] / (amp * np.exp(+1j * np.pi / 4)))
    assert abs(stated) < 1e-2
    assert abs(abs(flipped) - np.pi / 2) < 0.1


def test_asymptotic_profile_negative_time_branch():
    grid = Grid(n=1, N=4096, L=800.0)
    f = coherent_data(grid, 0.0, 0.0, 0.08)
    assert asymptotic_profile_error(f, -200.0) <= 2e-2


def test_asymptotic_profile_error_decays_in_2d():
    grid = Grid(n=2, N=128, L=60.0)
    f = coherent_data(grid, [0.0, 0.0], [0.0, 0.0], 0.05)
    e1 = asymptotic_profile_error(f, 20.0)
    e2 = asymptotic_profile_error(f, 40.0)
    assert e1 <= 0.4
    assert e1 / e2 > 1.5
    assert asymptotic_profile_error(f, -20.0) == pytest.approx(e1, rel=1e-12)


# ---------------------------------------------------------------------------
# window propagation (n = 1)


def test_propagate_window_flat_equals_free_exactly():
    spec = flat_spec(1)
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, -0.5)
    w = propagate_window(spec, u, 0.5, PARAMS)
    v = free_propagate(u, 1.0)
    assert np.max(np.abs(w.values - v.values)) == 0.0


def test_propagate_window_mass_conservation_real_potential():
    spec = _potential_spec(0.5)
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, -1.2)
    w = propagate_window(spec, u, 1.2, PARAMS)
    assert abs(w.norm() - u.norm()) / u.norm() < 1e-10 * 2.4


def test_propagate_window_refinement_second_order():
    spec = _metric_spec(0.05)
    levels = []
    for k in range(3):
        grid = Grid(n=1, N=512 * 2**k, L=30.0)
        f = coherent_data(grid, 1.0, 0.3, 0.2)
        u = poisson_free(f, -1.2)
        w = propagate_window(spec, u, 1.2, SolverParams(dt=4e-3 / 2**k))
        levels.append(extract_asymptotic(w, spec))
    # common dual modes: the coarse grid is the centred block of the fine one
    def restrict(f_fine, n_coarse):
        off = (f_fine.values.size - n_coarse) // 2
        return f_fine.values[off:off + n_coarse]

    e1 = np.linalg.norm(levels[0].values - restrict(levels[1], 512))
    e2 = np.linalg.norm(restrict(levels[1], 1024) - restrict(levels[2], 1024)[:1024])
    assert e1 / e2 >= 3.0


def test_propagate_window_boundary_leak_detected():
    spec = _potential_spec(0.3)
    grid = Grid(n=1, N=256, L=8.0)
    f = coherent_data(grid, 2.0, 0.0, 0.5)
    u = poisson_free(f, -1.2)
    with pytest.raises(BoundaryLeak):
        propagate_window(spec, u, 1.2, SolverParams(dt=2e-3))


def test_adjoint_map_boundary_leak_detected():
    spec = _potential_spec(0.3)
    grid = Grid(n=1, N=256, L=8.0)
    g = coherent_data(grid, 2.0, 0.0, 0.5)
    with pytest.raises(BoundaryLeak):
        adjoint_scattering_map(spec, g, SolverParams(dt=2e-3))


@pytest.mark.parametrize("values", ["nan", "overflow"])
def test_a_nan_leak_fraction_is_refused(values):
    # NaN > LEAK_THRESHOLD is False: a field whose leak fraction is NaN,
    # all-NaN or so large that |v|^2 overflows, must not pass the check
    grid = Grid(n=1, N=256, L=8.0)
    if values == "nan":
        u = WaveField(grid=grid, values=np.full(grid.shape(), np.nan), time=0.0)
    else:
        u = WaveField(grid=grid, values=1e200 * poisson_free(coherent_data(grid, 0.0, 0.0, 0.5),
                                                             0.0).values, time=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(u.boundary_leak_fraction())
    with pytest.raises(ValidationError) as refused:
        propagate_window(flat_spec(1), u, 1.0)
    assert refused.value.invariant == "finite-leak-fraction"


def test_band_limit_check_of_overflowing_inputs_raises_no_warning():
    # |f|^2 overflows at the centre of a packet of amplitude 1e200: its outer
    # band holds no mass, so it is band-limited; where every sample
    # overflows the fraction is NaN and the input is refused
    grid = Grid(n=1, N=256, L=20.0)
    packet = 1e200 * coherent_data(grid, 0.0, 0.0, 0.5).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_band_limited(SpectralData(grid=grid, values=packet))
        scattering_map(flat_spec(1), SpectralData(grid=grid, values=packet))
        with pytest.raises(ValidationError) as refused:
            check_band_limited(SpectralData(grid=grid, values=np.full(grid.shape(), 1e200 + 0j)))
    assert refused.value.invariant == "band-limited-input"


@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_cached_outer_mask_equals_the_meshgrid_mask(n):
    grid = Grid(n=n, N=64, L=8.0)
    for spacing, axis, cut in (("dz", grid.axis_z(), (1.0 - quantum.SHELL_FRACTION) * grid.L),
                               ("dZ", grid.axis_Z(), 0.75 * grid.z_max)):
        mesh = np.meshgrid(*[np.abs(axis)] * n, indexing="ij")
        mask = quantum._outer_mask(grid, spacing, cut)
        assert mask.shape == grid.shape() and np.any(mask) and not np.all(mask)
        assert np.array_equal(mask, np.max(mesh, axis=0) >= cut)
        assert quantum._outer_mask(Grid(n=n, N=64, L=8.0), spacing, cut) is mask
        assert not mask.flags.writeable


def _random_cyclic(rng, N, coupling):
    def cplx(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    lower, upper = coupling * cplx(N), coupling * cplx(N)
    diag = 4.0 + cplx(N)
    cul, clr = coupling * cplx(2)
    return lower, diag, upper, cul, clr


def _dense(lower, diag, upper, cul, clr):
    N = diag.size
    dense = np.zeros((N, N), dtype=complex)
    dense[np.arange(N), np.arange(N)] = diag
    dense[np.arange(1, N), np.arange(N - 1)] = lower[1:]
    dense[np.arange(N - 1), np.arange(1, N)] = upper[:-1]
    dense[0, -1] = cul
    dense[-1, 0] = clr
    return dense


@settings(max_examples=60, deadline=None, derandomize=True)
@given(N=st.integers(4, 160), coupling=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_cyclic_tridiagonal_solver_matches_dense(N, coupling, seed):
    rng = np.random.default_rng(seed)
    bands = _random_cyclic(rng, N, coupling)
    dense = _dense(*bands)
    rhs = rng.normal(size=N) + 1j * rng.normal(size=N)
    x = solve_cyclic_tridiagonal(*bands, rhs)
    scale = np.max(np.abs(dense)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    assert np.max(np.abs(dense @ x - rhs)) < 1e-12 * scale


@pytest.mark.parametrize("l_and_u", [(1, 1), (3, 2)], ids=["gtsv", "gbsv"])
def test_solve_banded_is_bitwise_scipy(l_and_u):
    rng = np.random.default_rng(5)
    m, rows = 40, sum(l_and_u) + 1

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    ab = cplx(rows, m)
    ab[l_and_u[1]] += 6.0                       # diagonally dominant
    for b in (cplx(m), cplx(m, 3)):
        x = quantum.solve_banded(l_and_u, ab, b)
        assert x.shape == b.shape
        assert np.array_equal(x, scipy_solve_banded(l_and_u, ab, b))
    # the band in ?gbsv's layout, below l spare rows whatever they hold, in
    # either memory order: the bits of scipy on the band alone
    for order in ("C", "F"):
        padded = np.array(np.vstack([cplx(l_and_u[0], m), ab]), order=order)
        x = quantum.solve_banded(l_and_u, padded, b)
        assert np.array_equal(x, scipy_solve_banded(l_and_u, ab, b))
    real_ab, real_b = ab.real.copy(), rng.normal(size=m)
    x = quantum.solve_banded(l_and_u, real_ab, real_b)
    assert x.dtype == np.float64
    assert np.array_equal(x, scipy_solve_banded(l_and_u, real_ab, real_b))
    nan_ab, nan_b = ab.copy(), real_b.copy()
    nan_ab[0, 7] = nan_b[7] = np.nan
    for bad in ((nan_ab, real_b), (ab, nan_b)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            quantum.solve_banded(l_and_u, *bad)
    with pytest.raises(np.linalg.LinAlgError):
        quantum.solve_banded(l_and_u, np.zeros((rows, m), dtype=complex), cplx(m))


def _bump_and_potential(center, n=1):
    # a sheared metric and a complex potential, active at t = 0.3
    return PerturbationSpec(
        n=n,
        bumps=(MetricBump(amplitude=0.2, center_z=center, center_t=0.5,
                          radius_z=3.0, radius_t=1.0,
                          pattern=np.eye(n) + 0.3 * (1 - np.eye(n))),),
        potential_terms=(PotentialTerm(amplitude=1.0 - 0.1j, center_z=center,
                                       center_t=0.5, radius_z=3.0, radius_t=1.0),))


def _embedded(footprint, remainder, size):
    """The footprint remainder as a dense matrix on the whole grid."""
    ids = footprint.ids
    dense = np.zeros((size, size), dtype=complex)
    # band row k holds the entries (c + k - up, c)
    m, up = ids.size, footprint.up
    local = np.zeros((m, m), dtype=complex)
    for k in range(footprint.lo + up + 1):
        cols = np.arange(max(0, up - k), min(m, m + up - k))
        local[cols + k - up, cols] = remainder[k, cols]
    dense[np.ix_(ids, ids)] = local
    return dense


def _footprint_spec(grid, where):
    """The flat operator, or a perturbation whose footprint lies "inside"
    the box or, at the "corner", covers z = -L and so wraps the seam."""
    n = grid.n
    if where == "flat":
        return flat_spec(n)
    return _bump_and_potential(np.zeros(n) if where == "inside" else np.full(n, 1.0 - grid.L), n)


def _all_but_opposite(grid, spec):
    """Every grid point except the three grid lines per axis around the
    line opposite the perturbation's centre, and that line's flat indices:
    the footprint of these points leaves exactly that line free."""
    N = grid.N
    centre = np.rint((spec.terms()[0].center_z + grid.L) / grid.dz).astype(int)
    index = np.indices(grid.shape()).reshape(grid.n, -1)
    offset = (index - (centre[:, None] + N // 2)) % N
    return (np.flatnonzero(~np.any((offset <= 1) | (offset == N - 1), axis=0)),
            np.flatnonzero(np.any(offset == 0, axis=0)))


@pytest.mark.parametrize("where", ["inside", "corner"])
@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_footprint_remainder_equals_whole_grid(monkeypatch, n, where):
    grid = Grid(n=n, N=256 if n == 1 else 32, L=10.0)
    spec = _footprint_spec(grid, where)
    size = grid.N**n
    rng = np.random.default_rng(3)
    # the reference supports every point but those near the line opposite
    # the perturbation, where R is exactly 0: a footprint needs a free grid
    # index per axis, and this one leaves just that line free
    supported, free = _all_but_opposite(grid, spec)
    for adjoint in (False, True):
        part = quantum._Footprint(spec, grid, adjoint)
        with monkeypatch.context() as nearly_every_point_supported:
            nearly_every_point_supported.setattr(quantum, "_support_indices",
                                                 lambda spec, pts: supported)
            whole = quantum._Footprint(spec, grid, adjoint)
        assert part.ids.size < size and whole.ids.size == (grid.N - 1) ** n
        assert np.array_equal(np.setdiff1d(np.arange(size), whole.ids), free)
        assert (part.ids.min() == 0 and part.ids.max() == size - 1) == (where == "corner")
        r_part = _embedded(part, part.remainder(0.3), size)
        r_whole = _embedded(whole, whole.remainder(0.3), size)
        assert not np.any(r_part[free]) and not np.any(r_part[:, free])
        assert np.max(np.abs(r_whole)) > 1.0
        assert np.max(np.abs(r_part - r_whole)) <= 1e-13 * np.max(np.abs(r_whole))
        # the footprint step solves the embedded Crank-Nicolson system
        c, r = 0.5j * 5e-3, part.fields(0.3)
        r_before = [f.copy() for f in r]
        x = rng.normal(size=part.ids.size) + 1j * rng.normal(size=part.ids.size)
        full = np.zeros(size, dtype=complex)
        full[part.ids] = x
        eye = np.eye(size)
        expect = np.linalg.solve(eye + c * r_whole, (eye - c * r_whole) @ full)
        assert np.max(np.abs(part.step(x, r, c) - expect[part.ids])) < 1e-12
        assert np.max(np.abs(np.delete(expect, part.ids))) < 1e-12
        # an (m, 3) stack shares the step: each column as if alone
        xs = np.column_stack([x, 1j * x[::-1], np.conj(x)])
        stepped = part.step(xs, r, c)
        for k in range(3):
            assert np.array_equal(stepped[:, k], part.step(xs[:, k].copy(), r, c))
        # the Cayley step (1 + A)^{-1} (1 - A), A = cR, against exp(-2A):
        # the series differ by sum_{j >= 3} (-1)^j (2 - 2^j / j!) A^j, each
        # coefficient at most 2 in modulus, so for a = ||A||_2 < 1
        # ||step x - exp(-2A) x|| <= 2 a^3 / (1 - a) ||x||.  R_whole
        # vanishes off the footprint, where its exponential is the identity
        r_fp = r_whole[np.ix_(part.ids, part.ids)]
        a = abs(c) * np.linalg.norm(r_fp, 2)
        assert 1e-3 < a < 0.5
        bound = 2.0 * a**3 / (1.0 - a) * np.linalg.norm(x)
        exact = expm(-2.0 * c * r_fp) @ x
        assert np.linalg.norm(part.step(x, r, c) - exact) <= bound
        # the backward step, c -> -c, is first-order far from exp(-2A)
        assert np.linalg.norm(part.step(x, r, -c) - exact) > bound
        # every step above reused the fields: a step writes 1 + cR into
        # the footprint's own buffer, never into them
        assert all(np.array_equal(f, f_before) for f, f_before in zip(r, r_before))


def _remainder_by_definition(spec, grid, t, adjoint):
    """The 1-D remainder on the whole periodic grid, straight from the field
    values: W K W (forward) or K S (adjoint), less K_0, plus V_eff.  K has
    the face coefficient c = sqrt(g^{11}) at z_j + dz/2 between points j and
    j + 1 (mod N); w = (g^{11})^{1/4} and s = sqrt(g^{11}) at the points."""
    N, dz = grid.N, grid.dz
    pts = grid.points_z()
    a = spec.inverse_metric_field(pts, t)[:, 0, 0]
    c = np.sqrt(spec.inverse_metric_field(pts + 0.5 * dz, t)[:, 0, 0])
    diff = np.roll(np.eye(N), 1, axis=1) - np.eye(N)       # (D u)_j = u_{j+1} - u_j
    K, K0 = (diff.T @ np.diag(face) @ diff / dz**2 for face in (c, np.ones(N)))
    if adjoint:
        H = K @ np.diag(np.sqrt(a))
    else:
        W = np.diag(a**0.25)
        H = W @ K @ W
    v_eff = spec.potential_field(pts, t).astype(complex)
    if adjoint:
        v_eff = np.conj(v_eff - 0.25j * spec.dt_log_det_metric_field(pts, t))
    return H - K0 + np.diag(v_eff)


@pytest.mark.parametrize("where", ["inside", "corner", "apart"])
def test_1d_footprint_remainder_equals_its_definition(where):
    # "apart": two bumps whose footprints are separate runs, so some
    # consecutive footprint rows are not grid neighbours
    grid = Grid(n=1, N=256, L=10.0)
    if where == "apart":
        bump, potential = _bump_and_potential(np.array([-5.0])).terms()
        spec = PerturbationSpec(n=1, bumps=(bump, MetricBump(
            amplitude=-0.1, center_z=[4.0], center_t=0.5, radius_z=1.5, radius_t=1.0,
            pattern=np.eye(1))), potential_terms=(potential,))
    else:
        spec = _footprint_spec(grid, where)
    for adjoint in (False, True):
        footprint = quantum._Footprint(spec, grid, adjoint)
        gaps = np.count_nonzero(np.diff(footprint.ids) % grid.N != 1)
        assert gaps == (1 if where == "apart" else 0)
        r_fp = _embedded(footprint, footprint.remainder(0.3), grid.N)
        r_def = _remainder_by_definition(spec, grid, 0.3, adjoint)
        assert np.max(np.abs(r_def)) > 1.0
        assert np.max(np.abs(r_fp - r_def)) <= 1e-13 * np.max(np.abs(r_def))
        # the forward block is exactly symmetric, bit for bit
        assert adjoint or np.array_equal(r_fp, r_fp.T)


@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_only_the_effective_potential_makes_the_band_complex(n):
    # the stencil is real; V_eff goes on the diagonal, row ``up`` of the band
    grid = Grid(n=n, N=256 if n == 1 else 32, L=10.0)
    spec = _footprint_spec(grid, "inside")
    for adjoint in (False, True):
        footprint = quantum._Footprint(spec, grid, adjoint)
        imag = footprint.remainder(0.3).imag
        v_eff = quantum._effective_potential(spec, grid.points_z()[footprint.ids], 0.3, adjoint)
        assert np.any(v_eff.imag)
        assert np.array_equal(imag[footprint.up], v_eff.imag)
        assert not np.any(np.delete(imag, footprint.up, axis=0))


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_seam_wrapping_footprint_keeps_the_interior_band(monkeypatch, adjoint):
    # the corner footprint wraps the seam; its support moved by half the box
    # lies in the interior.  Both solve in the same narrow band, where the
    # plain sorted order of the corner footprint would need m - 1 diagonals
    grid = Grid(n=2, N=32, L=10.0)
    N, spec = grid.N, _footprint_spec(grid, "corner")
    corner = quantum._Footprint(spec, grid, adjoint)
    i, j = np.divmod(corner.support, N)
    moved = np.sort(((i + N // 2) % N) * N + (j + N // 2) % N)
    with monkeypatch.context() as translated:
        translated.setattr(quantum, "_support_indices", lambda spec, pts: moved)
        interior = quantum._Footprint(spec, grid, adjoint)
    assert corner.ids.min() == 0 and corner.ids.max() == N * N - 1
    assert interior.ids.min() > N and interior.ids.max() < N * N - N
    assert corner.ids.size == interior.ids.size
    assert (corner.lo, corner.up) == (interior.lo, interior.up)
    assert np.array_equal(corner.slot, interior.slot)
    assert max(corner.lo, corner.up) < corner.ids.size // 4


# radius 10 supports every point of the box [-4, 4)^n; radius 4.5 leaves the
# corners of the 2-D box free, but no index along either axis
@pytest.mark.parametrize("n,radius", [(1, 10.0), (2, 10.0), (2, 4.5)],
                         ids=["n=1", "n=2", "n=2-corners-free"])
def test_footprint_without_a_free_index_is_refused(n, radius):
    # no seam rotation makes such a footprint one unbroken run, and its band
    # would span all of it (8.6 GB for the 2-D footprint at N = 128)
    grid = Grid(n=n, N=16, L=4.0)
    spec = _metric_spec(radius_z=radius, n=n)
    for adjoint in (False, True):
        with pytest.raises(ValidationError) as refused:
            quantum._Footprint(spec, grid, adjoint)
        assert refused.value.invariant == "footprint-leaves-a-free-index"
    u = WaveField(grid=grid, values=np.zeros(grid.shape()), time=-2.0)
    with pytest.raises(ValidationError, match="footprint-leaves-a-free-index"):
        propagate_window(spec, u, 2.0)


@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_non_finite_remainder_is_a_convergence_failure(monkeypatch, n):
    grid = Grid(n=n, N=256 if n == 1 else 32, L=10.0)
    spec = _footprint_spec(grid, "inside")
    effective_potential = quantum._effective_potential
    monkeypatch.setattr(quantum, "_effective_potential",
                        lambda *args: np.nan * effective_potential(*args))
    u = poisson_free(coherent_data(grid, [0.5] * n, [0.0] * n, 0.5), 0.0)
    with pytest.raises(ConvergenceFailure, match="remainder step"):
        propagate_window(spec, u, 1.0, SolverParams(dt=2e-2))


def _two_bumps_and_potential(n):
    # bump b is active for t in (0.8, 1.6), bump a and the potential for
    # t in (-0.5, 1.5)
    a, pot = _bump_and_potential(np.zeros(n), n).terms()
    b = MetricBump(amplitude=0.1, center_z=np.full(n, 1.0), center_t=1.2,
                   radius_z=2.0, radius_t=0.4, pattern=np.eye(n))
    return PerturbationSpec(n=n, bumps=(a, b), potential_terms=(pot,))


@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_footprint_windows_do_not_go_stale(n):
    # one footprint keeps its spatial windows from step to step; at every
    # time its remainder is bitwise the one built from fresh field calls at
    # the bare point arrays
    grid = Grid(n=n, N=256 if n == 1 else 32, L=10.0)
    spec = _two_bumps_and_potential(n)
    for adjoint in (False, True):
        kept = quantum._Footprint(spec, grid, adjoint)
        fresh = quantum._Footprint(spec, grid, adjoint)
        fresh.x = fresh.x.array
        if n == 1:
            fresh.x_and_faces = fresh.x_and_faces.array
        # bump b is inactive at 0.1, bump a at 1.55
        for t in (0.9, 0.1, 1.3, 1.55, 0.9):
            assert np.array_equal(kept.remainder(t), fresh.remainder(t))


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2], ids=["n=1", "n=2"])
def test_block_fields_equal_per_time_fields(n):
    # one block of times straddles the activation of bump b at t = 0.8 and
    # the end of bump a and the potential at t = 1.5: a term inactive at
    # some times of the block adds exact zeros there, where a single time
    # skips it.  Every slice is bit for bit the evaluation at its time alone
    grid = Grid(n=n, N=256 if n == 1 else 32, L=10.0)
    spec = _two_bumps_and_potential(n)
    times = np.array([0.7, 0.85, 1.1, 1.3, 1.49, 1.55])
    pts = FieldPoints(grid.points_z()[quantum._support_indices(spec, grid.points_z())])
    evaluators = (spec.inverse_metric_field, spec.potential_field,
                  spec.dt_log_det_metric_field,
                  lambda x, t: spec.inverse_metric_jet_field(x, t)[0],
                  lambda x, t: spec.inverse_metric_jet_field(x, t)[1])
    for evaluate in evaluators:
        block = evaluate(pts, times[:, None])
        assert block.shape[0] == times.size
        for k, t in enumerate(times):
            assert _bitwise_equal(block[k], evaluate(pts, t))
    c = 0.5j * 5e-3
    for adjoint in (False, True):
        footprint = quantum._Footprint(spec, grid, adjoint)
        stepped = list(footprint.step_fields(times))
        assert len(stepped) == times.size
        for k, t in enumerate(times):
            alone = footprint.fields(t)
            assert all(_bitwise_equal(*pair) for pair in zip(stepped[k], alone))
            # the buffer a step loads from the block's fields is bit for bit
            # the one loaded from the fields at its time alone
            footprint.load(*stepped[k], c)
            loaded = footprint.plus.copy()
            footprint.load(*alone, c)
            assert _bitwise_equal(loaded, footprint.plus)


def _plain_march(spec, grid, values, t0, t1, params):
    """The Strang march with a fresh array from every transform and product,
    and at every step a fresh remainder R and a fresh band of 1 + cR for
    one solve_banded."""
    span = t1 - t0
    m = max(1, int(np.ceil(abs(span) / params.dt - 1e-12)))
    step = span / m
    axes = grid.axes
    norm_sq = np.fft.ifftshift(grid.dual_norm_sq())
    half, full = np.exp(-0.5j * step * norm_sq), np.exp(-1j * step * norm_sq)
    footprint = quantum._Footprint(spec, grid, adjoint=t1 < t0)
    ids = footprint.ids
    spectrum = np.fft.fftn(values, axes=axes)
    v = np.fft.ifftn(half * spectrum, axes=axes)
    for k in range(m):
        flat = v.reshape(*v.shape[:v.ndim - grid.n], -1)
        plus = 0.5j * step * footprint.remainder(t0 + (k + 0.5) * step)
        plus[footprint.up] += 1.0
        x = flat[..., ids].T
        y = quantum.solve_banded((footprint.lo, footprint.up), plus, x)
        flat[..., ids] = (2.0 * y - x).T
        spectrum = np.fft.fftn(v, axes=axes)
        v = np.fft.ifftn((full if k < m - 1 else half) * spectrum, axes=axes)
    return v


# at N = 16384 one field has 256 KiB, where numpy starts to reuse temporaries;
# the corner footprint wraps the seam, so its flat indices cross the box edge
@pytest.mark.parametrize("n,N,where", [(1, 512, "inside"), (1, 16384, "inside"),
                                       (2, 64, "inside"), (1, 512, "corner"),
                                       (2, 64, "corner")],
                         ids=["n=1", "n=1-N=16384", "n=2", "n=1-corner", "n=2-corner"])
def test_buffered_march_equals_plain_march(monkeypatch, n, N, where):
    grid = Grid(n=n, N=N, L=20.0)
    spec = _footprint_spec(grid, where)
    params = SolverParams(dt=2e-2)
    fields = [poisson_free(coherent_data(grid, [z] * n, [fr] * n, h), 0.0).values
              for z, fr, h in ((0.3, 0.0, 0.5), (-0.2, 1.0, 0.3), (0.1, -0.5, 0.4))]
    points = len(quantum._Footprint(spec, grid, False).x.array)
    # the budget's blocks, then blocks of 3 steps: the 50 steps of a march
    # span 17 blocks, and the last ends after 2 of its 3 steps
    for budget in (quantum._BLOCK_POINTS, 3 * points):
        monkeypatch.setattr(quantum, "_BLOCK_POINTS", budget)
        for values in (fields[0], np.stack(fields)):
            for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
                before = values.copy()
                marched = quantum._strang_march(spec, grid, values, t0, t1, params)
                assert np.array_equal(values, before)
                assert np.array_equal(marched, _plain_march(spec, grid, values, t0, t1, params))


# ---------------------------------------------------------------------------
# the scattering map and its adjoint


@pytest.mark.parametrize("where", ["flat", "inside", "corner"])
# twice the box of the remainder test, so that no packet reaches the shell;
# at N = 16384 one field has 256 KiB, where numpy starts to reuse temporaries
@pytest.mark.parametrize("n,N", [(1, 512), (1, 16384), (2, 64)],
                         ids=["n=1", "n=1-N=16384", "n=2"])
def test_stacked_map_equals_per_input_maps(n, N, where):
    grid = Grid(n=n, N=N, L=20.0)
    spec = _footprint_spec(grid, where)
    params = SolverParams(dt=2e-2)
    packets = [coherent_data(grid, [z] * n, [fr] * n, h)
               for z, fr, h in ((0.3, 0.0, 0.5), (-0.2, 1.0, 0.3), (0.1, -0.5, 0.4))]
    stack = SpectralData(grid=grid, values=np.stack([p.values for p in packets]))
    for direction in (scattering_map, adjoint_scattering_map):
        mapped = direction(spec, stack, params)
        assert mapped.values.shape == (3, *grid.shape())
        for k, packet in enumerate(packets):
            alone = direction(spec, packet, params)
            assert np.array_equal(mapped.values[k], alone.values)
            assert mapped.norm()[k] == alone.norm()
            assert mapped.inner(stack)[k] == alone.inner(packet)


def test_stacked_map_raises_when_one_input_leaks():
    spec = _potential_spec(0.3)
    inside = coherent_data(GRID, 1.0, 0.0, 0.3)
    leaking = coherent_data(GRID, 12.0, 0.0, 0.3)   # reaches the shell by t = 1.25
    scattering_map(spec, inside, PARAMS)
    stack = SpectralData(grid=GRID, values=np.stack([inside.values, leaking.values,
                                                      inside.values]))
    with pytest.raises(BoundaryLeak):
        scattering_map(spec, stack, PARAMS)


def test_scattering_map_flat_identity():
    spec = flat_spec(1)
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    fp = scattering_map(spec, f, PARAMS)
    assert np.linalg.norm(fp.values - f.values) / np.linalg.norm(f.values) < 1e-8


def test_scattering_map_identity_when_support_misses_beam():
    spec = _metric_spec(0.3, radius_z=1.0)
    grid = Grid(n=1, N=4096, L=32.0)           # fine enough that the window
    f = coherent_data(grid, 1.0, 15.0, 0.5)    # dispersion stays below 1e-3
    fp = scattering_map(spec, f, PARAMS)
    assert np.linalg.norm(fp.values - f.values) / np.linalg.norm(f.values) < 1e-3


def test_scattering_map_rejects_broadband_input():
    rng = np.random.default_rng(9)
    vals = rng.normal(size=GRID.N) + 1j * rng.normal(size=GRID.N)
    f = SpectralData(grid=GRID, values=vals)
    with pytest.raises(ValidationError):
        scattering_map(_potential_spec(), f, PARAMS)


@pytest.mark.parametrize("spec", [flat_spec(1), _potential_spec()], ids=["flat", "potential"])
def test_scattering_map_rejects_a_non_finite_sample(spec):
    values = coherent_data(GRID, 0.5, 0.0, 0.5).values
    values[GRID.N // 2] = np.nan
    with pytest.raises(ValidationError) as refused:
        scattering_map(spec, SpectralData(grid=GRID, values=values), PARAMS)
    assert refused.value.invariant == "finite-input"


@pytest.mark.parametrize("field", ["dt", "margin"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_solver_params_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        SolverParams(**{field: value})


@pytest.mark.parametrize("dt", [1e-300, 1e-30])
def test_a_march_of_too_many_steps_is_refused_naming_dt(dt):
    # a times array of one entry a step cannot be allocated
    f = coherent_data(GRID, 0.5, 0.0, 0.5)
    with pytest.raises(ValidationError, match="^dt = ") as refused:
        scattering_map(_potential_spec(), f, SolverParams(dt=dt))
    assert refused.value.invariant == "march-steps"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_grid_rejects_a_non_finite_half_width(value):
    # the parameter comes first, so that a scenario error names grid.half_width
    with pytest.raises(ValueError, match="^L "):
        Grid(n=1, N=64, L=value)


@pytest.mark.parametrize("field", ["h", "Z0", "frak0"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_coherent_data_rejects_non_finite_values(field, value):
    args = {"Z0": [0.0], "frak0": [0.0], "h": 0.5, field: value}
    with pytest.raises(ValueError, match=f"^{field} "):
        coherent_data(GRID, **args)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_free_operations_reject_a_non_finite_time(monkeypatch, value):
    # a non-finite time made all-NaN fields (or a NaN error) without a word;
    # each is refused, naming its parameter, before any transform
    f = coherent_data(GRID, 0.5, 0.0, 0.5)
    u = poisson_free(f, -5.0)

    def no_transform(*args):
        raise AssertionError("transformed a field at a non-finite time")

    monkeypatch.setattr(quantum, "forward_ft", no_transform)
    monkeypatch.setattr(quantum, "inverse_ft", no_transform)
    calls = [("time", lambda: WaveField(grid=GRID, values=u.values, time=value)),
             ("dt", lambda: free_propagate(u, value)),
             ("t", lambda: poisson_free(f, value)),
             ("t", lambda: asymptotic_profile_error(f, value)),
             ("t_to", lambda: propagate_window(flat_spec(1), u, value))]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} "):
            call()


def test_adjoint_map_flat_identity():
    spec = flat_spec(1)
    g = coherent_data(GRID, 0.7, -0.5, 0.3)
    gm = adjoint_scattering_map(spec, g, PARAMS)
    assert np.linalg.norm(gm.values - g.values) / np.linalg.norm(g.values) < 1e-8


def test_adjoint_map_inverts_self_adjoint_scattering():
    spec = _potential_spec(0.3)
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    fp = scattering_map(spec, f, PARAMS)
    back = adjoint_scattering_map(spec, fp, PARAMS)
    assert np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values) < 1e-10


@pytest.mark.parametrize("spec_builder,tol", [
    (lambda: flat_spec(1), 1e-10),
    (lambda: _potential_spec(0.3 - 0.1j), 5e-4),
    (lambda: _metric_spec(0.05), 5e-3),
])
def test_pairing_conservation(spec_builder, tol):
    spec = spec_builder()
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    g = coherent_data(GRID, 0.7, -0.5, 0.3)
    fp = scattering_map(spec, f, PARAMS)
    gm = adjoint_scattering_map(spec, g, PARAMS)
    residual = abs(fp.inner(g) - f.inner(gm)) / (f.norm() * g.norm())
    assert residual < tol


def test_metric_evolution_conserves_flat_norm():
    # the forward march propagates the half-density conjugate, so S keeps the
    # flat norm of the asymptotic data under a time-dependent metric
    spec = _metric_spec(0.3)
    f = coherent_data(GRID, 1.0, 0.0, 0.25)
    fp = scattering_map(spec, f, SolverParams(dt=1e-3))
    assert abs(fp.norm() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# coherent packets and moments


def test_coherent_data_normalized():
    f = coherent_data(GRID, 0.0, 0.0, 0.2)
    assert abs(f.norm() - 1.0) < 1e-10
    assert np.max(np.abs(f.values.imag)) == 0.0    # frak0 = 0: real Gaussian


def test_coherent_data_clipping_guard():
    with pytest.raises(PacketClipped):
        coherent_data(GRID, GRID.z_max - 0.5, 0.0, 1.0)


def test_packet_moments_recover_centre():
    f = coherent_data(GRID, 1.2, -0.7, 0.15)
    zbar, frakbar = packet_moments(f)
    assert abs(zbar[0] - 1.2) < 1e-8
    assert abs(frakbar[0] + 0.7) < 1e-8


def test_packet_moments_phase_invariance():
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    g = SpectralData(grid=GRID, values=f.values * np.exp(1j * 0.77))
    za, fa = packet_moments(f)
    zb, fb = packet_moments(g)
    assert np.max(np.abs(za - zb)) < 1e-14
    assert np.max(np.abs(fa - fb)) < 1e-14


def test_packet_moments_rejects_a_stack():
    # pooling the inputs would give one pair for both packets
    a = coherent_data(GRID, 1.0, 0.5, 0.2)
    b = coherent_data(GRID, -0.5, -0.3, 0.2)
    stack = SpectralData(grid=GRID, values=np.stack([a.values, b.values]))
    with pytest.raises(ValidationError) as err:
        packet_moments(stack)
    assert err.value.invariant == "single-field"


def test_packet_moments_real_data_has_zero_frequency():
    vals = np.exp(-GRID.axis_Z() ** 2).astype(complex)
    _, frakbar = packet_moments(SpectralData(grid=GRID, values=vals))
    assert abs(frakbar[0]) < 1e-13


def test_packet_moments_zero_mass():
    with pytest.raises(ZeroMass):
        packet_moments(SpectralData(grid=GRID, values=np.zeros(GRID.N, dtype=complex)))


def test_free_solution_concentrates_on_beam():
    # frozen phase-sign regression: packets ride z = 2 t Z0 - frak0
    grid = Grid(n=1, N=2048, L=60.0)
    f = coherent_data(grid, 1.0, 0.3, 0.2)
    u = poisson_free(f, 10.0)
    w = np.abs(u.values) ** 2
    centroid = float((grid.axis_z() * w).sum() / w.sum())
    assert abs(centroid - (2 * 10 * 1.0 - 0.3)) < 0.5


# ---------------------------------------------------------------------------
# persistence


def test_field_dump_load_round_trip(tmp_path):
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    u = poisson_free(f, -2.0)
    path = tmp_path / "field.field"
    dump_field(path, u)
    back = load_field(path)
    assert isinstance(back, WaveField)
    assert back.grid == u.grid and back.time == u.time
    assert np.array_equal(back.values, u.values)

    spath = tmp_path / "spec.field"
    dump_field(spath, f)
    fback = load_field(spath)
    assert isinstance(fback, SpectralData)
    assert np.array_equal(fback.values, f.values)


def test_persistence_rejects_a_stack(tmp_path):
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    stack = SpectralData(grid=GRID, values=np.stack([f.values, f.values]))
    with pytest.raises(ValidationError):
        dump_field(tmp_path / "stack.field", stack)
    with pytest.raises(ValidationError):
        export_spectrum_csv(tmp_path / "stack.csv", stack)


def test_spectrum_csv_export(tmp_path):
    f = coherent_data(GRID, 1.0, 0.3, 0.2)
    path = tmp_path / "spectrum.csv"
    export_spectrum_csv(path, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Z,abs2,arg"
    assert len(lines) == GRID.N + 1


def test_spectrum_csv_export_2d(tmp_path):
    grid = Grid(n=2, N=16, L=4.0)
    f = coherent_data(grid, [0.5, -0.3], [0.2, 0.1], 0.3)
    path = tmp_path / "spectrum.csv"
    export_spectrum_csv(path, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "Z1,Z2,abs2,arg"
    assert len(lines) == grid.N**2 + 1
    # row-major: the second coordinate runs fastest
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    Z1, Z2 = grid.mesh_Z()
    assert np.array_equal(rows[:, 0], Z1.ravel()) and np.array_equal(rows[:, 1], Z2.ravel())
    assert np.array_equal(rows[:, 2], [abs(v) ** 2 for v in f.values.ravel()])


# ---------------------------------------------------------------------------
# two-dimensional solver (best effort)


def test_2d_flat_identity():
    grid = Grid(n=2, N=64, L=10.0)
    f = coherent_data(grid, [0.5, 0.0], [0.3, -0.2], 0.4)
    fp = scattering_map(flat_spec(2), f, SolverParams(dt=5e-3))
    assert np.linalg.norm(fp.values - f.values) / np.linalg.norm(f.values) < 1e-10


def test_2d_potential_mass_conservation():
    spec = PerturbationSpec(n=2, potential_terms=(PotentialTerm(
        amplitude=0.2, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=2.0, radius_t=0.5),))
    grid = Grid(n=2, N=64, L=10.0)
    f = coherent_data(grid, [0.5, 0.0], [0.0, 0.0], 0.4)
    fp = scattering_map(spec, f, SolverParams(dt=5e-3))
    assert abs(fp.norm() - f.norm()) / f.norm() < 1e-8


def test_2d_weak_potential_phase():
    spec = PerturbationSpec(n=2, potential_terms=(PotentialTerm(
        amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=4.0, radius_t=0.5),))
    grid = Grid(n=2, N=64, L=10.0)
    f = coherent_data(grid, [0.3, 0.0], [0.0, 0.0], 0.4)
    fp = scattering_map(spec, f, SolverParams(dt=2.5e-3))
    phi_num = float(np.angle(fp.inner(f)))
    from scipy.integrate import quad

    phi_cl = -quad(lambda t: spec.potential([2 * t * 0.3, 0.0], t).real,
                   -0.5, 0.5, epsabs=1e-12)[0]
    assert abs(phi_num - phi_cl) < 0.05 * abs(phi_cl) + 0.01


def test_2d_pairing_conservation():
    grid = Grid(n=2, N=64, L=10.0)
    params = SolverParams(dt=5e-3)
    f = coherent_data(grid, [0.5, 0.0], [0.3, -0.2], 0.4)
    g = coherent_data(grid, [0.2, 0.3], [-0.4, 0.1], 0.5)
    met = PerturbationSpec(n=2, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=2.0, radius_t=0.5, pattern=np.eye(2)),))
    fp = scattering_map(met, f, params)
    gm = adjoint_scattering_map(met, g, params)
    res = abs(fp.inner(g) - f.inner(gm)) / (f.norm() * g.norm())
    # 9.4e-5 at dt and at dt / 2, 3.6e-4 at twice the amplitude: an O(eps^2)
    # floor, not splitting error.  The forward remainder (M + M^T) / 2 lacks
    # the zeroth-order term g^{jk} d_j phi d_k phi / 4, phi = log sqrt(det g),
    # of the half-density operator rho^{1/2} Delta_g rho^{-1/2}
    assert res < 1e-3
    pot = PerturbationSpec(n=2, potential_terms=(PotentialTerm(
        amplitude=0.2 - 0.05j, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=2.0, radius_t=0.5),))
    fp = scattering_map(pot, f, params)
    gm = adjoint_scattering_map(pot, g, params)
    res = abs(fp.inner(g) - f.inner(gm)) / (f.norm() * g.norm())
    assert res < 1e-10          # diagonal remainder: exact discrete adjoint


def test_2d_strang_second_order_in_time():
    # sheared metric bump plus a potential; error of S against dt = 3.125e-4
    spec = PerturbationSpec(n=2, bumps=(MetricBump(
        amplitude=0.1, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=2.0, radius_t=0.5, pattern=[[1.0, 0.3], [0.3, 0.5]]),),
        potential_terms=(PotentialTerm(
            amplitude=0.2, center_z=[0.0, 0.0], center_t=0.0,
            radius_z=2.0, radius_t=0.5),))
    grid = Grid(n=2, N=32, L=8.0)
    f = coherent_data(grid, [0.5, 0.0], [0.3, -0.2], 0.4)
    ref = scattering_map(spec, f, SolverParams(dt=3.125e-4)).values
    errors = [np.linalg.norm(scattering_map(spec, f, SolverParams(dt=dt)).values - ref)
              for dt in (2e-2, 1e-2, 5e-3)]
    # halving dt must cut the error by about 4 (measured 3.9 and 4.0)
    assert errors[0] / errors[1] >= 3.0
    assert errors[1] / errors[2] >= 3.0


def test_2d_metric_bump_runs_and_conserves_compensated_mass():
    spec = PerturbationSpec(n=2, bumps=(MetricBump(
        amplitude=0.05, center_z=[0.0, 0.0], center_t=0.0,
        radius_z=2.0, radius_t=0.5, pattern=np.eye(2)),))
    grid = Grid(n=2, N=64, L=10.0)
    f = coherent_data(grid, [0.5, 0.0], [0.0, 0.0], 0.4)
    fp = scattering_map(spec, f, SolverParams(dt=5e-3))
    # compensated: the asymptotic (flat-measure) norm is preserved
    assert abs(fp.norm() - f.norm()) / f.norm() < 1e-6
