"""Grid solutions, exact free propagation, and the quantum scattering map.

Fourier convention, fixed once and threaded everywhere:

    FT(u)(Z)  = integral e^{-i z.Z} u(z) dz,
    u(z)      = (2 pi)^{-n} integral e^{+i z.Z} FT(u)(Z) dZ,

so that the asymptotic data of a solution is literally
f(Z) = e^{+i t |Z|^2} FT(u)(Z) at any time t on the free side, and the free
solution with data f is u(., t) = invFT[e^{-i t |Z|^2} f].

The propagator splits time into perturbation-free gaps, handled by the exact
spectral multiplier, and active intervals, handled by Strang splitting in
any dimension (Strang, SIAM J. Numer. Anal. 5, 1968): each step applies the
exact free multiplier for half the step, one Crank-Nicolson step of the
remainder R = H - K_0 at the step midpoint, and the free half-step again.
H is the finite-difference spatial operator and K_0 its free stencil.  The
fields of ``symbols`` are bit-exactly flat outside the terms' declared
supports, so R vanishes off the perturbation footprint, the support points
and their stencil neighbours, and the remainder step is assembled and
solved there only, with one direct LAPACK call: ``zgtsv`` for the
tridiagonal band of n = 1, ``zgbsv`` for the narrow band of n = 2.  Every
dimension orders the footprint the same way and stores R in the same band
layout; only the stencil depends on n, a 2 x 2 block per face in n = 1 and
a 9-point stencil per support point in n = 2.  The stencil is real and
V_eff lies on the diagonal, so each step writes the band of 1 + cR
straight into one buffer per march.  A beam that never meets the
perturbation sees the exact multiplier alone.  A march reuses one spectrum
and one field buffer for all its transforms and evaluates the terms'
spatial windows on the footprint once, so a step allocates no grid-sized
array.  A march also knows all its step midpoints before it starts, so it
evaluates the fields for a block of steps in one vectorized pass, about
``_BLOCK_POINTS`` field points per block, bitwise the values of per-step
evaluation; the step loop gathers the footprint, loads its band, makes the
one banded solve, scatters the solution and runs the two transforms.

One walk serves the scattering map S and its adjoint S*: the direction of
time selects the scheme, the forward one when time increases and the plain
adjoint one, with the conjugate potential, when it decreases.

Samples may carry one leading batch axis: a stack of k inputs, of shape
(k, *grid.shape()), goes through the same code as one input.  Transforms
act on the last n axes, and each Strang step assembles the remainder once
and solves one (m, k) right-hand side for the whole stack.  ``norm``,
``inner`` and the boundary and band mass fractions reduce over the last n
axes, one value per input; the leak and band-limit checks raise when any
input fails them.

`scipy.linalg` is imported by the first banded solve (:func:`solve_banded`),
not with the package, so work that never steps a remainder never loads it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryLeak,
    ConvergenceFailure,
    InsideWindow,
    InvalidArgument,
    PacketClipped,
    ValidationError,
    ZeroMass,
    in_range,
)
from .symbols import SUPPORT_MARGIN, FieldPoints, PerturbationSpec

LEAK_THRESHOLD = 1e-6
SHELL_FRACTION = 0.05


# ---------------------------------------------------------------------------
# grid and transforms


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L, L)^n with N points per axis and its dual grid."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", in_range("L", self.L, 0.0))
        if self.n not in (1, 2):
            raise InvalidArgument("n", "must be 1 or 2")
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise InvalidArgument("N", "must be a power of two >= 4")

    @property
    def dz(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def dZ(self) -> float:
        return np.pi / self.L

    @property
    def z_max(self) -> float:
        """Edge of the dual grid: |Z| < z_max per axis."""
        return 0.5 * self.N * self.dZ

    def axis_z(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dz

    def axis_Z(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dZ

    def mesh_z(self):
        return np.meshgrid(*([self.axis_z()] * self.n), indexing="ij")

    def mesh_Z(self):
        return np.meshgrid(*([self.axis_Z()] * self.n), indexing="ij")

    def points_z(self) -> np.ndarray:
        """(N^n, n) array of physical points in row-major order; read-only,
        built once per grid (see _grid_table)."""
        return _grid_table(self, "points_z")

    def dual_norm_sq(self) -> np.ndarray:
        """|Z|^2 on the dual grid, origin centred; read-only, built once per
        grid (see _grid_table)."""
        return _grid_table(self, "dual_norm_sq")

    def shape(self):
        return (self.N,) * self.n

    @property
    def axes(self) -> tuple:
        """The grid axes of a sample array, the last n, with or without a
        leading batch axis."""
        return tuple(range(-self.n, 0))


@functools.lru_cache(maxsize=16)
def _grid_table(grid, name):
    """The read-only table ``name`` of ``grid``: "points_z", the (N^n, n)
    physical points in row-major order, "dual_norm_sq", |Z|^2 on the dual
    grid with the origin centred, or "dual_norm_sq_fft", the same in FFT
    order, the order in which a march multiplies.  Each is built once per
    grid, as every map and march of a run reads the same few, and is
    read-only, as it is shared."""
    if name == "points_z":
        table = np.stack([m.ravel() for m in grid.mesh_z()], axis=-1)
    elif name == "dual_norm_sq":
        table = sum(m**2 for m in grid.mesh_Z())
    else:
        table = np.fft.ifftshift(grid.dual_norm_sq())
    table.flags.writeable = False
    return table


def forward_ft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete FT(u)(Z) on the dual grid (math ordering, origin centred),
    over the grid axes of one field or of a stack."""
    axes = grid.axes
    return grid.dz**grid.n * np.fft.fftshift(
        np.fft.fftn(np.fft.ifftshift(values, axes), axes=axes), axes)


def inverse_ft(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_ft` (exact round trip on the grid)."""
    axes = grid.axes
    return grid.dz**(-grid.n) * np.fft.fftshift(
        np.fft.ifftn(np.fft.ifftshift(values, axes), axes=axes), axes)


@dataclass(frozen=True)
class _Samples:
    """Complex samples on the grid: one input of shape ``grid.shape()``, or
    a stack of k inputs along one leading batch axis.  ``norm``, ``inner``
    and the mass fractions reduce over the grid axes, so they give a scalar
    for one input and k values for a stack.  ``spacing`` names the grid
    step, dz or dZ, whose n-th power is the cell volume of ``norm`` and
    ``inner``."""

    grid: Grid
    values: np.ndarray
    spacing = "dz"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        n = self.grid.n
        if vals.ndim not in (n, n + 1) or vals.shape[vals.ndim - n:] != self.grid.shape():
            raise InvalidArgument("values", f"must have shape {self.grid.shape()}, "
                                  "after at most one batch axis")
        object.__setattr__(self, "values", vals)

    def norm(self):
        cell = getattr(self.grid, self.spacing) ** self.grid.n
        return np.sqrt(cell * np.sum(np.abs(self.values) ** 2, axis=self.grid.axes))

    def inner(self, other):
        """<f, g> = sum f conj(g) times the cell volume, per input; a single
        input on either side pairs with every input of a stack."""
        cell = getattr(self.grid, self.spacing) ** self.grid.n
        conj = np.conj(other.values)    # named: see _strang_march
        return cell * np.sum(self.values * conj, axis=self.grid.axes)

    def _outer_mass_fraction(self, cut):
        """Fraction of sum |values|^2 at the grid points where some
        coordinate, on the axis of ``spacing``, has modulus >= cut."""
        w = np.abs(self.values) ** 2
        total = np.sum(w, axis=self.grid.axes)
        outer = np.sum(w[..., _outer_mask(self.grid, self.spacing, cut)], axis=-1)
        return outer / np.where(total == 0.0, 1.0, total)


@functools.lru_cache(maxsize=16)
def _outer_mask(grid, spacing, cut):
    """The boolean mask, of shape ``grid.shape()``, of the points where some
    coordinate on the physical (``spacing`` "dz") or dual ("dZ") axis has
    modulus >= cut.  It is built once per (grid, spacing, cut): every map
    checks the band limit of its input and the leak of its output with the
    same few masks.  Read-only, as it is shared."""
    axis = grid.axis_z() if spacing == "dz" else grid.axis_Z()
    mesh = np.meshgrid(*[np.abs(axis)] * grid.n, indexing="ij")
    mask = np.max(mesh, axis=0) >= cut
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class WaveField(_Samples):
    """Complex field on the physical grid at a fixed time."""

    time: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "time", in_range("time", self.time))

    def boundary_leak_fraction(self):
        """Mass fraction in the outer 5% shell of the box."""
        return self._outer_mass_fraction((1.0 - SHELL_FRACTION) * self.grid.L)


@dataclass(frozen=True)
class SpectralData(_Samples):
    """Samples of asymptotic data f(Z) on the dual grid."""

    spacing = "dZ"

    def outer_band_fraction(self):
        """Mass fraction carried by the outer quarter of frequencies."""
        return self._outer_mass_fraction(0.75 * self.grid.z_max)


# ---------------------------------------------------------------------------
# exact free operations


def free_propagate(u: WaveField, dt: float) -> WaveField:
    """Exact free solver on the box: multiply FT(u) by e^{-i dt |Z|^2}.  The
    multiplier is applied in FFT order, between the transforms of
    forward_ft and inverse_ft without the fftshift pair that cancels
    between them: each product is the same, at a permuted index."""
    dt = in_range("dt", dt)
    if dt == 0.0:
        return u
    grid, axes = u.grid, u.grid.axes
    f_hat = grid.dz**grid.n * np.fft.fftn(np.fft.ifftshift(u.values, axes), axes=axes)
    f_hat *= np.exp(-1j * dt * _grid_table(grid, "dual_norm_sq_fft"))
    values = grid.dz**(-grid.n) * np.fft.fftshift(np.fft.ifftn(f_hat, axes=axes), axes)
    return WaveField(grid=grid, values=values, time=u.time + dt)


def poisson_free(f: SpectralData, t: float) -> WaveField:
    """The free solution with asymptotic data f, sampled at time t."""
    t = in_range("t", t)
    mult = np.exp(-1j * t * f.grid.dual_norm_sq())
    return WaveField(grid=f.grid, values=inverse_ft(f.grid, mult * f.values), time=t)


def extract_asymptotic(u: WaveField, spec: PerturbationSpec | None = None) -> SpectralData:
    """Asymptotic data f(Z) = e^{+i t |Z|^2} FT(u)(Z) of a free-side field.

    Raises InsideWindow when ``spec`` is active at the field's time.
    """
    if spec is not None:
        window = spec.time_window()
        if window is not None and window[0] < u.time < window[1]:
            raise InsideWindow(
                f"t = {u.time} lies inside the perturbation window {window}")
    f_hat = forward_ft(u.grid, u.values)
    return SpectralData(grid=u.grid, values=np.exp(1j * u.time * u.grid.dual_norm_sq()) * f_hat)


def asymptotic_profile_error(f: SpectralData, t: float) -> float:
    """Relative L2 mismatch between the free solution and its large-|t| profile.

    Compares u = poisson_free(f, t) against
    v(z) = (4 pi i t)^{-n/2} e^{i |z|^2 / 4t} f(z / 2t), with the branch
    (4 pi i t)^{-n/2} = |4 pi t|^{-n/2} e^{-/+ i pi n / 4} for t >< 0 and f
    evaluated by band-limited (trigonometric) interpolation,
    f(Z) = sum_m a_m e^{i pi m Z / z_max} per axis, whose coefficients a_m
    are the DFT of the samples.
    """
    t = in_range("t", t)
    if t == 0.0:
        raise InvalidArgument("t", "must not be 0 for a profile comparison")
    grid = f.grid
    u = poisson_free(f, t)

    targets = grid.axis_z() / (2.0 * t)
    if np.max(np.abs(targets)) >= grid.z_max:
        raise ValidationError("profile targets leave the dual grid",
                              invariant="profile-targets-in-dual-grid")
    kappa = np.pi * (np.arange(grid.N) - grid.N // 2) / grid.z_max
    interp = forward_ft(grid, f.values) / (grid.dz * grid.N) ** grid.n
    for axis in range(grid.n):
        # sum over the coefficients of one axis, 512 targets at a time
        rows = np.moveaxis(interp, axis, -1)
        interp = np.concatenate([rows @ np.exp(1j * np.outer(kappa, targets[k:k + 512]))
                                 for k in range(0, grid.N, 512)], axis=-1)
        interp = np.moveaxis(interp, -1, axis)

    mesh = grid.mesh_z()
    z_sq = sum(m**2 for m in mesh)
    branch = np.exp(-1j * np.pi * grid.n / 4.0) if t > 0 else np.exp(1j * np.pi * grid.n / 4.0)
    prefactor = np.abs(4.0 * np.pi * t) ** (-grid.n / 2.0) * branch
    v = prefactor * np.exp(1j * z_sq / (4.0 * t)) * interp

    diff = np.sqrt(np.sum(np.abs(u.values - v) ** 2))
    ref = np.sqrt(np.sum(np.abs(u.values) ** 2))
    return float(diff / ref)


# ---------------------------------------------------------------------------
# solver configuration


@dataclass(frozen=True)
class SolverParams:
    """Numerical parameters of the window propagator."""

    dt: float = 1e-3
    margin: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "dt", in_range("dt", self.dt, 0.0))
        # a margin of 0 is allowed: the bound is the least negative float
        object.__setattr__(self, "margin", in_range("margin", self.margin, -5e-324))


def _active_intervals(spec: PerturbationSpec, t_from: float, t_to: float):
    """Merged perturbation-active subintervals of [t_from, t_to]."""
    raw = []
    for term in spec.terms():
        rt = term.radius_t * (1.0 + SUPPORT_MARGIN)
        lo, hi = term.center_t - rt, term.center_t + rt
        lo, hi = max(lo, t_from), min(hi, t_to)
        if lo < hi:
            raw.append((lo, hi))
    raw.sort()
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------------------
# the remainder on the perturbation footprint


def solve_banded(l_and_u, ab, b):
    """Solve a x = b for the band ``ab`` with l lower and u upper diagonals,
    stored as scipy.linalg.solve_banded takes it: a[i, j] at
    ``ab[u + i - j, j]``.  ``ab`` may also come in ``?gbsv``'s layout, with
    l spare rows on top, 2l + u + 1 rows in all; the band is then its last
    l + u + 1 rows.  ``b`` is one column of m values or an (m, k) stack of
    columns.

    It makes the LAPACK call scipy.linalg.solve_banded makes, with the same
    arguments, so the result is bitwise scipy's: ``?gtsv`` when l = u = 1,
    otherwise ``?gbsv`` on the band below l rows, the room its LU
    factorization fills in.  A band of l + u + 1 rows is copied below l zero
    rows, as scipy does; one already in ``?gbsv``'s layout is passed as it
    is, whatever its spare rows hold, and overwritten by its LU factors
    (in place when it is Fortran-ordered).  It skips scipy's batch dispatch
    and validated copies but keeps its checks: a non-finite entry of the
    band or of ``b`` raises ValueError, a singular band
    numpy.linalg.LinAlgError.

    ``scipy.linalg`` is imported by the first call: it costs more than the
    rest of the package, and only the remainder step needs it, so
    ``report``, ``--help`` and runs that never step a remainder never load
    it.  The LAPACK routine is looked up once per dtype (see _lapack).  The
    module-level name is also the binding perfbench/tracer.py wraps to time
    the banded solves."""
    lower, upper = l_and_u
    rows = lower + upper + 1
    band = ab[ab.shape[0] - rows:]
    if not (np.isfinite(band).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    dtype = np.result_type(ab, b)
    if lower == upper == 1:
        *_, x, info = _lapack("gtsv", dtype)(band[2, :-1], band[1], band[0, 1:], b)
    else:
        gbsv = _lapack("gbsv", dtype)
        if ab.shape[0] == rows:
            ab = np.zeros((rows + lower, ab.shape[1]), dtype=gbsv.dtype)
            ab[lower:] = band
        *_, x, info = gbsv(lower, upper, ab, b, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK solve")
    return x


@functools.lru_cache(maxsize=8)
def _lapack(name, dtype):
    """The LAPACK routine ``name`` ("gtsv" or "gbsv") that
    scipy.linalg.get_lapack_funcs picks for arrays whose common dtype is
    ``dtype``: the lookup is done once per dtype, not once per solve."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(name, dtype=dtype)


def solve_cyclic_tridiagonal(lower, diag, upper, corner_ul, corner_lr, rhs):
    """Solve a cyclic tridiagonal system by Sherman-Morrison.

    ``lower[j]`` couples row j to j-1, ``upper[j]`` couples row j to j+1,
    ``corner_ul`` is the (0, N-1) entry and ``corner_lr`` the (N-1, 0) entry.

    With gamma = -diag[0], the cyclic matrix is B + u v^T, where B is
    tridiagonal, u = gamma e_0 + corner_lr e_{N-1} and
    v = e_0 + (corner_ul / gamma) e_{N-1} (Numerical Recipes, section 2.7).
    The solution is x = y - (v.y / (1 + v.q)) q with B y = rhs and B q = u,
    both from one banded solve.  ``rhs`` is one column of N values or an
    (N, k) stack of columns, solved together.

    No march calls it: the remainder step is one solve_banded in every
    dimension (see _Footprint).  perfbench/tracer.py still wraps this name.
    """
    N = diag.size
    gamma = -diag[0]
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[1, 0] -= gamma
    ab[1, -1] -= corner_ul * corner_lr / gamma
    ab[2, :-1] = lower[1:]
    u = np.zeros(N, dtype=complex)
    u[0] = gamma
    u[-1] = corner_lr
    stacked = solve_banded((1, 1), ab, np.column_stack([rhs, u]))
    y, q = stacked[:, :-1].reshape(rhs.shape), stacked[:, -1]
    vy = y[0] + corner_ul / gamma * y[-1]
    vq = q[0] + corner_ul / gamma * q[-1]
    return y - np.multiply.outer(q, vy / (1.0 + vq))


def _effective_potential(spec, pts, t, adjoint):
    """V_eff at an (m, n) array of points at time t, one rule per direction.
    Forward, the march propagates the half-density conjugate |g|^{1/4} u
    without its measure term (1/4) i d_t log det g, so V_eff is the
    potential V and S keeps the flat norm of the asymptotic data.  Adjoint,
    the scheme is the plain-measure adjoint, so V_eff is the conjugate of
    V - (1/4) i d_t log det g."""
    v_eff = spec.potential_field(pts, t)
    if adjoint:
        return np.conj(v_eff - 0.25j * spec.dt_log_det_metric_field(pts, t))
    return v_eff


def _support_indices(spec, pts):
    """Indices of the rows of the (m, n) point array ``pts`` inside some
    term's spatial support.

    The radii are inflated by SUPPORT_MARGIN, so rounding can only add
    points, at which the fields evaluate to their flat values."""
    inside = np.zeros(len(pts), dtype=bool)
    for term in spec.terms():
        d = pts - term.center_z
        inside |= np.sqrt(np.add.reduce(d * d, axis=-1)) < term.radius_z * (1.0 + SUPPORT_MARGIN)
    return np.flatnonzero(inside)


# field points per block of Strang steps whose fields one pass evaluates:
# about 60 steps of a 2-D support of 132 points, 6 of a 1-D footprint of
# 1,255 rows, whose fields cost half as much a step as one step per block
_BLOCK_POINTS = 8192

# the most steps one march takes, refused before its times array (8 bytes a
# step) is built: 10^7 keep it under 80 MB; the largest bundled march takes 4,000
_MAX_STEPS = 10**7

# offsets (di, dj) of the 9-point stencil in n = 2, the centre first
_STENCIL = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                     (1, 1), (-1, -1), (1, -1), (-1, 1)])


def _seam_shift(coords, N):
    """The first taken index after the largest cyclic gap in ``coords``,
    grid indices along one axis: subtracting it modulo N moves that gap to
    the seam of the box, so the taken indices become one unbroken run.

    Raises ValidationError when no index is free, before any band exists:
    no rotation then opens the seam, and the band would span the whole
    footprint."""
    taken = np.unique(coords)
    if taken.size == N:
        raise ValidationError("the perturbation footprint takes every grid index along "
                              "an axis, so its remainder is not banded",
                              invariant="footprint-leaves-a-free-index")
    if not taken.size:
        return 0
    gaps = np.diff(taken, prepend=taken[-1] - N)    # the gap before each index
    return int(taken[np.argmax(gaps)])


class _Footprint:
    """The remainder R = H - K_0 of one march, on the perturbation footprint.

    R vanishes outside the rows and columns of the support points and their
    stencil neighbours: the footprint, whose flat grid indices ``ids`` are
    found once per march, in the order of the solve.  The fields are
    evaluated at ``x`` only, the footprint rows in n = 1 (the metric at
    ``x_and_faces``, the rows and the faces right of them, in one call) and
    the support points in n = 2, with the same arithmetic as at every grid
    point.  Those points are FieldPoints, so every term's spatial window is
    evaluated once per march and only the time factors are multiplied in.

    :meth:`fields` gives the real part of R and the imaginary part of V_eff
    at one time or, with a leading axis, at a column of times;
    :meth:`step_fields` evaluates them for a block of a march's steps at
    once, ``_BLOCK_POINTS`` field points per block (about 60 steps of a 2-D
    support of 132 points, 6 of a 1-D footprint of a thousand rows),
    and yields each step's slice in turn.  Every slice is bitwise the
    evaluation at its time alone: the element-wise operations are the same
    and the sums go per entry in the same order; a term inactive at some
    times of a block adds exact zeros there.

    One layout serves every n.  ``ids`` is row-major order after each axis
    is rotated so that the footprint's largest gap sits at the seam (see
    _seam_shift), so a footprint that wraps the seam has the narrow band of
    one in the interior: ``lo`` lower and ``up`` upper diagonals.  R is
    stored as solve_banded takes it, entry (r, c) at ``band[up + r - c, c]``.
    The stencil is real, and V_eff, the only complex part of R, lies on the
    diagonal, ``band[up, diag]``, at ``diag``, the footprint rows where the
    fields are evaluated, so R's real part is the stencil with V_eff's real
    part summed last on the diagonal.  V_eff has one rule per direction
    (_effective_potential): V forward, the conjugate of
    V - (1/4) i d_t log det g adjoint.  A footprint with no free index along
    some axis has no such band and is refused.  Only the stencil depends on
    the dimension:

    n = 1: the divergence-form operator K with face coefficient
    c = sqrt(g^{11}) at z_j + dz/2, assembled per face.  The face right of
    each footprint row l but the last, between l and r = l + 1, adds its
    2 x 2 block, less the free block (c = 1), and V_eff goes on the
    diagonal at every row; g^{11} and V_eff are evaluated at the footprint
    rows, c at those faces.  Where l and r are not grid neighbours, both
    rows and the face are flat, so the block is exactly 0, as is the block
    of any face that leads out of the footprint.  lo = up = 1; the three
    band rows are filled straight from the row and face fields.

      forward, W K W + V_eff with w = (g^{11})^{1/4}: (l, r) and (r, l) get
        (1 - w_l c w_r) / dz^2, (l, l) and (r, r) get (w_l c w_l - 1) / dz^2
        and (w_r c w_r - 1) / dz^2.  The field propagated is the
        half-density conjugate v = |g|^{1/4} u, and the block is exactly
        symmetric, so the remainder step conserves the discrete norm
        whenever V_eff is real.
      adjoint, K S + V_eff with s = sqrt(g^{11}) = 1 / sqrt(det g): (l, r)
        gets (1 - c s_r) / dz^2, (r, l) gets (1 - c s_l) / dz^2, (l, l) and
        (r, r) get (c s_l - 1) / dz^2 and (c s_r - 1) / dz^2.  This is the
        plain-measure adjoint of the direct divergence-form discretization,
        built independently of the forward block, with the adjoint V_eff.

    n = 2: the 9-point stencil of

        Delta_g - Delta_0 = -(g^{jk} - d^{jk}) d_j d_k - b_k d_k,
        b_k = sum_j [d_j g^{jk} + g^{jk} d_j log sqrt(det g)],

    at the support points, in centred differences with analytic coefficient
    fields.  The metric part is symmetrized for the forward scheme; the
    adjoint scheme uses its transpose with the adjoint V_eff.  The
    band is about the footprint's width.  One real ``np.bincount`` per step
    sums the weights into ``slot``, fixed once per march, V_eff's last.

    A step is the Cayley step 2 y - x with (1 + cR) y = x: one banded solve
    on x, and no product R x.  The footprint owns the band of 1 + cR, one
    complex buffer allocated once per march in its LAPACK routine's layout:
    the band alone for ``?gtsv`` (lo = up = 1), and for ``?gbsv`` below
    ``pad`` = lo spare rows, Fortran-ordered, so that each solve factors it
    in place.  A step writes 1 + cR straight into it from the fields
    (:meth:`load`), with no complex R.  :meth:`remainder` builds R itself
    from the same fields, for inspection.
    """

    def __init__(self, spec, grid, adjoint):
        self.spec, self.dz, self.n, self.adjoint = spec, grid.dz, grid.n, adjoint
        N, shape = grid.N, grid.shape()
        pts = grid.points_z()
        self.support = _support_indices(spec, pts)
        if self.n == 1:
            # the rows R touches: both ends of every face in a support, and
            # the support points with their neighbours
            faces = _support_indices(spec, pts + 0.5 * self.dz)
            touched = np.concatenate([faces, faces + 1, self.support - 1,
                                      self.support, self.support + 1])
        else:
            # the stencil neighbours of the support points, (2, 9, support)
            i, j = np.divmod(self.support, N)
            touched = np.stack([i + _STENCIL[:, :1], j + _STENCIL[:, 1:]])
        touched = touched.reshape(self.n, -1) % N
        shift = np.array([[_seam_shift(axis, N)] for axis in touched])
        keys = np.ravel_multi_index(tuple((touched - shift) % N), shape)   # rotated box
        order = np.unique(keys)
        self.ids = np.ravel_multi_index(tuple((np.unravel_index(order, shape) + shift) % N),
                                        shape)
        m = self.ids.size
        if self.n == 1:
            # the faces right of rows l = 0 .. m - 2, between l and r = l + 1.
            # Where l and r are not grid neighbours, l, r and the face are
            # outside every support (else l + 1 and r - 1 would be footprint
            # rows): all flat, so that block is exactly 0
            rows_z = pts[self.ids]
            self.x = FieldPoints(rows_z)
            self.x_and_faces = FieldPoints(np.concatenate([rows_z, rows_z[:-1] + 0.5 * self.dz]))
            self.diag = slice(None)
            self.lo = self.up = 1
        else:
            self.x = FieldPoints(pts[self.support])
            cols = np.searchsorted(order, keys)
            self.diag = cols[:self.support.size]
            rows = np.tile(self.diag, len(_STENCIL))
            # entries of M^T (adjoint) or of M and M^T (forward)
            pairs = [(cols, rows)] if adjoint else [(rows, cols), (cols, rows)]
            rows, cols = (np.concatenate(part) for part in zip(*pairs))
            self.lo, self.up = (int(np.max(d, initial=0)) for d in (rows - cols, cols - rows))
            # the stencil weights, then the real part of V_eff on the diagonal
            self.slot = np.concatenate([(self.up + rows - cols) * m + cols,
                                        self.up * m + self.diag])
        self.shape = (self.lo + self.up + 1, m)
        self.pad = 0 if self.lo == self.up == 1 else self.lo
        self.plus = np.zeros((self.pad + self.shape[0], m), dtype=complex,
                             order="F" if self.pad else "C")

    def fields(self, t):
        """R's real part, its three band rows in n = 1 and the weights of
        ``slot`` in n = 2, and V_eff's imaginary part at the ``diag`` rows,
        at one time t or, with a leading M axis, at a column (M, 1) of
        times, slice k bitwise the evaluation at time k alone."""
        v_eff = _effective_potential(self.spec, self.x, t, self.adjoint)
        dz = self.dz
        if self.n == 1:
            g = self.spec.inverse_metric_field(self.x_and_faces, t)[..., 0, 0]
            m = self.ids.size
            a, c = g[..., :m], np.sqrt(g[..., m:])
            if self.adjoint:
                s = np.sqrt(a)
                cs_l, cs_r = c * s[..., :-1], c * s[..., 1:]   # K S: entry (i, j) is c s_j
                ll, rr, lr, rl = cs_l, cs_r, cs_r, cs_l
            else:
                w = a**0.25
                w_l, w_r = w[..., :-1], w[..., 1:]
                off = w_l * c * w_r                             # W K W: one value, so symmetric
                ll, rr, lr, rl = w_l * c * w_l, w_r * c * w_r, off, off
            # entry (l, r) at [0, r], (l, l) at [1, l], (r, r) at [1, r], (r, l) at [2, l]
            real = np.zeros(g.shape[:-1] + (3, m))
            real[..., 0, 1:] = (1.0 - lr) / dz**2
            real[..., 2, :-1] = real[..., 0, 1:] if rl is lr else (1.0 - rl) / dz**2
            real[..., 1, :-1] = (ll - 1.0) / dz**2
            real[..., 1, 1:] += (rr - 1.0) / dz**2
            real[..., 1, :] += v_eff.real
        else:
            g, dgdz = self.spec.inverse_metric_jet_field(self.x, t)
            g00, g01, g10, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
            d00, d11, d01 = g00 - 1.0, g11 - 1.0, g01
            # d_j log sqrt(det g) = -1/2 tr(g^{-1} d_j g), g^{-1} = adj(g) / det(g)
            det = g00 * g11 - g01 * g10
            dlog_half = -0.5 * (g11[..., None] * dgdz[..., 0, 0, :]
                                - g01[..., None] * dgdz[..., 1, 0, :]
                                - g10[..., None] * dgdz[..., 0, 1, :]
                                + g00[..., None] * dgdz[..., 1, 1, :]) / det[..., None]
            b = (dgdz[..., 0, :, 0] + dgdz[..., 1, :, 1]
                 + g[..., 0, :] * dlog_half[..., :1] + g[..., 1, :] * dlog_half[..., 1:])
            b0, b1 = b[..., 0] / (2.0 * dz), b[..., 1] / (2.0 * dz)
            cross = -2.0 * d01 / (4.0 * dz**2)
            stencil = np.concatenate([           # rows of M, in _STENCIL order
                2.0 * (d00 + d11) / dz**2,
                -d00 / dz**2 - b0, -d00 / dz**2 + b0,
                -d11 / dz**2 - b1, -d11 / dz**2 + b1,
                cross, cross, -cross, -cross], axis=-1)
            halves = [stencil] if self.adjoint else [0.5 * stencil] * 2
            real = np.concatenate(halves + [v_eff.real], axis=-1)
        return real, v_eff.imag

    def _real_band(self, real):
        """R's real part at one time as its band: the n = 1 rows, or the
        n = 2 weights summed into their slots in order, V_eff's last."""
        return real if self.n == 1 else np.bincount(
            self.slot, real, self.shape[0] * self.shape[1]).reshape(self.shape)

    def remainder(self, t):
        """R at time t on the footprint: the complex (lo + up + 1, m) band
        array, from the same fields as a step's buffer."""
        real, v_imag = self.fields(t)
        band = np.array(self._real_band(real), dtype=complex)
        band.imag[self.up, self.diag] = v_imag
        return band

    def step_fields(self, times):
        """The fields at each of the (M,) ``times`` in turn, as
        :meth:`fields` gives them at one time, evaluated for a block of
        times at once, ``_BLOCK_POINTS`` field points per block."""
        block = max(1, _BLOCK_POINTS // max(1, len(self.x.array)))
        for start in range(0, len(times), block):
            yield from zip(*self.fields(times[start:start + block, None]))

    def load(self, real, v_imag, c):
        """Write 1 + cR into the footprint's buffer, ``plus``, from the
        fields of one time.  c = i step / 2 is purely imaginary, so cR has
        the bits of the complex product: the imaginary part R_re Im c, the
        real part -V_im Im c on the diagonal and 0 elsewhere."""
        band, c = self.plus[self.pad:], c.imag
        np.multiply(self._real_band(real), c, out=band.imag)
        band.real = 0.0
        band.real[self.up] = 1.0
        band.real[self.up, self.diag] -= v_imag * c

    def step(self, x, fields, c):
        """One Crank-Nicolson step (1 + cR)^{-1} (1 - cR) x, R at the time
        of ``fields``, for x on the footprint: one column of m values, or an
        (m, k) stack of columns that shares one solve.  It is taken as
        2 y - x with (1 + cR) y = x, one banded solve on the buffer
        :meth:`load` fills; ``x`` and the fields are left as they are."""
        self.load(*fields, c)
        y = solve_banded((self.lo, self.up), self.plus, x)
        y *= 2.0
        y -= x
        return y


def _strang_march(spec, grid, values, t0, t1, params):
    """Strang splitting march over an active interval from t0 to t1: the
    forward scheme when t1 > t0, the adjoint scheme when t1 < t0.
    ``values`` is one field or a stack; the stack shares every remainder
    assembly and solve.

    Each step is an exact free half-step, one Crank-Nicolson step of the
    remainder at the step midpoint, on the footprint, and a second free
    half-step.  The remainder step is the Cayley step
    (1 + cR)^{-1} (1 - cR) x = 2 y - x with (1 + cR) y = x in either
    dimension, so no product R x is formed: y is one banded solve on the
    band of 1 + cR, in the seam-rotated footprint order fixed once per
    march, written into the footprint's buffer (see _Footprint.load).  The
    footprint of every input is gathered by one ``take`` from the raveled
    field buffer and the solution scattered back by one assignment, through
    flat indices built once per march; a footprint that wraps the seam
    needs nothing else.  A solve that fails, or meets a non-finite
    remainder, raises ConvergenceFailure.  Adjacent half-steps are fused, so
    m steps make m + 1 multiplier applications, each between a forward and
    an inverse transform: 2m + 2 transforms.  The multiplier is kept in FFT
    order, built from the grid's cached |Z|^2 in that order (_grid_table):
    for even N the fftshift pairs of forward_ft and inverse_ft cancel.  The
    march keeps one spectrum and one field buffer, which every transform
    and multiplier writes into, so a step allocates no grid-sized array.
    The spatial windows of the remainder are evaluated once per march, and
    its fields once per block of steps at the steps' midpoints (see
    _Footprint); the blocks are walked as the steps take their fields.

    The multiplier is the left operand of every product, and complex
    products elsewhere name their array operands.  For operands of one
    shape and at least 256 KiB numpy evaluates ``a * temporary`` in place
    as ``temporary * a``, and a complex product rounds differently in the
    two orders, so an unnamed temporary would let a stack round unlike its
    slices."""
    span = t1 - t0
    steps = np.ceil(abs(span) / params.dt - 1e-12)
    if not steps <= _MAX_STEPS:     # a ValidationError, not a failed allocation
        raise ValidationError(f"dt = {params.dt:.3g} needs {steps:.3g} steps, more than "
                              f"{_MAX_STEPS:,}", invariant="march-steps")
    m = max(1, int(steps))
    step = span / m
    c = 0.5j * step
    axes = grid.axes
    norm_sq = _grid_table(grid, "dual_norm_sq_fft")
    half, full = np.exp(-0.5j * step * norm_sq), np.exp(-1j * step * norm_sq)
    footprint = _Footprint(spec, grid, adjoint=t1 < t0)
    times = t0 + (np.arange(m) + 0.5) * step
    fields = footprint.step_fields(times)
    spectrum = np.fft.fftn(values, axes=axes)
    v = np.empty_like(spectrum)
    flat = v.reshape(-1)    # a view of v
    # the flat index of footprint row r of input j, at [j, r] ([r] for one input)
    ids = np.arange(v.size).reshape(*v.shape[:v.ndim - grid.n], -1)[..., footprint.ids]
    np.multiply(half, spectrum, out=spectrum)
    _fft_into(np.fft.ifft, spectrum, axes, v)
    for k, t_mid in enumerate(times):
        if ids.size:
            try:
                solved = footprint.step(flat.take(ids).T, next(fields), c).T
            except ValueError as exc:   # LinAlgError, or a non-finite band
                raise ConvergenceFailure(f"remainder step at t={t_mid:.6g} failed: "
                                         f"{exc}") from exc
            if not np.all(np.isfinite(solved)):
                raise ConvergenceFailure(f"remainder step at t={t_mid:.6g} produced "
                                         "non-finite values")
            flat[ids] = solved
        _fft_into(np.fft.fft, v, axes, spectrum)
        np.multiply(full if k < m - 1 else half, spectrum, out=spectrum)
        _fft_into(np.fft.ifft, spectrum, axes, v)
    return v


def _fft_into(transform, a, axes, out):
    """np.fft.fftn (``transform`` np.fft.fft) or np.fft.ifftn (np.fft.ifft)
    of a over ``axes``, written into out: one axis at a time, the last
    first, as fftn transforms once it has read its arguments, so the bits
    are fftn's without the cost of its argument handling on every step."""
    for axis in reversed(axes):
        a = transform(a, axis=axis, out=out)
    return out


# ---------------------------------------------------------------------------
# the window propagator and scattering maps


def propagate_window(spec: PerturbationSpec, u: WaveField, t_to: float,
                     params: SolverParams | None = None) -> WaveField:
    """Propagate u from its time u.time to t_to: the exact multiplier on
    perturbation-free gaps and Strang splitting with the remainder on the
    footprint on active intervals, in any dimension.  The direction selects
    the scheme: forward when t_to > u.time, the plain adjoint with the
    conjugate potential when t_to < u.time.  ``u`` may be a stack of
    fields, propagated by one march per interval.  Raises BoundaryLeak when
    the outer-shell mass fraction of some field exceeds LEAK_THRESHOLD
    after an active interval or at t_to."""
    t_to = in_range("t_to", t_to)
    params = params or SolverParams()
    intervals = _active_intervals(spec, min(u.time, t_to), max(u.time, t_to))
    if t_to < u.time:
        intervals = [(hi, lo) for lo, hi in reversed(intervals)]
    field = u
    cursor = u.time
    for start, stop in intervals:
        if start != cursor:
            field = free_propagate(field, start - cursor)
        vals = _strang_march(spec, field.grid, field.values, start, stop, params)
        field = WaveField(grid=field.grid, values=vals, time=stop)
        _check_leak(field)
        cursor = stop
    if cursor != t_to:
        field = free_propagate(field, t_to - cursor)
    _check_leak(field)
    return field


def _check_leak(field: WaveField):
    """Raise BoundaryLeak when some field's outer-shell mass fraction exceeds
    LEAK_THRESHOLD, and ValidationError when a fraction is NaN: a
    non-finite sample, or |v|^2 overflowing, leaves no fraction to test."""
    with np.errstate(over="ignore", invalid="ignore"):
        leak = np.max(field.boundary_leak_fraction())
    if np.isnan(leak):
        raise ValidationError(f"the outer-shell mass fraction at t={field.time:.4g} is NaN: "
                              "the field has a non-finite sample or |v|^2 overflows",
                              invariant="finite-leak-fraction")
    if leak > LEAK_THRESHOLD:
        raise BoundaryLeak(f"outer-shell mass fraction {leak:.3e} exceeds "
                           f"{LEAK_THRESHOLD:.1e} at t={field.time:.4g}")


def window_span(spec: PerturbationSpec, params: SolverParams) -> float:
    """Half-length T of the maps' horizon [-T, T]: the largest |t| of the
    perturbation's time window plus ``params.margin`` (the margin alone for
    the flat operator)."""
    window = spec.time_window() or (0.0, 0.0)
    return max(abs(window[0]), abs(window[1])) + params.margin


def check_band_limited(f: SpectralData):
    """Raise ValidationError when some input of ``f`` has a non-finite
    sample or is not band-limited."""
    if not np.all(np.isfinite(f.values)):
        raise ValidationError("input has a non-finite sample", invariant="finite-input")
    # |f|^2 may overflow: the fraction is then 0 (inf only at the centre)
    # or NaN, which the test below refuses, so no warning is raised
    with np.errstate(over="ignore", invalid="ignore"):
        frac = np.max(f.outer_band_fraction())
    if not frac < 1e-10:
        raise ValidationError(
            f"input carries {frac:.2e} of its mass in the outer 25% of the "
            "dual grid (threshold 1e-10)",
            invariant="band-limited-input")


def _map(spec: PerturbationSpec, data: SpectralData, params: SolverParams | None,
         direction: float) -> SpectralData:
    """Free solution with ``data`` at -direction T, propagated to
    direction T, read off as asymptotic data (T from :func:`window_span`)."""
    params = params or SolverParams()
    check_band_limited(data)
    if spec.is_flat:
        return extract_asymptotic(poisson_free(data, 0.0), spec)
    span = window_span(spec, params)
    u = poisson_free(data, -direction * span)
    return extract_asymptotic(propagate_window(spec, u, direction * span, params), spec)


def scattering_map(spec: PerturbationSpec, f_minus: SpectralData,
                   params: SolverParams | None = None) -> SpectralData:
    """The scattering map: incoming asymptotic data to outgoing data.

    Realized through the final-state problem: build the free solution with
    data f_minus before the window, propagate across the window, read off
    outgoing data.  The flat operator returns its input to machine
    precision (pure multiplier path).

    ``f_minus`` may be a stack of k inputs along one leading batch axis: one
    march maps them all, and slice j of the result is the map of input j.
    The band-limit and leak checks raise when any input fails them."""
    return _map(spec, f_minus, params, 1.0)


def adjoint_scattering_map(spec: PerturbationSpec, g_plus: SpectralData,
                           params: SolverParams | None = None) -> SpectralData:
    """Backward propagation of the adjoint equation: outgoing adjoint data
    g_plus to incoming data g_minus.  Uses the plain-measure adjoint of the
    discretized spatial operator and the conjugate potential.  ``g_plus``
    may be a stack, as for :func:`scattering_map`."""
    return _map(spec, g_plus, params, -1.0)


# ---------------------------------------------------------------------------
# coherent packets and moments


def coherent_data(grid: Grid, Z0, frak0, h: float) -> SpectralData:
    """Gaussian packet f(Z) = (pi h)^{-n/4} e^{-|Z-Z0|^2/2h} e^{i frak0.(Z-Z0)},
    unit continuum norm."""
    h = in_range("h", h, 0.0)
    Z0 = np.atleast_1d(np.asarray(Z0, dtype=float))
    frak0 = np.atleast_1d(np.asarray(frak0, dtype=float))
    for name, vector in (("Z0", Z0), ("frak0", frak0)):
        if vector.size != grid.n or not np.all(np.isfinite(vector)):
            raise InvalidArgument(name, f"must be {grid.n} finite numbers, not {vector!r}")
    if np.any(np.abs(Z0) + 6.0 * np.sqrt(h) > grid.z_max):
        raise PacketClipped("6 sqrt(h) half-width leaves the dual grid")

    mesh = grid.mesh_Z()
    quad = sum((m - z0) ** 2 for m, z0 in zip(mesh, Z0))
    phase = sum(fr * (m - z0) for m, fr, z0 in zip(mesh, frak0, Z0))
    vals = (np.pi * h) ** (-grid.n / 4.0) * np.exp(-quad / (2.0 * h) + 1j * phase)
    return SpectralData(grid=grid, values=vals)


def packet_moments(f: SpectralData):
    """(Zbar, frakbar): centre of mass in Z and mean conjugate frequency.

    frakbar = Re < f, -i grad f > / ||f||^2, which by Parseval is the mean
    of the conjugate frequency k_j = 2 pi fftfreq(N, dZ) under |F|^2,
    F = fftn(ifftshift(f)): one transform, for one packet, not a stack.
    """
    _single(f)
    w = np.abs(f.values) ** 2
    mass = float(np.sum(w)) * f.grid.dZ**f.grid.n
    if mass <= 0.0:
        raise ZeroMass("packet has zero mass")
    mesh = f.grid.mesh_Z()
    zbar = np.array([float(np.sum(m * w)) * f.grid.dZ**f.grid.n / mass for m in mesh])
    power = np.abs(np.fft.fftn(np.fft.ifftshift(f.values))) ** 2
    k = 2.0 * np.pi * np.fft.fftfreq(f.grid.N, d=f.grid.dZ)
    frakbar = np.array([float(np.sum(kj * power) / np.sum(power))
                        for kj in np.meshgrid(*[k] * f.grid.n, indexing="ij")])
    return zbar, frakbar


# ---------------------------------------------------------------------------
# field persistence


_CONVENTION_TAG = "ft=int e^{-izZ} u dz; inv=(2pi)^{-n}; data f=e^{+it|Z|^2} FT(u)"


def _single(obj):
    """Raise ValidationError when ``obj`` holds a stack of inputs."""
    if obj.values.ndim != obj.grid.n:
        raise ValidationError(f"expected one field, got a stack of {len(obj.values)}",
                              invariant="single-field")


def dump_field(path, obj):
    """Write one WaveField or SpectralData, not a stack: one JSON header
    line, then raw little-endian interleaved (real, imag) float64 in
    row-major order."""
    _single(obj)
    header = {
        "n": obj.grid.n,
        "N": obj.grid.N,
        "L": obj.grid.L,
        "time": getattr(obj, "time", None),
        "kind": "physical" if isinstance(obj, WaveField) else "spectral",
        "convention": _CONVENTION_TAG,
    }
    flat = np.ascontiguousarray(obj.values).ravel()
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(inter.tobytes())


def load_field(path):
    """Inverse of :func:`dump_field`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    grid = Grid(n=header["n"], N=header["N"], L=header["L"])
    vals = (raw[0::2] + 1j * raw[1::2]).reshape(grid.shape())
    if header["kind"] == "physical":
        return WaveField(grid=grid, values=vals, time=header["time"])
    return SpectralData(grid=grid, values=vals)


def export_spectrum_csv(path, f: SpectralData):
    """CSV of |f(Z)|^2 and arg f(Z) against the dual grid, one row per point
    in row-major order; the coordinate columns are Z (n = 1) or Z1, Z2.
    ``f`` is one input, not a stack."""
    _single(f)
    names = ["Z"] if f.grid.n == 1 else ["Z1", "Z2"]
    coords = [m.ravel() for m in f.grid.mesh_Z()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + ",abs2,arg\n")
        for *z, val in zip(*coords, f.values.ravel()):
            fh.write(",".join(f"{v:.17g}" for v in (*z, abs(val)**2, np.angle(val))) + "\n")
