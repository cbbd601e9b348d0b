"""The operator model: compactly supported metric deviation and potential.

The inverse metric is assembled as

    g^{jk}(z, t) = delta^{jk} + sum_b eps_b * w_b(z, t) * s_b^{jk}

where each window w_b is a product of radial mollifiers in z and t with
exact compact support, and s_b is a fixed symmetric pattern matrix.  The
potential is a sum of windowed complex amplitudes.  Everything evaluates to
the flat values bit-exactly outside the declared supports, which is what
makes the free/perturbed propagator split exact.

One loop over the bumps and one over the potential terms serve every
evaluator of g and V: a field evaluator reads them at an (m, n) array of grid
points, and a pointwise evaluator is the m = 1 row of the same loop.  The
points may come as :class:`FieldPoints`, which keeps each term's spatial
window once evaluated, so a caller that evaluates the fields at the same
points at many times pays for the spatial windows once.  The field
evaluators also take a column (M, 1) of times and return a leading M axis,
one slice per time, bitwise the slice a single time gives.  The
Hamilton vector field of the principal symbol has its own loop over the
bumps, on phase-space states: it contracts each pattern with zeta and
never forms g or its derivatives.  One state takes a row path in Python
floats, bitwise the array path on that state, as numpy's per-call cost
there exceeds the arithmetic (see :meth:`PerturbationSpec.hamilton_field`):
the state's coordinates and each bump's centres, radii, squared radii and
amplitude are Python floats there, read once per state and once per spec.
Besides reading the state and building the result, only the exponentials
and the contraction zeta @ P stay numpy calls, as their bits are numpy's
own.  The principal symbol and zeta.g.zeta are read off that field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, mul, neg, sub

import numpy as np

from .errors import InvalidArgument, NotPositiveDefinite, in_range, not_finite
from .phasespace import PhasePoint

# Relative inflation of every term's support radii wherever a support is
# tested: rounding may then only add points, at which the fields are flat.
SUPPORT_MARGIN = 1e-9
_FLOOR = 1e-100     # the floor of 1 - r^2 in the mollifier, see _mollifier
_TINY = 5e-324      # the least subnormal: the floor of the mollifier slope's denominator
# the open bound of the radii: the mollifier's slope squares each, which stays finite below it
_RADIUS_BOUND = math.nextafter(math.sqrt(np.finfo(float).max), math.inf)


def _mollifier(d, radius, slope=True):
    """The mollifier w = exp(1 - 1/(1 - r^2)), r = d / radius, which is 1
    at d = 0 and vanishes with all its derivatives for |r| >= 1, and k with
    dw/dd = k * d, or None when ``slope`` is False.

    One exp serves both, for scalars and arrays alike.  For |d| >= radius
    the factor 1 - r^2 <= 0 is raised to a floor far below any value it
    takes inside the support (at least 2^-53), so the exp underflows and
    both results are exactly 0 (k is -0.0).  The denominator of k is
    raised to the least subnormal, which changes it only where it
    underflowed to 0 (a radius below about 1e-61 at the floor), so there
    too k is -0.0 where w is 0 and never 0/0.
    """
    r = d / radius
    s = np.maximum(1.0 - r * r, _FLOOR)
    w = np.exp(1.0 - 1.0 / s)
    return w, (w * -2.0 / np.maximum(radius**2 * s**2, _TINY) if slope else None)


class FieldPoints:
    """An (m, n) array of spatial points, ``array``, with each term's spatial
    window at them, evaluated on first use and then kept: the offsets
    d = z - center_z and the mollifier pair (wz, kz) of |d|.  A field
    evaluator given FieldPoints reads the kept windows and multiplies in the
    time factors only, with the same arithmetic as at the bare array, so its
    result is bitwise the same."""

    def __init__(self, points):
        self.array = np.asarray(points, dtype=float)
        self._windows = {}

    def window(self, term):
        """(d, wz, kz) of ``term`` at these points."""
        # the entry holds the term, so its id cannot pass to another object
        hit = self._windows.get(id(term))
        if hit is None:
            d = self.array - term.center_z
            wz, kz = _mollifier(np.sqrt(np.add.reduce(d * d, axis=-1)), term.radius_z)
            hit = self._windows[id(term)] = (term, d, wz, kz)
        return hit[1:]


def _at(points):
    """``points`` as FieldPoints: given ones as they are, an array wrapped."""
    return points if isinstance(points, FieldPoints) else FieldPoints(points)


def _coerce_window(term, number):
    """Store a term's amplitude as a ``number``, its centres and radii as
    floats, and check that they are finite and the radii positive, below
    ``_RADIUS_BOUND``; an InvalidArgument names the entry."""
    object.__setattr__(term, "amplitude", number(term.amplitude))
    object.__setattr__(term, "center_z", np.atleast_1d(np.asarray(term.center_z, dtype=float)))
    if not (np.isfinite(term.amplitude) and np.all(np.isfinite(term.center_z))):
        raise not_finite(amplitude=term.amplitude, center_z=term.center_z)
    object.__setattr__(term, "center_t", in_range("center_t", term.center_t))
    for name in ("radius_z", "radius_t"):
        object.__setattr__(term, name, in_range(name, getattr(term, name), 0.0, _RADIUS_BOUND))


@dataclass(frozen=True)
class MetricBump:
    """One compactly supported deviation of the inverse metric."""

    amplitude: float
    center_z: np.ndarray
    center_t: float
    radius_z: float
    radius_t: float
    pattern: np.ndarray  # symmetric n x n

    def __post_init__(self):
        _coerce_window(self, float)
        pat = np.asarray(self.pattern, dtype=float)
        if pat.ndim == 0:
            pat = pat.reshape(1, 1)
        object.__setattr__(self, "pattern", pat)
        n = self.center_z.size
        if not (pat.shape == (n, n) and np.all(np.isfinite(pat)) and np.allclose(pat, pat.T)):
            raise InvalidArgument("pattern", f"must be finite, symmetric and {n} x {n}")


@dataclass(frozen=True)
class PotentialTerm:
    """One windowed complex potential term."""

    amplitude: complex
    center_z: np.ndarray
    center_t: float
    radius_z: float
    radius_t: float

    def __post_init__(self):
        _coerce_window(self, complex)


@dataclass(frozen=True)
class PerturbationSpec:
    """Validated collection of metric bumps and potential terms.

    Validation checks positive definiteness of the assembled inverse metric
    on a lattice over the support box and raises NotPositiveDefinite on
    failure; per-call evaluations never re-validate.
    """

    n: int
    bumps: tuple = ()
    potential_terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "bumps", tuple(self.bumps))
        object.__setattr__(self, "potential_terms", tuple(self.potential_terms))
        for field, terms in (("bumps", self.bumps), ("potential_terms", self.potential_terms)):
            if any(term.center_z.size != self.n for term in terms):
                raise InvalidArgument(field, f"must have centres of n = {self.n} entries")
        self._validate_positive_definite()
        # each bump's window as the row path of hamilton_field reads it
        object.__setattr__(self, "_row_bumps", tuple(
            (b.center_t, b.radius_t, b.radius_t**2, b.center_z.tolist(), b.radius_z,
             b.radius_z**2, b.amplitude, b.pattern) for b in self.bumps))

    # -- support geometry ------------------------------------------------

    @property
    def is_flat(self) -> bool:
        return not self.bumps and not self.potential_terms

    @property
    def metric_is_flat(self) -> bool:
        return not self.bumps

    def terms(self):
        """All support-carrying terms (bumps then potentials)."""
        return list(self.bumps) + list(self.potential_terms)

    def time_window(self):
        """(t_min, t_max) covering every term's time support, or None."""
        ts = self.terms()
        if not ts:
            return None
        lo = min(t.center_t - t.radius_t for t in ts)
        hi = max(t.center_t + t.radius_t for t in ts)
        return (lo, hi)

    def spatial_extent(self) -> float:
        """max over terms of |center_z| + radius_z (0 if flat)."""
        ts = self.terms()
        if not ts:
            return 0.0
        return max(float(np.linalg.norm(t.center_z)) + t.radius_z for t in ts)

    def contains(self, z, t) -> bool:
        """True if (z, t) lies inside any term support."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        for term in self.terms():
            if (abs(t - term.center_t) < term.radius_t
                    and np.linalg.norm(z - term.center_z) < term.radius_z):
                return True
        return False

    def time_active(self, t) -> bool:
        """True if any term's time window contains t."""
        return any(abs(t - term.center_t) < term.radius_t
                   for term in self.terms())

    # -- evaluation: one loop over the bumps, one over the potential terms --

    def _metric(self, pts, t, dz=False, dt=False):
        """(g, dgdz, dgdt) at FieldPoints, at one time t or at a column
        (M, 1) of times: g^{jk} is (m, n, n), dgdz[m, j, k, l] = d g^{jk} /
        d z_l and dgdt = d g^{jk} / d t, each derivative None unless asked
        for, and a column of times puts a leading M axis on all three.  A
        bump inactive at every time is skipped; one inactive at some of
        them adds exact zeros there."""
        m, n = pts.array.shape
        lead = np.shape(t)[:-1] + (m,)
        g = np.empty(lead + (n, n))
        g[...] = np.eye(n)
        dgdz = np.zeros(lead + (n, n, n)) if dz else None
        dgdt = np.zeros(lead + (n, n)) if dt else None
        for b in self.bumps:
            wt, kt = _mollifier(t - b.center_t, b.radius_t, slope=dt)
            if not np.count_nonzero(wt):
                continue
            d, wz, kz = pts.window(b)
            g += (b.amplitude * wt * wz)[..., None, None] * b.pattern
            if dz:
                dwz = kz[:, None] * d
                dgdz += ((b.amplitude * wt)[..., None, None, None]
                         * (b.pattern[:, :, None] * dwz[:, None, None, :]))
            if dt:
                dwt = kt * (t - b.center_t)
                dgdt += (b.amplitude * dwt * wz)[..., None, None] * b.pattern
        return g, dgdz, dgdt

    def hamilton_field(self, t, x):
        """Hamilton vector field [2 g zeta, 1, -d_z p, -d_t p] of the principal
        symbol p = tau + zeta.g.zeta at a flat state x = [z, t, zeta, tau],
        or at each row of an (m, 2n + 2) array of states.

        The time is read from the state; ``t``, an integrator's clock, is not
        used.  Each bump contracts its symmetric pattern with zeta once,
        s = P zeta and q = zeta.s, and adds eps w s to g zeta, eps q d_z w to
        d_z p and eps q d_t w to d_t p.  Outside every support the field is
        exactly the flat one, (2 zeta, 1, 0, 0).

        A stack takes the array path.  One flat state (n < 8) takes a row
        path in Python floats, which saves the 25 or so numpy dispatches on
        0-d and (n,) arrays that dominate a call, and has the bits of the
        array path on that state.  Every scalar there is a Python float:
        the state, read once with ``tolist``, and each bump's centres, radii,
        squared radii and amplitude, read once per spec.  Python floats and
        numpy's float64 give the same IEEE sums, products, quotients and
        square roots.  The row path keeps np.exp (math.exp rounds apart on
        5 % of arguments), zeta @ P (scalar products round apart where BLAS
        fuses multiply-adds) and s**2, libm's pow (s * s rounds apart on
        0.1 %), and sums left to right, as np.add.reduce sums fewer than 8
        terms.  A stack squares s as s * s, so its row differs from the
        state alone in the last bit on about 0.1 % of states in a support.
        """
        if x.ndim == 1 and self.n < 8:
            return self._hamilton_row(x)
        return self._hamilton_array(x)

    def _hamilton_array(self, x):
        """:meth:`hamilton_field` in numpy arrays, at a stack or at one state."""
        n = self.n
        z, tz, zeta = x[..., :n], x[..., n], x[..., n + 1:2 * n + 1]
        gz, dz, dt = zeta, 0.0, 0.0
        for b in self.bumps:
            dtc = tz - b.center_t
            wt, kt = _mollifier(dtc, b.radius_t)
            if not np.count_nonzero(wt):
                continue
            d = z - b.center_z
            wz, kz = _mollifier(np.sqrt(np.add.reduce(d * d, axis=-1)), b.radius_z)
            s = zeta @ b.pattern
            q = np.add.reduce(zeta * s, axis=-1)
            gz = gz + (b.amplitude * wt * wz)[..., None] * s
            dz = dz + (b.amplitude * wt * kz * q)[..., None] * d
            dt = dt + (b.amplitude * kt * dtc) * wz * q
        f = np.empty_like(x)
        f[..., :n] = 2.0 * gz
        f[..., n] = 1.0
        f[..., n + 1:2 * n + 1] = -dz
        f[..., 2 * n + 1] = -dt
        return f

    def _hamilton_row(self, x):
        """:meth:`hamilton_field` at one flat state x, in Python floats: per
        bump the time mollifier, skipped where it is 0, then the spatial
        one, each :func:`_mollifier`'s arithmetic written out.  The vector
        operations map operator functions over lists, whose products and
        sums are the array path's, in its order, without a comprehension's
        frame; ``den or _TINY`` is np.maximum(den, _TINY) where den is a
        square or NaN."""
        n = self.n
        row = x.tolist()
        z, tz, zeta = row[:n], row[n], row[n + 1:2 * n + 1]
        zeta_array = x[n + 1:2 * n + 1]
        gz, dz, dt = zeta, [0.0] * n, 0.0
        for ct, rt, rt2, cz, rz, rz2, amplitude, pattern in self._row_bumps:
            dtc = tz - ct
            r = dtc / rt
            s = 1.0 - r * r
            if s <= _FLOOR:     # not where s is NaN, as in np.maximum
                s = _FLOOR
            wt = float(np.exp(1.0 - 1.0 / s))
            if wt == 0.0:
                continue
            kt = wt * -2.0 / (rt2 * s**2 or _TINY)
            d = list(map(sub, z, cz))
            r = math.sqrt(reduce(add, map(mul, d, d), 0.0)) / rz
            s = 1.0 - r * r
            if s <= _FLOOR:
                s = _FLOOR
            wz = float(np.exp(1.0 - 1.0 / s))
            kz = wz * -2.0 / (rz2 * s**2 or _TINY)
            p = (zeta_array @ pattern).tolist()
            q = reduce(add, map(mul, zeta, p), 0.0)
            gw, dw = amplitude * wt * wz, amplitude * wt * kz * q
            gz = list(map(add, gz, map(mul, p, repeat(gw))))
            dz = list(map(add, dz, map(mul, d, repeat(dw))))
            dt = dt + (amplitude * kt * dtc) * wz * q
        return np.array([*map(mul, gz, repeat(2.0)), 1.0, *map(neg, dz), -dt])

    def kinetic(self, x):
        """zeta.g.zeta at a flat state x, or at each row of an (m, 2n + 2)
        array of states: g zeta is half the z-rate of :meth:`hamilton_field`."""
        n = self.n
        f = self.hamilton_field(None, x)
        return 0.5 * np.add.reduce(x[..., n + 1:2 * n + 1] * f[..., :n], axis=-1)

    def _potential(self, pts, t):
        """V at FieldPoints, at one time t, at the (m,) times t of the
        points or at a column (M, 1) of times; complex (m,), or (M, m) for
        a column."""
        v = np.zeros(np.shape(t)[:-1] + pts.array.shape[:1], dtype=complex)
        for p in self.potential_terms:
            wt, _ = _mollifier(t - p.center_t, p.radius_t, slope=False)
            if not np.count_nonzero(wt):
                continue
            _, wz, _ = pts.window(p)
            v += (p.amplitude * wt) * wz
        return v

    def inverse_metric(self, z, t) -> np.ndarray:
        """g^{jk} at one point z; the m = 1 row of the field evaluation."""
        return self._metric(FieldPoints(np.reshape(z, (1, self.n))), t)[0][0]

    def inverse_metric_jet(self, z, t):
        """(g, dgdz, dgdt) at one point z, as :meth:`_metric` gives them."""
        g, dgdz, dgdt = self._metric(FieldPoints(np.reshape(z, (1, self.n))), t,
                                     dz=True, dt=True)
        return g[0], dgdz[0], dgdt[0]

    def potential(self, z, t) -> complex:
        return complex(self._potential(FieldPoints(np.reshape(z, (1, self.n))), t)[0])

    def inverse_metric_field(self, points, t) -> np.ndarray:
        """g^{jk} at an (m, n) array of spatial points or at FieldPoints;
        returns (m, n, n) at one time, (M, m, n, n) at a column (M, 1) of
        times."""
        return self._metric(_at(points), t)[0]

    def dt_log_det_metric_field(self, points, t) -> np.ndarray:
        """d/dt log det g at an (m, n) array of points or at FieldPoints;
        returns (m,) at one time, (M, m) at a column (M, 1) of times.

        det g = 1 / det(g_inv), so d/dt log det g = -tr(g_inv^{-1} d_t g_inv).
        For n = 2 the trace is taken in closed form, g_inv^{-1} = adj(g_inv) /
        det(g_inv), as _Footprint.fields takes d_j log sqrt(det g).  n >= 3,
        which no Grid has, is an InvalidArgument naming ``n``.
        """
        if self.n > 2:
            raise InvalidArgument("n", f"= {self.n}: d/dt log det g is taken for n = 1 "
                                       f"and 2, the dimensions of a Grid")
        pts = _at(points)
        if self.metric_is_flat:
            return np.zeros(np.shape(t)[:-1] + pts.array.shape[:1])
        ginv, _, dt_ginv = self._metric(pts, t, dt=True)
        if self.n == 1:
            return -dt_ginv[..., 0, 0] / ginv[..., 0, 0]
        g00, g01, g10, g11 = ginv[..., 0, 0], ginv[..., 0, 1], ginv[..., 1, 0], ginv[..., 1, 1]
        det = g00 * g11 - g01 * g10
        return -(g11 * dt_ginv[..., 0, 0] - g01 * dt_ginv[..., 1, 0]
                 - g10 * dt_ginv[..., 0, 1] + g00 * dt_ginv[..., 1, 1]) / det

    def inverse_metric_jet_field(self, points, t):
        """(g, dgdz) at an (m, n) array of points or at FieldPoints;
        dgdz[m, j, k, l] is the z_l-derivative of g^{jk}.  A column (M, 1)
        of times puts a leading M axis on both.  Vectorized analytic
        evaluation."""
        g, dgdz, _ = self._metric(_at(points), t, dz=True)
        return g, dgdz

    def potential_field(self, points, t) -> np.ndarray:
        """V at an (m, n) array of spatial points or at FieldPoints, at one
        time or at (m,) times, complex (m,), or at a column (M, 1) of times,
        complex (M, m)."""
        return self._potential(_at(points), t)

    # -- validation --------------------------------------------------------

    def _validate_positive_definite(self):
        """Refuse an inverse metric that is not finite and positive
        definite: first each bump alone, exactly, then the assembled metric
        on a lattice over the support box.  A bump alone gives
        g = 1 + eps w P with 0 <= w <= 1, whose eigenvalues 1 + eps w lambda(P)
        are extreme at w = 0 or at its spacetime centre, where w = 1, a point
        that no lattice need meet."""
        for i, b in enumerate(self.bumps):
            with np.errstate(over="ignore", invalid="ignore"):
                least, most = _eigenvalue_bounds(np.eye(self.n) + b.amplitude * b.pattern)
            if not (least > 0.0 and most < np.inf):
                raise NotPositiveDefinite(
                    f"bumps[{i}] alone gives the inverse metric eigenvalues in "
                    f"[{least:.3e}, {most:.3e}], not all finite and positive, at its centre",
                    invariant="NotPositiveDefinite")
        if not self.bumps:
            return
        per_axis = 64 if self.n <= 2 else 16
        lo = np.min([b.center_z - b.radius_z for b in self.bumps], axis=0)
        hi = np.max([b.center_z + b.radius_z for b in self.bumps], axis=0)
        t_lo = min(b.center_t - b.radius_t for b in self.bumps)
        t_hi = max(b.center_t + b.radius_t for b in self.bumps)
        axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = FieldPoints(np.stack([m.ravel() for m in mesh], axis=-1))
        for t in np.linspace(t_lo, t_hi, 32):
            with np.errstate(over="ignore", invalid="ignore"):
                least, most = _eigenvalue_bounds(self.inverse_metric_field(pts, t))
                least, most = np.min(least), np.max(most)
            # false for a NaN, which an overflowed metric gives
            if not (least > 0.0 and most < np.inf):
                raise NotPositiveDefinite(
                    f"inverse metric has eigenvalues in [{least:.3e}, {most:.3e}], not all "
                    f"finite and positive, at t={t:.4g}", invariant="NotPositiveDefinite")


def _eigenvalue_bounds(g):
    """The least and the greatest eigenvalue of each symmetric matrix of a
    stack g (..., n, n), read off its lower triangle as eigvalsh reads it.
    For n <= 2 they are taken in closed form, a tenth of eigvalsh's cost:
    g itself for n = 1, and (a + c)/2 -+ hypot((a - c)/2, b) for n = 2,
    with a and c halved first so that no sum overflows where the
    eigenvalues do not.  A NaN entry gives a NaN bound, and so does an
    eigvalsh that does not converge (for n >= 3 it may not at a NaN)."""
    n = g.shape[-1]
    if n == 1:
        return g[..., 0, 0], g[..., 0, 0]
    if n == 2:
        a, b, c = 0.5 * g[..., 0, 0], g[..., 1, 0], 0.5 * g[..., 1, 1]
        mid, radius = a + c, np.hypot(a - c, b)
        return mid - radius, mid + radius
    try:
        eigs = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError:   # no convergence, as at a NaN entry
        nan = np.full(g.shape[:-2], np.nan)
        return nan, nan
    return eigs[..., 0], eigs[..., -1]


def flat_spec(n: int) -> PerturbationSpec:
    """The unperturbed operator in dimension n."""
    return PerturbationSpec(n=n)


@dataclass(frozen=True)
class SymbolJet:
    """Value and first derivatives of the principal symbol at a point."""

    p: float
    dp_dz: np.ndarray
    dp_dt: float
    dp_dzeta: np.ndarray
    dp_dtau: float = 1.0


def principal_symbol(spec: PerturbationSpec, p: PhasePoint) -> float:
    """tau + sum_jk g^{jk}(z, t) zeta_j zeta_k, read off
    :meth:`PerturbationSpec.hamilton_field`."""
    return float(p.tau + spec.kinetic(p.state()))


def symbol_jet(spec: PerturbationSpec, p: PhasePoint) -> SymbolJet:
    """Principal symbol and its gradient in all 2n + 2 coordinates, read off
    :meth:`PerturbationSpec.hamilton_field`."""
    n = p.n
    f = spec.hamilton_field(p.t, p.state())
    return SymbolJet(p=principal_symbol(spec, p), dp_dz=-f[n + 1:2 * n + 1],
                     dp_dt=float(-f[2 * n + 1]), dp_dzeta=f[:n])
