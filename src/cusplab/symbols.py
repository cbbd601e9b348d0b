"""The operator model: compactly supported metric deviation and potential.

The inverse metric is assembled as

    g^{jk}(z, t) = delta^{jk} + sum_b eps_b * w_b(z, t) * s_b^{jk}

where each window w_b is a product of radial mollifiers in z and t with
exact compact support, and s_b is a fixed symmetric pattern matrix.  The
potential is a sum of windowed complex amplitudes.  Everything evaluates to
the flat values bit-exactly outside the declared supports, which is what
makes the free/perturbed propagator split exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .phasespace import PhasePoint


def bump(r):
    """Smooth mollifier exp(1 - 1/(1 - r^2)) for |r| < 1, zero outside.

    Normalized to 1 at r = 0; all derivatives vanish at |r| = 1.
    Accepts scalars or arrays.
    """
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) < 1.0
    out = np.zeros_like(r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - r**2))
    out = np.where(inside, val, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def bump_derivative(r):
    """Analytic derivative of :func:`bump`; zero outside the support."""
    r = np.asarray(r, dtype=float)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - r**2)) * (-2.0 * r) / (1.0 - r**2) ** 2
    out = np.where(inside, val, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _window_scale(d, radius):
    """bump(d / radius) evaluated with exact support |d| < radius."""
    return bump(np.asarray(d, dtype=float) / radius)


def _window_scale_derivative(d, radius):
    """d/dd of bump(d / radius): -2 d / radius^2 / (1 - (d/radius)^2)^2 * bump."""
    d = np.asarray(d, dtype=float)
    r = d / radius
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        val = bump(r) * (-2.0 * d) / (radius**2 * (1.0 - r**2) ** 2)
    out = np.where(inside, val, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


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
        cz = np.atleast_1d(np.asarray(self.center_z, dtype=float))
        pat = np.asarray(self.pattern, dtype=float)
        if pat.ndim == 0:
            pat = pat.reshape(1, 1)
        object.__setattr__(self, "center_z", cz)
        object.__setattr__(self, "pattern", pat)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "center_t", float(self.center_t))
        object.__setattr__(self, "radius_z", float(self.radius_z))
        object.__setattr__(self, "radius_t", float(self.radius_t))
        if self.radius_z <= 0 or self.radius_t <= 0:
            raise ValueError("bump radii must be positive")
        if pat.shape != (cz.size, cz.size):
            raise ValueError("pattern must be n x n")
        if not np.allclose(pat, pat.T):
            raise ValueError("pattern must be symmetric")


@dataclass(frozen=True)
class PotentialTerm:
    """One windowed complex potential term."""

    amplitude: complex
    center_z: np.ndarray
    center_t: float
    radius_z: float
    radius_t: float

    def __post_init__(self):
        cz = np.atleast_1d(np.asarray(self.center_z, dtype=float))
        object.__setattr__(self, "center_z", cz)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "center_t", float(self.center_t))
        object.__setattr__(self, "radius_z", float(self.radius_z))
        object.__setattr__(self, "radius_t", float(self.radius_t))
        if self.radius_z <= 0 or self.radius_t <= 0:
            raise ValueError("potential radii must be positive")


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
        for b in self.bumps:
            if b.center_z.size != self.n:
                raise ValueError("bump dimension mismatch")
        for p in self.potential_terms:
            if p.center_z.size != self.n:
                raise ValueError("potential dimension mismatch")
        self._validate_positive_definite()

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

    def time_window(self, margin: float = 0.0):
        """(t_min, t_max) covering every term's time support, or None."""
        ts = self.terms()
        if not ts:
            return None
        lo = min(t.center_t - t.radius_t for t in ts)
        hi = max(t.center_t + t.radius_t for t in ts)
        return (lo - margin, hi + margin)

    def spatial_extent(self) -> float:
        """max over terms of |center_z| + radius_z (0 if flat)."""
        ts = self.terms()
        if not ts:
            return 0.0
        return max(float(np.linalg.norm(t.center_z)) + t.radius_z for t in ts)

    def contains(self, z, t, margin: float = 0.0) -> bool:
        """True if (z, t) lies inside any (inflated) term support."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        for term in self.terms():
            rz = term.radius_z * (1.0 + margin)
            rt = term.radius_t * (1.0 + margin)
            if (abs(t - term.center_t) < rt
                    and np.linalg.norm(z - term.center_z) < rz):
                return True
        return False

    def time_active(self, t, margin: float = 0.0) -> bool:
        """True if any term's time window contains t."""
        return any(abs(t - term.center_t) < term.radius_t * (1.0 + margin)
                   for term in self.terms())

    # -- pointwise evaluation ---------------------------------------------

    def inverse_metric(self, z, t) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        g = np.eye(self.n)
        for b in self.bumps:
            wt = _window_scale(t - b.center_t, b.radius_t)
            if wt == 0.0:
                continue
            wz = _window_scale(np.linalg.norm(z - b.center_z), b.radius_z)
            if wz == 0.0:
                continue
            g = g + b.amplitude * wz * wt * b.pattern
        return g

    def inverse_metric_jet(self, z, t):
        """(g_inv, dgdz, dgdt): analytic derivatives of the inverse metric.

        dgdz[j, k, l] = d g^{jk} / d z_l.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        n = self.n
        g = np.eye(n)
        dgdz = np.zeros((n, n, n))
        dgdt = np.zeros((n, n))
        for b in self.bumps:
            wt = _window_scale(t - b.center_t, b.radius_t)
            dwt = _window_scale_derivative(t - b.center_t, b.radius_t)
            d = z - b.center_z
            rho = np.linalg.norm(d)
            wz = _window_scale(rho, b.radius_z)
            if wt == 0.0 and dwt == 0.0:
                continue
            if wz == 0.0:
                continue
            g = g + b.amplitude * wz * wt * b.pattern
            # d/dz_l bump(|d|/R) = -2 d_l / R^2 / (1 - (|d|/R)^2)^2 * bump
            r = rho / b.radius_z
            if r < 1.0:
                dwz = bump(r) * (-2.0 * d) / (b.radius_z**2 * (1.0 - r**2) ** 2)
            else:
                dwz = np.zeros(n)
            dgdz += b.amplitude * wt * np.einsum("jk,l->jkl", b.pattern, dwz)
            dgdt += b.amplitude * wz * dwt * b.pattern
        return g, dgdz, dgdt

    def potential(self, z, t) -> complex:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        v = 0.0 + 0.0j
        for p in self.potential_terms:
            wt = _window_scale(t - p.center_t, p.radius_t)
            if wt == 0.0:
                continue
            wz = _window_scale(np.linalg.norm(z - p.center_z), p.radius_z)
            if wz == 0.0:
                continue
            v += p.amplitude * wz * wt
        return v

    # -- vectorized field evaluation (used by the grid propagators) -------

    def inverse_metric_field(self, points: np.ndarray, t: float) -> np.ndarray:
        """g^{jk} at an (m, n) array of spatial points; returns (m, n, n)."""
        pts = np.asarray(points, dtype=float)
        m = pts.shape[0]
        g = np.broadcast_to(np.eye(self.n), (m, self.n, self.n)).copy()
        for b in self.bumps:
            wt = _window_scale(t - b.center_t, b.radius_t)
            if wt == 0.0:
                continue
            rho = np.linalg.norm(pts - b.center_z, axis=-1)
            wz = _window_scale(rho, b.radius_z)
            g += (b.amplitude * wt) * wz[:, None, None] * b.pattern
        return g

    def dt_log_det_metric_field(self, points: np.ndarray, t: float) -> np.ndarray:
        """d/dt log det g at an (m, n) array of points.

        det g = 1 / det(g_inv), so d/dt log det g = -tr(g_inv^{-1} d_t g_inv).
        """
        pts = np.asarray(points, dtype=float)
        m = pts.shape[0]
        if self.metric_is_flat:
            return np.zeros(m)
        ginv = self.inverse_metric_field(pts, t)
        dt_ginv = np.zeros_like(ginv)
        for b in self.bumps:
            dwt = _window_scale_derivative(t - b.center_t, b.radius_t)
            if dwt == 0.0:
                continue
            rho = np.linalg.norm(pts - b.center_z, axis=-1)
            wz = _window_scale(rho, b.radius_z)
            dt_ginv += (b.amplitude * dwt) * wz[:, None, None] * b.pattern
        sol = np.linalg.solve(ginv, dt_ginv)
        return -np.trace(sol, axis1=-2, axis2=-1)

    def inverse_metric_jet_field(self, points: np.ndarray, t: float):
        """(g, dgdz) at an (m, n) array of points; dgdz[m, j, k, l] is the
        z_l-derivative of g^{jk}.  Vectorized analytic evaluation."""
        pts = np.asarray(points, dtype=float)
        m = pts.shape[0]
        g = np.broadcast_to(np.eye(self.n), (m, self.n, self.n)).copy()
        dgdz = np.zeros((m, self.n, self.n, self.n))
        for b in self.bumps:
            wt = _window_scale(t - b.center_t, b.radius_t)
            if wt == 0.0:
                continue
            d = pts - b.center_z
            rho = np.linalg.norm(d, axis=-1)
            r = rho / b.radius_z
            wz = bump(r)
            g += (b.amplitude * wt) * wz[:, None, None] * b.pattern
            inside = r < 1.0
            dwz = np.zeros_like(d)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                factor = np.where(inside,
                                  wz * (-2.0) / (b.radius_z**2 * (1.0 - r**2) ** 2),
                                  0.0)
            dwz = factor[:, None] * d
            dgdz += (b.amplitude * wt) * np.einsum("jk,ml->mjkl", b.pattern, dwz)
        return g, dgdz

    def potential_field(self, points: np.ndarray, t: float) -> np.ndarray:
        """V at an (m, n) array of spatial points; returns complex (m,)."""
        pts = np.asarray(points, dtype=float)
        v = np.zeros(pts.shape[0], dtype=complex)
        for p in self.potential_terms:
            wt = _window_scale(t - p.center_t, p.radius_t)
            if wt == 0.0:
                continue
            rho = np.linalg.norm(pts - p.center_z, axis=-1)
            v += (p.amplitude * wt) * _window_scale(rho, p.radius_z)
        return v

    # -- validation --------------------------------------------------------

    def _validate_positive_definite(self):
        if not self.bumps:
            return
        per_axis = 64 if self.n <= 2 else 16
        lo = np.array([min(b.center_z[i] - b.radius_z for b in self.bumps)
                       for i in range(self.n)])
        hi = np.array([max(b.center_z[i] + b.radius_z for b in self.bumps)
                       for i in range(self.n)])
        t_lo = min(b.center_t - b.radius_t for b in self.bumps)
        t_hi = max(b.center_t + b.radius_t for b in self.bumps)
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        for t in np.linspace(t_lo, t_hi, 32):
            g = self.inverse_metric_field(pts, t)
            if self.n == 1:
                min_eig = float(np.min(g))
            else:
                min_eig = float(np.min(np.linalg.eigvalsh(g)))
            if min_eig <= 0.0:
                raise NotPositiveDefinite(
                    f"inverse metric has eigenvalue {min_eig:.3e} <= 0 at t={t:.4g}")


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
    """tau + sum_jk g^{jk}(z, t) zeta_j zeta_k."""
    g = spec.inverse_metric(p.z, p.t)
    return float(p.tau + p.zeta @ g @ p.zeta)


def symbol_jet(spec: PerturbationSpec, p: PhasePoint) -> SymbolJet:
    """Principal symbol and its gradient in all 2n + 2 coordinates."""
    g, dgdz, dgdt = spec.inverse_metric_jet(p.z, p.t)
    value = float(p.tau + p.zeta @ g @ p.zeta)
    dp_dz = np.einsum("jkl,j,k->l", dgdz, p.zeta, p.zeta)
    dp_dt = float(p.zeta @ dgdt @ p.zeta)
    dp_dzeta = 2.0 * g @ p.zeta
    return SymbolJet(p=value, dp_dz=dp_dz, dp_dt=dp_dt, dp_dzeta=dp_dzeta)
