"""Phase-space coordinate systems and their exact transformations.

Three coordinate systems appear throughout:

* bicharacteristic states (z, t, zeta, tau) on T*R^{n+1},
* asymptotic data (Z, frak) labelling a bicharacteristic by its behaviour
  at large |t|: Z is the limiting spatial frequency and frak = 2*t*zeta - z
  is the conserved Galilean invariant,
* the boundary chart (x, y, xi, eta) near |Z| = infinity, writing the
  covector frak . dZ in the frame {dx/x^3, dy/x} of a dominant-axis chart
  with x = 1/|Z| and angular coordinates y.

All transformations here are exact (closed-form linear algebra); nothing is
truncated to leading order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicViolation,
    ChartInvalid,
    InsidePerturbation,
    InvalidArgument,
    ZeroBasePoint,
    in_range,
    not_finite,
)

CHARACTERISTIC_TOL = 1e-9


def _vec(v) -> np.ndarray:
    a = np.array(v, dtype=float, copy=True)
    if a.ndim == 0:
        a = a.reshape(1)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PhasePoint:
    """A point (z, t, zeta, tau) of the uncompactified phase space."""

    z: np.ndarray
    t: float
    zeta: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "z", _vec(self.z))
        object.__setattr__(self, "zeta", _vec(self.zeta))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "tau", float(self.tau))
        if self.z.shape != self.zeta.shape:
            raise InvalidArgument("zeta", "must have the length of z")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.zeta))
                and np.isfinite(self.t) and np.isfinite(self.tau)):
            raise not_finite(z=self.z, t=self.t, zeta=self.zeta, tau=self.tau)

    @property
    def n(self) -> int:
        return self.z.size

    def state(self) -> np.ndarray:
        """Flat state vector [z, t, zeta, tau] used by integrators."""
        return np.concatenate([self.z, [self.t], self.zeta, [self.tau]])

    @staticmethod
    def from_state(x: np.ndarray) -> "PhasePoint":
        n = (x.size - 2) // 2
        return PhasePoint(z=x[:n], t=x[n], zeta=x[n + 1:2 * n + 1], tau=x[2 * n + 1])


@dataclass(frozen=True)
class CuspData:
    """Asymptotic phase-space data (Z, frak) labelling a bicharacteristic."""

    Z: np.ndarray
    frak: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Z", _vec(self.Z))
        object.__setattr__(self, "frak", _vec(self.frak))
        if self.Z.shape != self.frak.shape:
            raise InvalidArgument("frak", "must have the length of Z")
        if not (np.all(np.isfinite(self.Z)) and np.all(np.isfinite(self.frak))):
            raise not_finite(Z=self.Z, frak=self.frak)

    @property
    def n(self) -> int:
        return self.Z.size

    def pair(self) -> np.ndarray:
        """Flat (Z, frak) vector of length 2n."""
        return np.concatenate([self.Z, self.frak])

    @staticmethod
    def from_pair(q: np.ndarray) -> "CuspData":
        n = q.size // 2
        return CuspData(Z=q[:n], frak=q[n:])


@dataclass(frozen=True)
class CuspBoundaryCoords:
    """Dominant-axis boundary chart of the compactified (Z, frak) space.

    x = 1/|Z| is the boundary defining function, y the angular coordinates
    (components of Z/|Z| with the dominant axis removed), and (xi, eta) the
    coefficients of frak . dZ in the frame {dx/x^3, dy/x}.
    """

    x: float
    y: np.ndarray
    xi: float
    eta: np.ndarray
    axis: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "y", _vec(self.y) if np.size(self.y) else np.zeros(0))
        object.__setattr__(self, "eta", _vec(self.eta) if np.size(self.eta) else np.zeros(0))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "axis", int(self.axis))
        object.__setattr__(self, "sign", int(self.sign))
        if self.x <= 0:
            raise ChartInvalid("boundary defining function x must be positive")
        if self.sign not in (-1, 1):
            raise ChartInvalid("sign must be +1 or -1")
        ysq = float(self.y @ self.y)
        if ysq >= 1.0:
            raise ChartInvalid("|y| must be < 1 on the chart")
        # dominant-axis validity: |Z_axis| >= max off-axis component / 2
        if self.y.size and np.sqrt(1.0 - ysq) < 0.5 * np.max(np.abs(self.y)):
            raise ChartInvalid("axis component does not dominate")


def free_flow(p: PhasePoint, dt: float) -> PhasePoint:
    """Closed-form free bicharacteristic flow: zdot = 2 zeta, tdot = 1."""
    dt = float(dt)
    return PhasePoint(z=p.z + 2.0 * dt * p.zeta, t=p.t + dt, zeta=p.zeta, tau=p.tau)


def galilean_invariant(p: PhasePoint) -> np.ndarray:
    """The vector 2*t*zeta - z, conserved along free bicharacteristics."""
    return 2.0 * p.t * p.zeta - p.z


def cusp_from_bichar(p: PhasePoint, spec=None, tol: float = CHARACTERISTIC_TOL) -> CuspData:
    """Asymptotic data of the bicharacteristic through a free-region point.

    Exact: Z = zeta, frak = 2*t*zeta - z.  Raises CharacteristicViolation
    when tau + |zeta|^2 exceeds ``tol`` relative to 1 + |zeta|^2, and
    InsidePerturbation when ``spec`` is given and (z, t) lies inside its
    support.
    """
    if spec is not None and spec.contains(p.z, p.t):
        raise InsidePerturbation(
            f"point (z={p.z}, t={p.t}) lies inside the perturbation support")
    zeta_sq = float(p.zeta @ p.zeta)
    residual = abs(p.tau + zeta_sq)
    if residual > tol * (1.0 + zeta_sq):
        raise CharacteristicViolation(
            f"|tau + |zeta|^2| = {residual:.3e} exceeds tolerance")
    return CuspData(Z=p.zeta, frak=galilean_invariant(p))


def momentum_in_range(field: str, zeta: np.ndarray, tol: float):
    """Refuse, naming ``field``, a momentum zeta that a bicharacteristic
    flow at ``tol`` cannot carry.  The Hamilton field is quadratic in zeta,
    and the Runge-Kutta step control squares it in units of its tolerance,
    at least the relative one, rtol = max(tol, 100 eps): (|zeta|^2 / rtol)^2
    must be finite, or the first step ends in an overflow.  ``tol`` must be
    in (0, 1)."""
    rtol = max(in_range("tol", tol, 0.0, 1.0), 100 * np.finfo(float).eps)
    scaled = sum(v * v for v in zeta.tolist()) / rtol    # Python floats overflow silently
    if not scaled * scaled < np.inf:
        raise InvalidArgument(field, f"= {zeta.tolist()} is too large for the flow at "
                                     f"tol = {tol!r}: (|{field}|^2 / rtol)^2 overflows")


def bichar_from_cusp(c: CuspData, t_init: float, tol: float | None = None) -> PhasePoint:
    """The unique characteristic point at time ``t_init`` with data ``c``.

    The bicharacteristic with data (Z, frak) is (2*t*Z - frak, t, Z, -|Z|^2).
    A point that overflows, or whose |z|^2 does (the flow takes it to find
    the support), is an InvalidArgument naming ``Z`` or ``frak``, with no
    floating-point warning ahead of it.  With ``tol``, the tolerance of the
    flow the point seeds, a Z that flow cannot carry is refused too
    (:func:`momentum_in_range`)."""
    t_init = in_range("t_init", t_init)
    with np.errstate(over="ignore", invalid="ignore"):
        tau = -float(c.Z @ c.Z)
        moved = 2.0 * t_init * c.Z
        z = moved - c.frak
        if not np.all(np.isfinite([tau, *moved])):    # through |Z|^2 or 2 t Z
            field = "Z"
        elif not np.all(np.isfinite(z)):
            field = "frak"
        elif not np.isfinite(z @ z):    # through the square of 2 t Z, else of frak
            field = "Z" if not np.isfinite(moved @ moved) else "frak"
        else:
            field = None
    if field is not None:
        raise InvalidArgument(field, f"= {getattr(c, field).tolist()} overflows the "
                              f"characteristic point at t = {t_init!r}")
    if tol is not None:
        momentum_in_range("Z", c.Z, tol)
    return PhasePoint(z=z, t=t_init, zeta=c.Z, tau=tau)


def to_boundary_chart(c: CuspData, axis: int | None = None) -> CuspBoundaryCoords:
    """Express (Z, frak) in the dominant-axis boundary chart, exactly.

    The covector frak . dZ is rewritten in the frame {dx/x^3, dy/x} with
    x = 1/|Z| and y the off-axis components of Z/|Z|.  The coefficients are

        xi    = -(frak . Z) / |Z|^2,
        eta_j = frak_j - frak_axis * Z_j / Z_axis   (j != axis).

    ``axis`` defaults to the index of the largest |Z| component.
    """
    r = float(np.linalg.norm(c.Z))
    if r == 0.0:
        raise ZeroBasePoint("boundary chart undefined at Z = 0")
    if axis is None:
        axis = int(np.argmax(np.abs(c.Z)))
    else:
        axis = int(axis)
        if abs(c.Z[axis]) < 0.5 * np.max(np.abs(c.Z)):
            raise ChartInvalid(f"component {axis} does not dominate Z")
    if c.Z[axis] == 0.0:
        raise ChartInvalid(f"component {axis} of Z vanishes")
    sign = 1 if c.Z[axis] > 0 else -1

    off = np.arange(c.n) != axis
    x = 1.0 / r
    y = c.Z[off] / r
    xi = -float(c.frak @ c.Z) / r**2
    eta = c.frak[off] - c.frak[axis] * c.Z[off] / c.Z[axis]
    return CuspBoundaryCoords(x=x, y=y, xi=xi, eta=eta, axis=axis, sign=sign)


def from_boundary_chart(b: CuspBoundaryCoords) -> CuspData:
    """Exact inverse of :func:`to_boundary_chart` on the chart's domain."""
    n = b.y.size + 1
    ysq = float(b.y @ b.y)
    axis_unit = b.sign * np.sqrt(1.0 - ysq)
    r = 1.0 / b.x

    Z = np.empty(n)
    off = np.arange(n) != b.axis
    Z[b.axis] = axis_unit * r
    Z[off] = b.y * r

    # Solve xi = -x (frak . Zhat), eta_j = frak_j - frak_axis y_j / Zhat_axis.
    s = b.xi / b.x + float(b.eta @ b.y)
    frak = np.empty(n)
    frak[b.axis] = -b.sign * np.sqrt(1.0 - ysq) * s
    frak[off] = b.eta - b.y * s
    return CuspData(Z=Z, frak=frak)
