"""Bicharacteristic flow, the classical scattering map, and its diagnostics.

The integrator is piecewise: outside the (slightly inflated) spacetime
support of the perturbation the flow is the closed-form free flight, applied
exactly; inside, an adaptive embedded Runge-Kutta 5(4) scheme with dense
output is used.  This makes the identity regimes (beams missing the
perturbation) hold to machine precision rather than solver tolerance.

The Runge-Kutta scheme is scipy's RK45 (Dormand-Prince 5(4)), step for step
and bit for bit, taken by an in-tree loop: the same tableau, first step and
step control, the exit from the support found as scipy finds a terminal
event (Brent's method on the step's interpolant), and each step's quartic
dense interpolant built only when the segment's solution is read there.

A trajectory is its state rows [z, t, zeta, tau], and each segment between
them carries one dense solution, the free flight or the Runge-Kutta
interpolant.  Every classical quantity along a beam is read off
:meth:`PerturbationSpec.hamilton_field` on such rows: the Runge-Kutta stages,
the symbol drift, and zeta.g.zeta in the beam integrals.

The classical scattering map computes only the outgoing data; the integrals
along the beam are evaluated on first read of its `ScatterResult`.

The flow loads no scipy module: `scipy.integrate` (and with it
`scipy.optimize` and `scipy.sparse`) is never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import InvalidArgument, StepFailure, TrappingSuspected, in_range
from .phasespace import (
    CuspData,
    PhasePoint,
    bichar_from_cusp,
    cusp_from_bichar,
    free_flow,
    galilean_invariant,
    momentum_in_range,
)
from .symbols import SUPPORT_MARGIN, PerturbationSpec, principal_symbol, symbol_jet

EXIT_SHELL = 1e-10     # absolute shell thickness for the exit event
_GAUSS_PANELS, _GAUSS_ORDER = 24, 10    # the beam integrals' Gauss-Legendre rule


def hamilton_rhs(spec: PerturbationSpec, p: PhasePoint) -> np.ndarray:
    """State derivative [zdot, tdot, zetadot, taudot] of the Hamilton flow.

    tdot = 1, zdot = 2 g^{-1} zeta, taudot = -d_t(g^{jk}) zeta zeta,
    zetadot = -d_z(g^{jk}) zeta zeta.  The point form of the field the
    integrator evaluates on state vectors.
    """
    jet = symbol_jet(spec, p)
    return np.concatenate([jet.dp_dzeta, [1.0], -jet.dp_dz, [-jet.dp_dt]])


# ---------------------------------------------------------------------------
# support-region geometry for the free/numeric split


def _inflated(spec: PerturbationSpec) -> list:
    """(center_z, center_t, Rz, Rt) of every term, its radii inflated by
    SUPPORT_MARGIN."""
    grow = 1.0 + SUPPORT_MARGIN
    return [(term.center_z, term.center_t, term.radius_z * grow, term.radius_t * grow)
            for term in spec.terms()]


def _outsideness_of(inflated: list, z: np.ndarray, t: float) -> float:
    """min over the terms ``inflated`` = _inflated(spec) of
    max(|z - c| - Rz, |t - ct| - Rt); <= 0 inside."""
    best = math.inf
    for cz, ct, rz, rt in inflated:
        d = z - cz      # |d| with the arithmetic of np.linalg.norm
        best = min(best, max(math.sqrt(d.dot(d)) - rz, abs(t - ct) - rt))
    return best


def _free_entry_time(inflated, z0, t0, zeta, t_limit):
    """Earliest time (in the direction of t_limit) the free beam from
    (z0, t0) enters the support of the terms ``inflated`` =
    _inflated(spec), or None."""
    direction = 1.0 if t_limit > t0 else -1.0
    best = None
    for cz, ct, rz, rt in inflated:
        a = z0 - cz - 2.0 * zeta * t0
        zz = float(zeta @ zeta)
        if zz > 0.0:
            # |a + 2 zeta t|^2 < rz^2
            b = float(a @ zeta)
            disc = b * b - zz * (float(a @ a) - rz * rz)
            if disc <= 0.0:
                continue
            root = np.sqrt(disc)
            t_lo = (-b - root) / (2.0 * zz)
            t_hi = (-b + root) / (2.0 * zz)
        else:
            if float(a @ a) >= rz * rz:
                continue
            t_lo, t_hi = -np.inf, np.inf
        lo = max(t_lo, ct - rt)
        hi = min(t_hi, ct + rt)
        if lo >= hi:
            continue
        if direction > 0:
            entry = max(lo, t0)
            if entry < min(hi, t_limit):
                best = entry if best is None else min(best, entry)
        else:
            entry = min(hi, t0)
            if entry > max(lo, t_limit):
                best = entry if best is None else max(best, entry)
    return best


def _support_diameter(spec: PerturbationSpec) -> float:
    ts = spec.terms()
    return max((float(np.linalg.norm(a.center_z - b.center_z)) + a.radius_z + b.radius_z
                for a in ts for b in ts), default=0.0)


def _transit_budget(spec: PerturbationSpec, zeta: np.ndarray) -> float:
    speed = 2.0 * max(float(np.linalg.norm(zeta)), 0.1)
    return max(10.0 * _support_diameter(spec) / (2.0 * speed), 1e3)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) steps, as scipy.integrate's RK45 takes them

_EPS = math.ulp(1.0)    # the float64 machine epsilon, a Python float
# the tableau (Dormand & Prince, J. Comput. Appl. Math. 6, 1980) and the
# dense-output matrix (Shampine, Math. Comp. 46, 1986) of scipy's RK45,
# written as scipy writes them, so every coefficient has scipy's bits
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# stage s combines the stages before it with the weights a[:s], at the
# node c, a Python float
_RK_STAGES = tuple((s, a[:s], float(c))
                   for s, (a, c) in enumerate(zip(_RK_A[1:], _RK_C[1:]), start=1))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5    # -1 / (order of the error estimate + 1)


def _rms(x):
    """Root mean square of x, a Python float, with the arithmetic of
    np.linalg.norm(x) / sqrt(x.size) (math.sqrt and np.sqrt are both the
    correctly rounded square root)."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(field, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step size of the RK 5(4) flow (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4): scipy's ``select_initial_step``."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    with np.errstate(over="ignore"):    # d1 and d2 are inf at a tol far below 100 eps,
        d1 = _rms(f0 / scale)           # and the step is then scipy's 0: the minimum step
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    if h0 == 0.0:
        return 0.0
    f1 = field(t0 + h0 * direction, y0 + h0 * direction * f0)
    with np.errstate(over="ignore"):
        d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(field, t, y, f, h, k):
    """One RK 5(4) step of size h from (t, y), f the field there: the new
    state and its field; the seven stages go to the rows of k.  The stage
    states are scipy's y + np.dot(k[:s].T, a) * h, formed in place, and
    the sums are np.dot's own call, the method k[:s].T.dot(a).  h and the
    nodes c are Python floats; the products with h take it as a 0-d
    array, which numpy multiplies in at half the cost of a float."""
    k[0] = f
    h_array = np.array(h)
    for s, a, c in _RK_STAGES:
        x = k[:s].T.dot(a)
        x *= h_array
        x += y
        k[s] = field(t + c * h, x)
    y_new = k[:-1].T.dot(_RK_B)
    y_new *= h_array
    y_new += y
    f_new = field(t + h, y_new)
    k[-1] = f_new
    return y_new, f_new


def _interpolate(step, q, t):
    """The quartic interpolant of ``step`` = (t_old, t_new, y_old, k) at a
    time or a 1-D array of times (a column each), q = k^T P."""
    t_old, t_new, y_old, _ = step
    h = t_new - t_old
    x = (t - t_old) / h
    if t.ndim == 0:
        p = np.cumprod(np.tile(x, 4))
    else:
        p = np.cumprod(np.tile(x, (4, 1)), axis=0)
    y = h * np.dot(q, p)
    y += y_old[:, None] if y.ndim == 2 else y_old
    return y


class _RKSolution:
    """Dense output of one Runge-Kutta segment.

    ``ts`` are its step ends in the direction of the flow; the last is the
    exit time when the segment ends at the exit root inside its last step.
    Step i spans ts[i] to ts[i + 1] and holds (t_old, t_new, y_old, k): its
    start, its full end, its start state and its seven stages.  A time picks
    its step as scipy's ``OdeSolution`` picks it (the lower index at a step
    end, the first or last step beyond the ends), and a step's interpolant
    matrix Q = k^T P is built at its first read."""

    def __init__(self, ts, steps):
        self.ts = np.array(ts)
        self.steps = steps
        self._q = [None] * len(steps)
        self._ascending = bool(self.ts[-1] >= self.ts[0])
        self._ts_sorted = self.ts if self._ascending else self.ts[::-1]
        self._side = "left" if self._ascending else "right"

    def _step_at(self, i, t):
        if self._q[i] is None:
            self._q[i] = self.steps[i][3].T.dot(_RK_P)
        return _interpolate(self.steps[i], self._q[i], t)

    def _index(self, ind):
        last = len(self.steps) - 1
        i = np.clip(ind - 1, 0, last)
        return i if self._ascending else last - i

    def __call__(self, t):
        """The state at a time, or the states (columns) at a 1-D array of
        times; each run of sorted times in one step is one interpolant call."""
        t = np.asarray(t)
        if t.ndim == 0:
            ind = np.searchsorted(self._ts_sorted, t, side=self._side)
            return self._step_at(int(self._index(ind)), t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        index = self._index(np.searchsorted(self._ts_sorted, t_sorted, side=self._side))
        bounds = np.flatnonzero(np.diff(index)) + 1
        ys = [self._step_at(int(index[a]), t_sorted[a:b])
              for a, b in zip(np.r_[0, bounds], np.r_[bounds, len(index)])]
        return np.hstack(ys)[:, reverse]


def _brent_root(f, xa, xb):
    """The root of f between xa and xb, where f changes sign: scipy's
    ``brentq`` (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4), iteration for iteration, with xtol = rtol = 4 eps and at most 100
    iterations, as scipy places an event.  A NaN value of f, a bracket
    without a sign change, or no convergence is a StepFailure."""
    def value(x):
        v = f(x)
        if v != v:
            raise StepFailure(f"the exit event is NaN at t = {x!r}")
        return v

    tol = 4 * _EPS
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise StepFailure(f"the exit event does not change sign on [{xa!r}, {xb!r}]")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise StepFailure(f"the exit time did not converge in 100 iterations, last t = {xcur!r}")


def _rk45(field, t0, y0, t_bound, tol, exit_value):
    """Flow y0 from t0 toward t_bound in Dormand-Prince 5(4) steps, until
    t_bound or the first accepted step on which exit_value(t, y) >= 0; the
    segment then ends at the exit root on that step's interpolant.

    The steps are scipy's RK45 steps under ``solve_ivp(field, (t0, t_bound),
    y0, method="RK45", rtol=tol, atol=tol, dense_output=True)`` with a
    terminal rising event, made with the same arithmetic: the first step of
    ``select_initial_step``, the step control of ``RK45._step_impl`` (a step
    below ten spacings of t is a StepFailure; after a rejection the step does
    not grow), the last stage reused as the next first (FSAL), and rtol
    raised to 100 eps as scipy raises it.  The step size is never NaN, so a
    field that turns NaN shrinks the step to that failure.  Works on y0 as
    given, not on a copy.

    The step control runs in Python floats: t, the direction, the step h
    and its size, the error norm and the stage nodes c.  On float64 values
    Python's sums, products, quotients, abs, square root and pow (libm's,
    as numpy's scalar power) give numpy's bits, without numpy's per-call
    cost on 0-d values.  rtol and atol, and h in the stage sums, act on
    arrays in place as 0-d arrays: the same operation at half the cost of
    a float operand.  The arrays keep scipy's products: the stage sums are
    ``np.dot(k[:s].T, a)`` (:func:`_rk_step`) and the error estimate
    ``np.dot(k.T, E)``, each taken as the method ``.dot``, which is the
    same call without np.dot's dispatch.  They cannot move to Python
    floats: BLAS's matrix-vector product rounds like neither a
    left-to-right sum nor a chain of fused multiply-adds.

    Returns (ys, sol, attempts): the states after y0 at the ends of the
    steps (the last at the exit time), the segment's :class:`_RKSolution`,
    and the number of steps attempted."""
    direction = 1.0 if t_bound > t0 else -1.0
    rtol = max(tol, 100 * _EPS)
    f = field(t0, y0)
    h_abs = _initial_step(field, t0, y0, t_bound, f, direction, rtol, tol)
    t, y, abs_y = t0, y0, np.abs(y0)
    rtol_array, atol_array = np.array(rtol), np.array(tol)
    ts, ys, steps = [t0], [], []
    attempts = 0
    k = np.empty((_RK_C.size + 1,) + y0.shape)
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepFailure("Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            attempts += 1
            y_new, f_new = _rk_step(field, t, y, f, h, k)
            # scipy's np.dot(k.T, E) * h / (atol + max(|y|, |y_new|) * rtol)
            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol_array
            scale += atol_array
            error = k.T.dot(_RK_E)
            error *= h
            error /= scale
            error_norm = _rms(error)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        factor = (_MAX_FACTOR if error_norm == 0
                  else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
        h_abs *= min(1, factor) if rejected else factor
        step = (t, t_new, y, k)
        steps.append(step)
        k = np.empty_like(k)
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        if exit_value(t, y) >= 0:
            q = step[3].T.dot(_RK_P)
            t = _brent_root(lambda s: exit_value(s, _interpolate(step, q, np.asarray(s))),
                            step[0], step[1])
            if len(ts) > 1 and ts[-1] == t:
                steps.pop()     # the exit is the last step end
            else:
                ts.append(t)
                ys.append(_interpolate(step, q, np.asarray(t)))
            break
        ts.append(t)
        ys.append(y)
        if direction * (t - t_bound) >= 0:
            break
    return ys, _RKSolution(ts, steps), attempts


# ---------------------------------------------------------------------------
# trajectories


def _free_flight(x0: np.ndarray):
    """The closed-form free flight through the state row x0, as a function
    of time; its values are those of :func:`free_flow` from x0."""
    n = (x0.size - 2) // 2

    def sol(t):
        dt = t - x0[n]
        x = x0.copy()
        x[:n] += 2.0 * dt * x0[n + 1:2 * n + 1]
        x[n] += dt
        return x

    return sol


@dataclass(frozen=True)
class _Segment:
    t_lo: float
    t_hi: float
    sol: object     # state at time t: the free flight or an _RKSolution
    numeric: bool   # True for a Runge-Kutta segment


@dataclass
class Trajectory:
    """Piecewise trajectory with dense evaluation and conservation stats.

    ``states`` holds its rows [z, t, zeta, tau] in increasing t: the seed,
    the ends of the free hops and the accepted Runge-Kutta steps.

    ``stats`` holds ``steps``, the accepted Runge-Kutta steps;
    ``rejected_steps_estimate``, the rejected step attempts, an exact count
    (the key keeps its name: the benchmark's tracer reads it);
    ``max_p_drift``, the largest rise of |p| = |tau + zeta.g.zeta| over the
    seed's; and ``time_inside_support``, the time in numeric segments."""

    spec: PerturbationSpec
    states: np.ndarray
    segments: list
    stats: dict

    def dense(self, t: float) -> PhasePoint:
        """State at an intermediate time (free segments exact)."""
        t = float(t)
        for seg in self.segments:
            if seg.t_lo - 1e-12 <= t <= seg.t_hi + 1e-12:
                return PhasePoint.from_state(seg.sol(t))
        raise InvalidArgument("t", f"= {t} is outside the trajectory's range "
                              f"[{self.segments[0].t_lo}, {self.segments[-1].t_hi}]")

    def numeric_spans(self):
        return [(s.t_lo, s.t_hi) for s in self.segments if s.numeric]

    def export_csv(self, path, stride: float):
        """Write t, z, zeta, tau, p_residual rows sampled every ``stride``
        over the segments' span, and a last row at the span's end: a grid
        time within rounding of the end is replaced by it, so the end state
        of the flow is always written, once."""
        stride = in_range("stride", stride, 0.0)
        n = self.spec.n
        t0, t1 = self.segments[0].t_lo, self.segments[-1].t_hi
        times = np.arange(t0, t1 + 0.5 * stride, stride)
        keep = times < t1 - 1e-6 * stride
        keep[0] = True
        times = np.append(times[keep], t1)
        header = (["t"] + [f"z_{i+1}" for i in range(n)]
                  + [f"zeta_{i+1}" for i in range(n)] + ["tau", "p_residual"])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for t in times:
                p = self.dense(t)
                row = ([f"{t:.17g}"] + [f"{v:.17g}" for v in p.z]
                       + [f"{v:.17g}" for v in p.zeta]
                       + [f"{p.tau:.17g}", f"{principal_symbol(self.spec, p):.17g}"])
                fh.write(",".join(row) + "\n")


def integrate(spec: PerturbationSpec, p0: PhasePoint, t_final: float,
              tol: float = 1e-11) -> Trajectory:
    """Flow ``p0`` to ``t_final`` (either direction), splitting exactly into
    free flights and adaptive RK 5(4) segments through the support.

    A numeric segment runs from its entry to ``t_final`` or to the exit
    time, where the beam leaves the inflated support by ``EXIT_SHELL``.  Its
    steps are scipy's RK45 steps, step for step and bit for bit, under
    ``solve_ivp(..., method="RK45", rtol=tol, atol=tol, dense_output=True)``
    with the exit as a terminal event, but taken by an in-tree loop
    (:func:`_rk45`): the exit is tested once per accepted step, located by a
    port of scipy's Brent root finder, and a step's dense interpolant is
    built only when the segment's solution is read there.  ``tol`` must be
    finite, positive and below 1, and ``t_final`` finite; |z|^2 of ``p0``,
    which finds the support, must be finite, and ``p0.zeta`` a momentum the
    flow can carry (:func:`momentum_in_range`); an InvalidArgument otherwise,
    naming ``z`` or ``zeta``."""
    tol = in_range("tol", tol, 0.0, 1.0)
    t_final = in_range("t_final", t_final)
    if not sum(v * v for v in p0.z.tolist()) < math.inf:
        raise InvalidArgument("z", f"= {p0.z.tolist()} overflows |z|^2, which finds the "
                                   f"support")
    momentum_in_range("zeta", p0.zeta, tol)
    if t_final == p0.t:
        raise InvalidArgument("t_final", "must differ from the initial time")
    direction = 1.0 if t_final > p0.t else -1.0
    budget = _transit_budget(spec, p0.zeta)

    segments = []
    states = [p0.state()]
    current = p0        # the state at the end of the last segment
    inside_time = 0.0
    n_steps = 0
    n_attempts = 0

    inflated, n = _inflated(spec), p0.n     # once per flow, not once per step

    def exit_value(t, x):
        return _outsideness_of(inflated, x[:n], t) - EXIT_SHELL

    while (t_final - current.t) * direction > 0.0:
        if _outsideness_of(inflated, current.z, current.t) > 0.0:
            entry = _free_entry_time(inflated, current.z, current.t, current.zeta, t_final)
            if entry is None:
                target = t_final
            else:
                # squeeze past boundary fuzz: the inflation skin is exactly
                # flat (the mollifier vanishes to all orders at the edge),
                # so a tiny free hop cannot lose accuracy
                hop = 1e-9 * max(1.0, abs(current.t))
                target = entry
                if (entry - current.t) * direction < hop:
                    target = current.t + direction * hop
                    if (target - t_final) * direction > 0:
                        target = t_final
            if target != current.t:
                sol = _free_flight(states[-1])
                end = sol(target)
                t_lo, t_hi = sorted((current.t, float(end[p0.n])))
                segments.append(_Segment(t_lo, t_hi, sol, numeric=False))
                states.append(end)
                current = PhasePoint.from_state(end)
            if entry is None:
                break
        else:
            ys, sol, attempts = _rk45(spec.hamilton_field, float(current.t), states[-1],
                                      t_final, tol, exit_value)
            t_lo, t_hi = sorted((float(sol.ts[0]), float(sol.ts[-1])))
            segments.append(_Segment(t_lo, t_hi, sol, numeric=True))
            states.extend(ys)
            current = PhasePoint.from_state(states[-1])
            n_steps += len(sol.ts) - 1
            n_attempts += attempts
            inside_time += t_hi - t_lo
            if inside_time > budget:
                raise TrappingSuspected(
                    f"time inside support ({inside_time:.3g}) exceeded budget {budget:.3g}")
            # the segment's clock ends the flow: the t entry of its last row
            # may fall a rounding error short of t_final
            if sol.ts[-1] == t_final:
                break

    # |p| = |tau + zeta.g.zeta| at every state; row 0 is p0
    x = np.array(states)
    p_res = np.abs(x[:, 2 * p0.n + 1] + spec.kinetic(x))
    stats = {
        "steps": n_steps,
        "rejected_steps_estimate": n_attempts - n_steps,
        "max_p_drift": float(p_res.max() - p_res[0]),
        "time_inside_support": inside_time,
    }
    if direction < 0:
        x, segments = x[::-1], segments[::-1]
    return Trajectory(spec=spec, states=x, segments=segments, stats=stats)


# ---------------------------------------------------------------------------
# classical scattering map


def _beam_times(window: tuple, c_in: CuspData) -> tuple:
    """Seed and exit times of the beam: one time unit, plus the time the
    beam needs to cover its offset, outside the perturbation window.  A
    norm may overflow silently: an infinite slack is refused here, and an
    infinite |Z| by the seed that follows."""
    with np.errstate(over="ignore"):
        slack = float(np.linalg.norm(c_in.frak)) / (2.0 * max(float(np.linalg.norm(c_in.Z)), 0.1))
    if not math.isfinite(slack):
        raise InvalidArgument("frak", f"= {c_in.frak.tolist()} overflows the beam's seed time")
    return window[0] - 1.0 - slack, window[1] + 1.0 + slack


def _beam_values(spec: PerturbationSpec, sol, ts):
    """V and zeta.g.zeta at the nodes ts of a numeric segment, from one
    evaluation of its dense solution."""
    x = sol(ts).T
    return spec.potential_field(x[:, :spec.n], ts), spec.kinetic(x)


@dataclass(frozen=True)
class ScatterResult:
    """Outcome of scattering one asymptotic beam through the perturbation.

    The beam integrals, potential phase and action difference, are evaluated
    on first read, in one quadrature pass over the numeric segments, and
    cached; the transit is read off the trajectory.  A beam that misses the
    support has no trajectory: it reads zero integrals and no transit."""

    c_in: CuspData
    c_out: CuspData
    trajectory: Trajectory | None

    @property
    def displacement(self) -> float:
        return float(np.linalg.norm(self.c_out.pair() - self.c_in.pair()))

    @cached_property
    def _integrals(self) -> tuple:
        """(int V dt, int zeta.g.zeta dt - |Z|^2 (t_out - t_in)) along the beam."""
        traj = self.trajectory
        if traj is None:
            return 0.0, 0.0
        spec, n = traj.spec, traj.spec.n
        phase = action = 0.0
        for seg in traj.segments:
            if seg.numeric:
                v, kinetic = _gauss_panels(partial(_beam_values, spec, seg.sol),
                                           seg.t_lo, seg.t_hi)
                phase += v
                action += kinetic.real
            else:
                zeta = seg.sol(seg.t_lo)[n + 1:2 * n + 1]
                action += float(zeta @ zeta) * (seg.t_hi - seg.t_lo)
        t_in, t_out = _beam_times(spec.time_window(), self.c_in)
        action -= float(self.c_in.Z @ self.c_in.Z) * (t_out - t_in)
        return phase, action

    potential_phase = property(lambda self: float(self._integrals[0].real))
    potential_phase_imag = property(lambda self: float(self._integrals[0].imag))
    action_diff = property(lambda self: float(self._integrals[1]))

    @property
    def transit(self) -> tuple | None:
        """(first entry, last exit) time of the numeric segments, or None."""
        spans = self.trajectory.numeric_spans() if self.trajectory is not None else []
        return (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else None


def _gauss_panels(f, t0, t1):
    """Composite Gauss-Legendre quadrature on [t0, t1] of the smooth real or
    complex integrands whose values at the nodes ts are the rows of f(ts)."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    total = 0.0
    edges = np.linspace(t0, t1, _GAUSS_PANELS + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = mid + half * nodes
        total = total + half * np.array([np.sum(weights * y) for y in f(ts)])
    return total


def classical_scatter(spec: PerturbationSpec, c_in: CuspData,
                      tol: float = 1e-11) -> ScatterResult:
    """The classical scattering map: incoming data -> outgoing data.

    Seeds the beam before the perturbation window, flows through it, and
    converts the endpoint back to asymptotic data.  Beams whose free
    extension misses the support return their input unchanged, exactly.
    """
    window = spec.time_window()
    if window is None:
        return ScatterResult(c_in, c_in, None)
    t_in, t_out = _beam_times(window, c_in)

    seed = bichar_from_cusp(c_in, t_in, tol)
    if _free_entry_time(_inflated(spec), seed.z, seed.t, seed.zeta, t_out) is None:
        return ScatterResult(c_in, c_in, None)

    traj = integrate(spec, seed, t_out, tol=tol)
    char_tol = max(1e-9, 100.0 * tol * abs(t_out - t_in))
    end = PhasePoint.from_state(traj.states[-1])
    return ScatterResult(c_in, cusp_from_bichar(end, spec, tol=char_tol), traj)


def scatter_jacobian(spec: PerturbationSpec, c_in: CuspData,
                     h_fd: float = 1e-4, tol: float = 1e-11) -> np.ndarray:
    """Central-difference Jacobian of (Z, frak) -> classical_scatter output.

    Raises InvalidArgument naming ``h_fd`` when a shifted beam leaves the
    finite phase space and the beam itself does not."""
    h_fd = in_range("h_fd", h_fd, 0.0)
    q0 = c_in.pair()
    m = q0.size
    jac = np.empty((m, m))
    for j in range(m):
        dq = np.zeros(m)
        dq[j] = h_fd
        try:
            f_plus = classical_scatter(spec, CuspData.from_pair(q0 + dq), tol=tol).c_out.pair()
            f_minus = classical_scatter(spec, CuspData.from_pair(q0 - dq), tol=tol).c_out.pair()
        except InvalidArgument as exc:   # a shifted seed overflows
            classical_scatter(spec, c_in, tol=tol)   # which raises if the beam's own does
            raise InvalidArgument("h_fd", f"= {h_fd!r} shifts the beam out of the finite "
                                  f"phase space: {exc}") from exc
        jac[:, j] = (f_plus - f_minus) / (2.0 * h_fd)
    return jac


def canonical_form(n: int) -> np.ndarray:
    """Matrix of the symplectic form sum dfrak_j ^ dZ_j in (Z, frak) order."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplectic_defect(jac: np.ndarray) -> float:
    """Frobenius norm of J^T Omega J - Omega."""
    n = jac.shape[0] // 2
    omega = canonical_form(n)
    return float(np.linalg.norm(jac.T @ omega @ jac - omega))


# ---------------------------------------------------------------------------
# radial-set convergence diagnostic


@dataclass(frozen=True)
class RadialReport:
    """Decay of w(t) = z/(2t) - zeta toward the radial sets."""

    exponent_forward: float
    exponent_backward: float
    limit_forward: CuspData
    limit_backward: CuspData
    samples_forward: np.ndarray   # columns: t, |w|
    samples_backward: np.ndarray


def _fit_exponent(ts, ws):
    mask = ws > 0.0
    if np.count_nonzero(mask) < 2:
        return float("nan")
    x = np.log(1.0 / np.abs(ts[mask]))
    y = np.log(ws[mask])
    return float(np.polyfit(x, y, 1)[0])


def _radial_direction(spec: PerturbationSpec, p0: PhasePoint, direction: float,
                      horizon: float, tol: float):
    """One direction (+1 forward, -1 backward) of :func:`radial_convergence`:
    the fitted exponent, the limit cusp data, and the (t, |w|) samples."""
    window = spec.time_window() or (p0.t - 1.0, p0.t + 1.0)
    t_edge = window[1] + 1.0 if direction > 0 else window[0] - 1.0
    if (t_edge - p0.t) * direction <= 0:
        t_edge = p0.t + direction
    traj = integrate(spec, p0, t_edge, tol=tol)
    end = PhasePoint.from_state(traj.states[-1 if direction > 0 else 0])
    t_start = max(abs(end.t) * 1.5, 1.0)
    # past the first sample, or the samples run back into the window
    ts = direction * np.geomspace(t_start, in_range("horizon", horizon, t_start), 24)
    ws = np.empty(len(ts))
    for i, t in enumerate(ts):
        p = free_flow(end, t - end.t)
        ws[i] = float(np.linalg.norm(p.z / (2.0 * t) - p.zeta))
    far = free_flow(end, ts[-1] - end.t)
    limit = CuspData(Z=far.zeta, frak=galilean_invariant(far))
    return _fit_exponent(ts, ws), limit, np.column_stack([ts, ws])


def radial_convergence(spec: PerturbationSpec, p0: PhasePoint,
                       horizon: float = 1e6, tol: float = 1e-11) -> RadialReport:
    """Sample w(t) = z/(2t) - zeta at log-spaced |t| in both directions and
    fit the decay exponent of |w| against 1/|t| (expected slope 1)."""
    fwd, bwd = (_radial_direction(spec, p0, direction, horizon, tol)
                for direction in (+1.0, -1.0))
    return RadialReport(fwd[0], bwd[0], fwd[1], bwd[1], fwd[2], bwd[2])


def time_reversed_spec(spec: PerturbationSpec) -> PerturbationSpec:
    """The perturbation with t -> -t (metric reflected, potential conjugated)."""
    bumps = tuple(replace(b, center_t=-b.center_t) for b in spec.bumps)
    pots = tuple(replace(p, center_t=-p.center_t, amplitude=np.conj(p.amplitude))
                 for p in spec.potential_terms)
    return PerturbationSpec(n=spec.n, bumps=bumps, potential_terms=pots)
