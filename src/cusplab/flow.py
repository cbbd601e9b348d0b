"""Bicharacteristic flow, the classical scattering map, and its diagnostics.

The integrator is piecewise: outside the (slightly inflated) spacetime
support of the perturbation the flow is the closed-form free flight, applied
exactly; inside, an adaptive embedded Runge-Kutta 5(4) scheme with dense
output is used.  This makes the identity regimes (beams missing the
perturbation) hold to machine precision rather than solver tolerance.

A trajectory is its state rows [z, t, zeta, tau], and each segment between
them carries one dense solution, the free flight or the Runge-Kutta
interpolant.  Every classical quantity along a beam is read off
:meth:`PerturbationSpec.hamilton_field` on such rows: the Runge-Kutta stages,
the symbol drift, and zeta.g.zeta in the beam integrals.

The classical scattering map computes only the outgoing data; the integrals
along the beam are evaluated on first read of its `ScatterResult`.

`scipy.integrate` is imported by the first call of :func:`integrate`, not
with the package, so work that never flows a beam never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import StepFailure, TrappingSuspected
from .phasespace import (
    CuspData,
    PhasePoint,
    bichar_from_cusp,
    cusp_from_bichar,
    free_flow,
    galilean_invariant,
)
from .symbols import SUPPORT_MARGIN, PerturbationSpec, principal_symbol, symbol_jet

EXIT_SHELL = 1e-10     # absolute shell thickness for the exit event


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


def _inflated(term):
    rz = term.radius_z * (1.0 + SUPPORT_MARGIN)
    rt = term.radius_t * (1.0 + SUPPORT_MARGIN)
    return term.center_z, term.center_t, rz, rt


def _outsideness(spec: PerturbationSpec, z: np.ndarray, t: float) -> float:
    """min over terms of max(|z - c| - Rz, |t - ct| - Rt); <= 0 inside."""
    best = np.inf
    for term in spec.terms():
        cz, ct, rz, rt = _inflated(term)
        best = min(best, max(float(np.linalg.norm(z - cz)) - rz, abs(t - ct) - rt))
    return best


def _free_entry_time(spec, z0, t0, zeta, t_limit):
    """Earliest time (in the direction of t_limit) the free beam from
    (z0, t0) enters the inflated support, or None."""
    direction = 1.0 if t_limit > t0 else -1.0
    best = None
    for term in spec.terms():
        cz, ct, rz, rt = _inflated(term)
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
    sol: object     # state at time t: the free flight or scipy dense output
    numeric: bool   # True for a Runge-Kutta segment


@dataclass
class Trajectory:
    """Piecewise trajectory with dense evaluation and conservation stats.

    ``states`` holds its rows [z, t, zeta, tau] in increasing t: the seed,
    the ends of the free hops and the accepted Runge-Kutta steps."""

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
        raise ValueError(f"time {t} outside trajectory range "
                         f"[{self.segments[0].t_lo}, {self.segments[-1].t_hi}]")

    def numeric_spans(self):
        return [(s.t_lo, s.t_hi) for s in self.segments if s.numeric]

    def export_csv(self, path, stride: float):
        """Write t, z, zeta, tau, p_residual rows sampled every ``stride``."""
        n = self.spec.n
        t0, t1 = self.states[0, n], self.states[-1, n]
        times = np.arange(t0, t1 + 0.5 * stride, stride)
        times = times[times <= t1]
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
              tol: float = 1e-11, transit_budget: float | None = None) -> Trajectory:
    """Flow ``p0`` to ``t_final`` (either direction), splitting exactly into
    free flights and adaptive RK 5(4) segments through the support."""
    from scipy.integrate import solve_ivp

    if tol <= 0:
        raise ValueError("tol must be positive")
    t_final = float(t_final)
    if t_final == p0.t:
        raise ValueError("t_final must differ from the initial time")
    direction = 1.0 if t_final > p0.t else -1.0
    budget = transit_budget if transit_budget is not None else _transit_budget(spec, p0.zeta)

    segments = []
    states = [p0.state()[None]]
    current = p0        # the state at the end of the last segment
    inside_time = 0.0
    n_steps = 0
    n_rejected = 0

    def exit_event(t, x):
        return _outsideness(spec, x[:p0.n], t) - EXIT_SHELL

    exit_event.terminal = True
    exit_event.direction = 1.0

    while (t_final - current.t) * direction > 0.0:
        if _outsideness(spec, current.z, current.t) > 0.0:
            entry = _free_entry_time(spec, current.z, current.t, current.zeta, t_final)
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
                sol = _free_flight(states[-1][-1])
                end = sol(target)
                t_lo, t_hi = sorted((current.t, float(end[p0.n])))
                segments.append(_Segment(t_lo, t_hi, sol, numeric=False))
                states.append(end[None])
                current = PhasePoint.from_state(end)
            if entry is None:
                break
        else:
            res = solve_ivp(spec.hamilton_field, (current.t, t_final), states[-1][-1],
                            method="RK45", rtol=tol, atol=tol,
                            dense_output=True, events=exit_event)
            if res.status == -1:
                raise StepFailure(res.message)
            t_lo, t_hi = sorted((float(res.t[0]), float(res.t[-1])))
            segments.append(_Segment(t_lo, t_hi, res.sol, numeric=True))
            states.append(res.y.T[1:])
            current = PhasePoint.from_state(res.y[:, -1])
            # RK45 spends 2 evaluations before its first step (f0 and the
            # initial-step probe), then 6 per attempted step
            n_steps += len(res.t) - 1
            n_rejected += (res.nfev - 2) // 6 - (len(res.t) - 1)
            inside_time += t_hi - t_lo
            if inside_time > budget:
                raise TrappingSuspected(
                    f"time inside support ({inside_time:.3g}) exceeded budget {budget:.3g}")

    # |p| = |tau + zeta.g.zeta| at every state; row 0 is p0
    x = np.concatenate(states)
    p_res = np.abs(x[:, 2 * p0.n + 1] + spec.kinetic(x))
    stats = {
        "steps": n_steps,
        "rejected_steps_estimate": n_rejected,
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
    beam needs to cover its offset, outside the perturbation window."""
    slack = float(np.linalg.norm(c_in.frak)) / (2.0 * max(float(np.linalg.norm(c_in.Z)), 0.1))
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


def _gauss_panels(f, t0, t1, n_panels=24, order=10):
    """Composite Gauss-Legendre quadrature on [t0, t1] of the smooth real or
    complex integrands whose values at the nodes ts are the rows of f(ts)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    edges = np.linspace(t0, t1, n_panels + 1)
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

    seed = bichar_from_cusp(c_in, t_in)
    if _free_entry_time(spec, seed.z, seed.t, seed.zeta, t_out) is None:
        return ScatterResult(c_in, c_in, None)

    traj = integrate(spec, seed, t_out, tol=tol)
    char_tol = max(1e-9, 100.0 * tol * abs(t_out - t_in))
    end = PhasePoint.from_state(traj.states[-1])
    return ScatterResult(c_in, cusp_from_bichar(end, spec, tol=char_tol), traj)


def scatter_jacobian(spec: PerturbationSpec, c_in: CuspData,
                     h_fd: float = 1e-4, tol: float = 1e-11) -> np.ndarray:
    """Central-difference Jacobian of (Z, frak) -> classical_scatter output."""
    if h_fd <= 0:
        raise ValueError("h_fd must be positive")
    q0 = c_in.pair()
    m = q0.size
    jac = np.empty((m, m))
    for j in range(m):
        dq = np.zeros(m)
        dq[j] = h_fd
        f_plus = classical_scatter(spec, CuspData.from_pair(q0 + dq), tol=tol).c_out.pair()
        f_minus = classical_scatter(spec, CuspData.from_pair(q0 - dq), tol=tol).c_out.pair()
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


def radial_convergence(spec: PerturbationSpec, p0: PhasePoint,
                       horizon: float = 1e6, tol: float = 1e-11) -> RadialReport:
    """Sample w(t) = z/(2t) - zeta at log-spaced |t| in both directions and
    fit the decay exponent of |w| against 1/|t| (expected slope 1)."""
    window = spec.time_window() or (p0.t - 1.0, p0.t + 1.0)

    results = {}
    for direction in (+1.0, -1.0):
        t_edge = window[1] + 1.0 if direction > 0 else window[0] - 1.0
        if (t_edge - p0.t) * direction <= 0:
            t_edge = p0.t + direction
        traj = integrate(spec, p0, t_edge, tol=tol)
        end = PhasePoint.from_state(traj.states[-1 if direction > 0 else 0])
        t_start = max(abs(end.t) * 1.5, 1.0)
        ts = direction * np.geomspace(t_start, horizon, 24)
        ws = np.empty(len(ts))
        for i, t in enumerate(ts):
            p = free_flow(end, t - end.t)
            ws[i] = float(np.linalg.norm(p.z / (2.0 * t) - p.zeta))
        far = free_flow(end, ts[-1] - end.t)
        limit = CuspData(Z=far.zeta, frak=galilean_invariant(far))
        results[direction] = (_fit_exponent(ts, ws), limit, np.column_stack([ts, ws]))

    fwd, bwd = results[1.0], results[-1.0]
    return RadialReport(fwd[0], bwd[0], fwd[1], bwd[1], fwd[2], bwd[2])


def time_reversed_spec(spec: PerturbationSpec) -> PerturbationSpec:
    """The perturbation with t -> -t (metric reflected, potential conjugated)."""
    bumps = tuple(replace(b, center_t=-b.center_t) for b in spec.bumps)
    pots = tuple(replace(p, center_t=-p.center_t, amplitude=np.conj(p.amplitude))
                 for p in spec.potential_terms)
    return PerturbationSpec(n=spec.n, bumps=bumps, potential_terms=pots)
