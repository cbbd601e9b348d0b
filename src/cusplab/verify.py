"""Property checks wiring the classical flow against the quantum map.

Every check produces a :class:`CheckReport` whose status is a pure function
of its measurements: each measurement passes iff ``value <= tolerance``.
Quantities that must *exceed* a threshold are encoded as
``threshold - observed`` so the same rule applies.  Checks are deterministic
given their inputs and seeds, and emit plot-ready CSV artifacts when given
an output directory.

A grid check is split into what it maps and what it measures.  Its planner
returns every map it needs as :class:`MapRequest` s (spec, grid, solver
parameters, direction and inputs).  :data:`JOB_FAMILIES` is the one table of
job families: it names each job's check and planner, and :func:`plan` reads
it.  The check measures from the (inputs, outputs) pairs in its ``mapped``
argument, in its planner's order.  A scenario run fills ``mapped`` from one
:func:`march` per operator shared by its jobs; without it the check plans
and maps by itself, one march per request.  A job whose planning raises, or
whose group's march raises, is run that second way, so its report is its
solo report.

Each argument a job may set declares its kind in the check's signature, and
:func:`refuse_arguments` refuses by it, in every check and in the loader.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
import typing
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import flow as _flow
from . import quantum as _q
from .errors import InvalidArgument, ValidationError, in_range
from .phasespace import CuspData, bichar_from_cusp
from .symbols import PerturbationSpec, flat_spec

# egorov: classical scatter and radial limit must agree to this
CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class Measurement:
    label: str
    value: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value)) and self.value <= self.tolerance


@dataclass
class CheckReport:
    name: str
    measured: list
    artifacts: list = field(default_factory=list)
    control: bool = False   # negative control: the runner expects status "fail"
    note: str = ""

    @property
    def status(self) -> str:
        return "pass" if all(m.ok for m in self.measured) else "fail"

    @property
    def satisfied(self) -> bool:
        """Did the check behave as required (controls must fail)?"""
        return (self.status == "fail") if self.control else (self.status == "pass")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "control": self.control,
            "satisfied": self.satisfied,
            "note": self.note,
            "measured": [
                {"label": m.label, "value": m.value, "tolerance": m.tolerance,
                 "ok": m.ok}
                for m in self.measured
            ],
            "artifacts": self.artifacts,
        }

    def write(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _write_csv(out_dir, name, header, rows):
    """Write one CSV series; returns the report's artifact list."""
    if out_dir is None:
        return []
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return [path]


def _stack(packets):
    """The packets as one SpectralData, stacked along its batch axis, so that
    one map serves them all."""
    return _q.SpectralData(grid=packets[0].grid, values=np.stack([p.values for p in packets]))


def _relative_defects(out, ref):
    """||out - ref|| / ||ref|| per input of two stacks."""
    return [float(np.linalg.norm(a - b) / np.linalg.norm(b))
            for a, b in zip(out.values, ref.values)]


class Beam:
    """Kind of a beam: n finite numbers, n the spec's dimension; one number where n = 1."""


class Widths:
    """Kind of packet widths: a non-empty, strictly decreasing list of positive numbers."""


# each kind a check argument may declare, as a refusal describes it
_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          Beam: "a beam of n = {n} finite numbers",
          Widths: "a non-empty, strictly decreasing list of positive numbers"}


def finite_number(value) -> bool:
    """Whether ``value`` is a number, not a bool, within the floats' range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def kinds(check) -> dict:
    """{argument: (kind, optional)} for each argument of ``check`` whose
    annotation is a kind of :data:`_KINDS`, or one of them ``| None``."""
    declared = {}
    for name, hint in typing.get_type_hints(check).items():
        optional = typing.get_args(hint)[1:] == (type(None),)
        kind = typing.get_args(hint)[0] if optional else hint
        if kind in _KINDS:
            declared[name] = kind, optional
    return declared


def refuse_argument(name, value, kind, n=1):
    """Raise an InvalidArgument naming ``name`` unless ``value`` is of ``kind`` (a beam of
    ``n`` numbers) and, as a number, positive, or for ``seed`` >= 0, for ``tol_flow`` < 1."""
    if kind in (Beam, Widths):
        items = value.tolist() if isinstance(value, np.ndarray) else value
        if kind is Beam and n == 1 and not isinstance(items, (list, tuple)):
            items = [items]
        ok = isinstance(items, (list, tuple)) and all(map(finite_number, items)) and (
            len(items) == n if kind is Beam else
            0 < len(items) and 0 < items[-1] and all(a > b for a, b in zip(items, items[1:])))
    elif kind is bool:
        ok = isinstance(value, (bool, np.bool_))
    else:
        ok = (isinstance(value, numbers.Integral if kind is int else numbers.Real)
              and not isinstance(value, bool))
    if not ok:
        raise InvalidArgument(name, f"= {value!r} is not {_KINDS[kind].format(n=n)}")
    if kind in (int, float):
        in_range(name, value, -1.0 if name == "seed" else 0.0,
                 1.0 if name == "tol_flow" else np.inf)


def refuse_arguments(check, arguments):
    """Refuse the ``arguments`` of ``check`` (its ``locals()``, or a job's call)
    by their declared :func:`kinds`; ``None`` passes where it is optional."""
    for name, (kind, optional) in kinds(check).items():
        value = arguments[name]
        if not (value is None and optional):
            refuse_argument(name, value, kind, arguments["spec"].n if kind is Beam else 1)


class MapRequest(NamedTuple):
    """One map a check needs: ``inputs``, one input or a stack, by the
    scattering map S (``direction`` +1) or its adjoint S* (-1)."""

    spec: PerturbationSpec
    grid: _q.Grid
    params: _q.SolverParams
    direction: float
    inputs: _q.SpectralData


def march(requests):
    """The outputs of ``requests``, which share spec, grid, params and
    direction, from one map of all their inputs stacked; one output per
    request, shaped like its inputs.  The map is looked up on ``quantum``
    at call time."""
    first = requests[0]
    apply = _q.scattering_map if first.direction > 0 else _q.adjoint_scattering_map
    stacks = [np.reshape(r.inputs.values, (-1, *first.grid.shape())) for r in requests]
    out = apply(first.spec, _q.SpectralData(grid=first.grid, values=np.concatenate(stacks)),
                first.params)
    parts = np.split(out.values, np.cumsum([len(s) for s in stacks])[:-1])
    return [_q.SpectralData(grid=first.grid, values=np.reshape(part, r.inputs.values.shape))
            for r, part in zip(requests, parts)]


def _map_alone(requests):
    """(inputs, outputs) of each request, one map per request."""
    return [(r.inputs, march([r])[0]) for r in requests]


def _default_inputs(grid):
    """Five fixed band-limited packets (centre, frequency, width), stacked."""
    cfg = [(0.0, 0.0, 0.5), (1.0, 0.3, 0.2), (-0.8, 3.0, 0.3),
           (0.5, -2.0, 0.15), (-1.2, 1.0, 0.4)]
    return _stack([_q.coherent_data(grid, [z] * grid.n, [fr] * grid.n, h)
                   for z, fr, h in cfg])


# ---------------------------------------------------------------------------


def check_free_identity(grid: _q.Grid, params: _q.SolverParams = _q.SolverParams(),
                        tol: float = 1e-6, span: float = 1.0,
                        control: bool = False, out_dir=None) -> CheckReport:
    """The flat operator's map must return its input.

    Runs the full pipeline (data -> field before the window -> propagate ->
    data) over [-span, span].  ``control`` flips the extraction multiplier
    (negative control: must fail)."""
    refuse_arguments(check_free_identity, locals())
    spec = flat_spec(grid.n)
    f = _default_inputs(grid)
    u = _q.propagate_window(spec, _q.poisson_free(f, -span), span, params)
    if control:
        bad = np.exp(-1j * u.time * grid.dual_norm_sq()) * _q.forward_ft(grid, u.values)
        f_out = _q.SpectralData(grid=grid, values=bad)
    else:
        f_out = _q.extract_asymptotic(u, spec)
    rows = list(enumerate(_relative_defects(f_out, f)))
    measured = [Measurement(f"identity-defect-{k}", err, tol) for k, err in rows]
    return CheckReport(name="free-identity", measured=measured, control=control,
                       artifacts=_write_csv(out_dir, "identity_defects.csv",
                                            ["input", "rel_error"], rows))


def _unitarity_requests(spec, grid, params, control, **_):
    if control:
        spec = replace(spec, potential_terms=tuple(
            replace(p, amplitude=p.amplitude.real - 0.3j * abs(p.amplitude))
            for p in spec.potential_terms))
    elif not spec.metric_is_flat:
        raise ValidationError("unitarity check requires a flat metric",
                              invariant="unitarity-flat-metric")
    elif any(abs(p.amplitude.imag) > 0 for p in spec.potential_terms):
        raise ValidationError("unitarity check requires a real potential",
                              invariant="unitarity-real-potential")
    return [MapRequest(spec, grid, params, 1.0, _default_inputs(grid))]


def check_unitarity(spec: PerturbationSpec, grid: _q.Grid,
                    params: _q.SolverParams = _q.SolverParams(),
                    tol: float = 1e-6, control: bool = False,
                    out_dir=None, mapped=None) -> CheckReport:
    """Norm preservation of the map for flat metric and real potential.

    With ``control`` the potential is made dissipative (Im V < 0), losing
    mass; the resulting report must fail."""
    refuse_arguments(check_unitarity, locals())
    [(f, fp)] = mapped or _map_alone(_unitarity_requests(spec, grid, params, control))
    defects = abs(fp.norm() - f.norm()) / f.norm()
    rows = list(enumerate(defects))
    measured = [Measurement(f"norm-defect-{k}", float(defect), tol) for k, defect in rows]
    return CheckReport(name="unitarity", measured=measured, control=control,
                       artifacts=_write_csv(out_dir, "norm_defects.csv",
                                            ["input", "rel_defect"], rows))


def _pairing_requests(spec, grid, params, refine, control, **_):
    """f by S and g by S* (by S for the control), then the same at
    (dt/2, 2N) with ``refine``."""
    levels = [(grid, params)]
    if refine:
        levels.append((_q.Grid(n=grid.n, N=2 * grid.N, L=grid.L),
                       replace(params, dt=0.5 * params.dt)))
    requests = []
    for g_, p_ in levels:
        f = _q.coherent_data(g_, [1.0] * g_.n, [0.3] * g_.n, 0.2)
        g = _q.coherent_data(g_, [0.7] * g_.n, [-0.5] * g_.n, 0.3)
        requests += [MapRequest(spec, g_, p_, 1.0, f),
                     MapRequest(spec, g_, p_, 1.0 if control else -1.0, g)]
    return requests


def check_pairing(spec: PerturbationSpec, grid: _q.Grid,
                  params: _q.SolverParams = _q.SolverParams(),
                  tol: float = 5e-4, refine: bool = False,
                  refine_factor: float = 3.0, control: bool = False,
                  out_dir=None, mapped=None) -> CheckReport:
    """<f_+, g_+> = <f_-, g_-> for the map and its adjoint.

    With ``refine`` the run is repeated at (dt/2, 2N) and the residual must
    shrink by at least ``refine_factor``.  The ``control`` variant replaces
    the adjoint route by the plain map (a broken adjoint) and must fail."""
    refuse_arguments(check_pairing, locals())
    pairs = mapped or _map_alone(_pairing_requests(spec, grid, params, refine, control))
    residuals = [abs(fp.inner(g) - f.inner(gm)) / (f.norm() * g.norm())
                 for (f, fp), (g, gm) in zip(pairs[::2], pairs[1::2])]
    r0 = residuals[0]
    measured = [Measurement("pairing-residual", float(r0), tol)]
    rows = [(grid.N, params.dt, r0)]
    if refine:
        r1 = residuals[1]
        rows.append((2 * grid.N, 0.5 * params.dt, r1))
        # refinement must shrink the residual by >= refine_factor
        measured.append(Measurement("refinement-shrink",
                                    float(refine_factor - r0 / max(r1, 1e-300)), 0.0))
    return CheckReport(name="pairing", measured=measured, control=control,
                       artifacts=_write_csv(out_dir, "pairing_residuals.csv",
                                            ["N", "dt", "residual"], rows))


def check_symplectic(spec: PerturbationSpec, samples: int = 20,
                     h_fd: float = 1e-4, tol_flow: float = 1e-11, tol: float = 1e-6,
                     seed: int = 2, control: bool = False, out_dir=None) -> CheckReport:
    """J^T Omega J = Omega for the scattering-map Jacobian over random beams.

    ``control`` scales one Jacobian row (a non-symplectic matrix), verifying
    the defect metric is discriminating; that control must fail."""
    refuse_arguments(check_symplectic, locals())
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for k in range(samples):
        Z = rng.uniform(0.5, 2.0, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        frak = rng.uniform(-1.0, 1.0, spec.n)
        jac = _flow.scatter_jacobian(spec, CuspData(Z=Z, frak=frak), h_fd=h_fd, tol=tol_flow)
        if control:
            jac = jac.copy()
            jac[0, :] *= 1.05
        defect = _flow.symplectic_defect(jac)
        worst = max(worst, defect)
        rows.append((k, defect))
    return CheckReport(name="symplectic", control=control,
                       measured=[Measurement("max-symplectic-defect", worst, tol)],
                       artifacts=_write_csv(out_dir, "symplectic_defects.csv",
                                            ["beam", "defect"], rows))


def radial_seed(spec: PerturbationSpec, c_in: CuspData, tol: float):
    """The bicharacteristic of ``c_in`` two time units before the window
    (before t = -1 without one): where the radial diagnostic, flowing at
    ``tol``, starts."""
    return bichar_from_cusp(c_in, (spec.time_window() or (-1.0, 1.0))[0] - 2.0, tol)


def fittable_radial(report, field):
    """The flow.RadialReport ``report``, or an InvalidArgument naming
    ``field``, the beam's frequency offset, when some backward sample |w|
    is exactly 0: the incoming beam then lies on its radial set, or so
    near it that its |w| samples are round-off, and its decay exponent has
    nothing to fit (an offset of 1e-13 on bump_metric read 0.92)."""
    if not np.all(report.samples_backward[:, 1]):
        raise InvalidArgument(field, "puts the incoming beam on its radial set: |w| is exactly 0 "
                              "at a backward sample, so no decay exponent can be fitted")
    return report


def check_radial(spec: PerturbationSpec, Z0: Beam, frak0: Beam, horizon: float = 1e6,
                 tol_flow: float = 1e-11, exponent_tol: float = 0.01,
                 limit_tol: float = 1e-8, control: bool = False,
                 out_dir=None) -> CheckReport:
    """Radial-set convergence: |z/(2t) - zeta| decays like 1/|t| and its
    limits reproduce the scattering map computed independently.

    ``control`` offsets the scattering target (broken cross-check; must fail)."""
    refuse_arguments(check_radial, locals())
    c_in = CuspData(Z=Z0, frak=frak0)
    report = fittable_radial(_flow.radial_convergence(spec, radial_seed(spec, c_in, tol_flow),
                                                      horizon=horizon, tol=tol_flow), "frak0")
    scatter = _flow.classical_scatter(spec, c_in, tol=tol_flow)
    target = scatter.c_out.pair() + (0.1 if control else 0.0)
    fwd_err = float(np.max(np.abs(report.limit_forward.pair() - target)))
    bwd_err = float(np.max(np.abs(report.limit_backward.pair() - c_in.pair())))
    measured = [
        Measurement("exponent-forward", abs(report.exponent_forward - 1.0), exponent_tol),
        Measurement("exponent-backward", abs(report.exponent_backward - 1.0), exponent_tol),
        Measurement("forward-limit-vs-scatter", fwd_err, limit_tol),
        Measurement("backward-limit-vs-input", bwd_err, limit_tol),
    ]
    rows = [(t, w, +1) for t, w in report.samples_forward]
    rows += [(t, w, -1) for t, w in report.samples_backward]
    return CheckReport(name="radial", measured=measured, control=control,
                       artifacts=_write_csv(out_dir, "radial_decay.csv",
                                            ["t", "abs_w", "direction"], rows))


def _family_requests(spec, grid, Z0, frak0, h_list, params, **_):
    """The coherent packet of (Z0, frak0) at each width of ``h_list``,
    stacked, by S: the families of egorov and noncompact."""
    return [MapRequest(spec, grid, params, 1.0,
                       _stack([_q.coherent_data(grid, Z0, frak0, h) for h in h_list]))]


def check_egorov(spec: PerturbationSpec, grid: _q.Grid, Z0: Beam, frak0: Beam,
                 h_list: Widths, params: _q.SolverParams = _q.SolverParams(),
                 rel_cap: float = 0.05, abs_cap: float = 1e-6,
                 tol_flow: float = 1e-12, control: bool = False,
                 out_dir=None, mapped=None) -> CheckReport:
    """Wavepacket moments of the quantum map track the classical map.

    e(h) must decrease along the (decreasing) h list and the final error
    must stay below ``rel_cap`` times the classical displacement.  When the
    classical map leaves the beam fixed (flat or pure-potential control
    runs), the absolute errors are capped by ``abs_cap`` instead and no
    trend is required.  The classical prediction is cross-validated against
    the radial-convergence diagnostic (an independent code path), with the
    flow tolerance capped at 1e-12.  ``control`` reflects the classical
    target (a broken prediction: must fail)."""
    refuse_arguments(check_egorov, locals())
    tol_flow = min(tol_flow, 1e-12)
    c_in = CuspData(Z=np.atleast_1d(Z0), frak=np.atleast_1d(frak0))
    scatter = _flow.classical_scatter(spec, c_in, tol=tol_flow)
    target = scatter.c_out.pair()
    displacement = scatter.displacement
    if control:
        target = 2.0 * c_in.pair() - target

    # the cross-check reads the forward radial limit only
    _, limit, _ = _flow._radial_direction(spec, radial_seed(spec, c_in, tol_flow), 1.0,
                                          horizon=1e6, tol=tol_flow)
    cross = float(np.max(np.abs(limit.pair() - target)))

    [(_, fp)] = mapped or _map_alone(_family_requests(spec, grid, Z0, frak0, h_list, params))
    errors = [float(np.linalg.norm(np.concatenate(_q.packet_moments(
        _q.SpectralData(grid=grid, values=values))) - target)) for values in fp.values]
    rows = [(h, e, e / displacement if displacement else np.nan) for h, e in zip(h_list, errors)]
    measured = [Measurement("classical-crosscheck", cross, CROSSCHECK_TOL)]
    if displacement > 0.0:
        trend = max(np.diff(errors), default=-1.0)
        measured.append(Measurement("moment-error-trend", float(trend), 0.0))
        measured.append(Measurement("final-relative-error",
                                    errors[-1] / displacement, rel_cap))
    else:
        measured.append(Measurement("max-absolute-moment-drift",
                                    float(max(errors)), abs_cap))
    return CheckReport(name="egorov", measured=measured, control=control,
                       note=f"classical displacement {displacement:.6g}",
                       artifacts=_write_csv(out_dir, "egorov_errors.csv",
                                            ["h", "error", "relative"], rows))


def _eikonal_requests(spec, grid, Z0, frak0, h, params, **_):
    """The packet by S, under ``spec`` and under its doubled potential."""
    if not spec.metric_is_flat:
        raise ValidationError("eikonal check requires a flat metric",
                              invariant="eikonal-flat-metric")
    sup = max((abs(p.amplitude) for p in spec.potential_terms), default=0.0)
    if sup > 0.1 + 1e-12:
        raise ValidationError("eikonal check requires ||V|| <= 0.1",
                              invariant="eikonal-weak-potential")
    doubled = replace(spec, potential_terms=tuple(
        replace(p, amplitude=2.0 * p.amplitude) for p in spec.potential_terms))
    f = _q.coherent_data(grid, Z0, frak0, h)
    return [MapRequest(s, grid, params, 1.0, f) for s in (spec, doubled)]


def check_eikonal_phase(spec: PerturbationSpec, grid: _q.Grid, Z0: Beam, frak0: Beam,
                        h: float = 0.25, params: _q.SolverParams = _q.SolverParams(),
                        rel_tol: float = 0.05, abs_tol: float = 0.01,
                        linearity_tol: float = 0.1, tol_flow: float = 1e-11,
                        control: bool = False, out_dir=None,
                        mapped=None) -> CheckReport:
    """arg<Sf, f> equals minus the potential integral along the straight beam.

    The classical side is the potential phase of the classical scattering
    map; the perturbation must have a flat metric, so the beam is straight,
    and a weak real potential.  Doubling the amplitude must double the
    measured phase within ``linearity_tol``.  ``control`` compares against
    the sign-flipped integral (must fail)."""
    refuse_arguments(check_eikonal_phase, locals())
    pairs = mapped or _map_alone(_eikonal_requests(spec, grid, Z0, frak0, h, params))
    phi_num, phi_num2 = (float(np.angle(fp.inner(f))) for f, fp in pairs)
    phase = _flow.classical_scatter(spec, CuspData(Z0, frak0), tol=tol_flow).potential_phase
    phi_cl = phase if control else -phase
    measured = [Measurement("phase-mismatch", abs(phi_num - phi_cl),
                            rel_tol * abs(phi_cl) + abs_tol)]
    if abs(phi_num) > 1e-6:      # linearity ratio is meaningful
        lin = abs(phi_num2 / (2.0 * phi_num) - 1.0)
        measured.append(Measurement("amplitude-linearity", float(lin), linearity_tol))
    else:
        phi_num2 = float("nan")
    return CheckReport(name="eikonal", measured=measured, control=control,
                       note=f"phi_num={phi_num:.6g} phi_cl={phi_cl:.6g}",
                       artifacts=_write_csv(out_dir, "eikonal_phase.csv",
                                            ["phi_numeric", "phi_classical", "phi_doubled"],
                                            [(phi_num, phi_cl, phi_num2)]))


def _packet_width(h, t):
    """Physical 1-sigma width of the coherent packet at time t (inf where it overflows)."""
    return float(np.sqrt((1.0 + 4.0 * (h * h) * (t * t)) / (2.0 * h)))


def packet_extent(arguments, horizon):
    """How far from 0 the widest packet of a check's ``arguments`` reaches over
    [-horizon, horizon] (inf on overflow); None for a check without one."""
    widths = [arguments["h"]] if "h" in arguments else arguments.get("h_list")
    if widths is None:   # a check with packet widths has a Z0 and a frak offset
        return None
    offsets = [np.max(np.abs(arguments[key])) for key in ("frak0", "frak_far", "frak_through")
               if arguments.get(key) is not None]
    with np.errstate(over="ignore"):
        return (2.0 * horizon * np.max(np.abs(arguments["Z0"])) + max(offsets)
                + 6.0 * max(_packet_width(h, horizon) for h in widths))


def _highfreq_requests(spec, grid, Z0, frak_far, frak_through, h, params, **_):
    Z0 = np.atleast_1d(np.asarray(Z0, dtype=float))
    frak_far = np.atleast_1d(np.asarray(frak_far, dtype=float))
    window = spec.time_window()

    if window is not None:
        # precondition: the beam must miss the support by >= 5 packet widths
        width = _packet_width(h, max(abs(window[0]), abs(window[1])))
        min_dist = np.inf
        for term in spec.terms():
            ts = np.linspace(term.center_t - term.radius_t,
                             term.center_t + term.radius_t, 101)
            beams = 2.0 * ts[:, None] * Z0 - frak_far
            d = np.linalg.norm(beams - term.center_z, axis=1) - term.radius_z
            min_dist = min(min_dist, float(np.min(d)))
        if min_dist < 5.0 * width:
            raise ValidationError(
                f"beam misses the support by {min_dist:.3g} < 5 packet widths "
                f"({5 * width:.3g})", invariant="highfreq-beam-offset")

    fraks = [frak for frak in (frak_far, frak_through) if frak is not None]
    return [MapRequest(spec, grid, params, 1.0,
                       _stack([_q.coherent_data(grid, Z0, frak, h) for frak in fraks]))]


def check_highfreq_identity(spec: PerturbationSpec, grid: _q.Grid, Z0: Beam,
                            frak_far: Beam, frak_through: Beam | None = None,
                            h: float = 0.5, params: _q.SolverParams = _q.SolverParams(),
                            tol: float = 1e-3, control_floor: float = 1e-1,
                            out_dir=None, mapped=None) -> CheckReport:
    """Beams offset far (in the 1-cusp frequency) from the perturbation are
    scattered trivially; a beam through it is not (positive control)."""
    refuse_arguments(check_highfreq_identity, locals())
    [(f, fp)] = mapped or _map_alone(
        _highfreq_requests(spec, grid, Z0, frak_far, frak_through, h, params))
    defects = _relative_defects(fp, f)
    far = defects[0]
    measured = [Measurement("far-beam-defect", far, tol)]
    rows = [(float(np.linalg.norm(np.asarray(frak_far, dtype=float))), far)]
    if frak_through is not None:
        through = defects[1]
        measured.append(Measurement("control-discriminates",
                                    float(control_floor - through), 0.0))
        rows.append((float(np.linalg.norm(np.atleast_1d(frak_through))), through))
    return CheckReport(name="highfreq", measured=measured,
                       artifacts=_write_csv(out_dir, "highfreq_defects.csv",
                                            ["frak_offset", "defect"], rows))


def _noncompact_test_functions(grid):
    """Three fixed smooth test functions on the dual grid."""
    mesh = grid.mesh_Z()
    r2 = sum(m**2 for m in mesh)
    phis = [
        np.exp(-r2 / 2.0),
        mesh[0] * np.exp(-r2 / 4.0),
        np.cos(mesh[0]) * np.exp(-r2 / 3.0),
    ]
    return [_q.SpectralData(grid=grid, values=p.astype(complex)) for p in phis]


def check_noncompactness(spec: PerturbationSpec, grid: _q.Grid, Z0: Beam, frak0: Beam,
                         h_list: Widths = (0.1, 0.05, 0.02, 0.01),
                         params: _q.SolverParams = _q.SolverParams(),
                         c_floor: float | None = None,
                         control: bool = False, out_dir=None,
                         mapped=None) -> CheckReport:
    """A weakly-null coherent family keeps ||(S - Id) f_k|| bounded below.

    ``h_list`` must be strictly decreasing.  The floor c defaults to half
    the value sqrt(2 - 2 Re<Sf, f>) observed at the largest h, the first;
    controls (e.g. the flat spec, whose self-derived floor
    degenerates to zero) pass an explicit positive floor the family must
    fail to clear.  Weak nullity is proxied by |<f_k, phi>| decreasing for
    three fixed test functions."""
    refuse_arguments(check_noncompactness, locals())
    [(f, fp)] = mapped or _map_alone(_family_requests(spec, grid, Z0, frak0, h_list, params))
    norms = _q.SpectralData(grid=grid, values=fp.values - f.values).norm()
    if c_floor is None:
        c_floor = 0.5 * float(np.sqrt(max(2.0 - 2.0 * np.real(fp.inner(f)[0]), 0.0)))
    # |<f_k, phi>|, one row per h; hypot rounds as abs() of one complex
    inners = np.array([f.inner(phi) for phi in _noncompact_test_functions(grid)]).T
    overlaps = np.hypot(inners.real, inners.imag)
    rows = [(h, norm, *ov) for h, norm, ov in zip(h_list, norms, overlaps)]
    weak_trend = float(np.max(np.diff(overlaps, axis=0))) if len(h_list) > 1 else -1.0
    measured = [
        Measurement("weak-null-trend", weak_trend, 0.0),
        Measurement("difference-norm-floor", float(c_floor - np.min(norms)), 0.0),
        Measurement("difference-norm-ceiling", float(np.max(norms)), 2.0 + 1e-9),
    ]
    return CheckReport(name="noncompact", measured=measured, control=control,
                       note=f"floor c = {c_floor:.6g}",
                       artifacts=_write_csv(out_dir, "noncompact_family.csv",
                                            ["h", "diff_norm", "overlap_1", "overlap_2",
                                             "overlap_3"], rows))


# job name -> (name of its check, planner of the maps the check needs or
# None).  The check's keyword arguments are the job's parameters, and a
# planner takes them by name.  The check is looked up at call time, so a
# wrapper installed on a verify function sees the call.
JOB_FAMILIES = {
    "free-identity": ("check_free_identity", None),
    "unitarity": ("check_unitarity", _unitarity_requests),
    "pairing": ("check_pairing", _pairing_requests),
    "symplectic": ("check_symplectic", None),
    "radial": ("check_radial", None),
    "egorov": ("check_egorov", _family_requests),
    "eikonal": ("check_eikonal_phase", _eikonal_requests),
    "highfreq": ("check_highfreq_identity", _highfreq_requests),
    "noncompact": ("check_noncompactness", _family_requests),
}


def plan(job: str, arguments: dict) -> list:
    """The :class:`MapRequest` s of job ``job``, given every argument of its
    check by name; [] for a check that maps nothing up front."""
    planner = JOB_FAMILIES[job][1]
    return planner(**arguments) if planner else []
