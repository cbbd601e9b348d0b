"""Property checks wiring the classical flow against the quantum map.

Every check produces a :class:`CheckReport` whose status is a pure function
of its measurements: each measurement passes iff ``value <= tolerance``.
Quantities that must *exceed* a threshold are encoded as
``threshold - observed`` so the same rule applies.  Checks are deterministic
given their inputs and seeds, and emit plot-ready CSV artifacts when given
an output directory.

A grid check is split into what it maps and what it measures.  Its planner
returns the maps its first round needs as :class:`MapRequest` s (spec, grid,
solver parameters, direction and inputs).  :data:`JOB_FAMILIES` is the one
table of job families: it names each job's check and planner, and
:func:`plan` reads it.  The check measures from the (inputs, outputs) pairs
in its ``mapped`` argument, in its planner's order.  A scenario run fills
``mapped`` from one :func:`march` per operator shared by its jobs; without
it the check plans and maps by itself, one march per request.  A job whose
planning raises, or whose group's march raises, is run that second way, so
its report is its solo report.  A map whose input depends on an earlier
output, eikonal's doubled amplitude, stays inside its check.
"""

from __future__ import annotations

import json
import numbers
import os
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


def refuse_arguments(arguments):
    """Refuse a check's ``arguments`` (its ``locals()``) by the type of their
    values.  Every real number that is not a bool (a tolerance, threshold,
    step, width, horizon, scale, floor or count) must be positive and finite;
    ``seed`` may be 0, and ``tol_flow`` stays below 1, as the flow's own
    tolerance.  ``h_list`` must be a non-empty, strictly decreasing list of
    positive numbers.  A break raises an InvalidArgument naming the argument
    (see errors.in_range)."""
    for name, value in arguments.items():
        if name == "h_list":
            widths = [in_range(name, h, 0.0) for h in value] if np.ndim(value) == 1 else []
            if not widths or any(a <= b for a, b in zip(widths, widths[1:])):
                raise InvalidArgument(name, f"= {value!r} must be a non-empty, strictly "
                                            "decreasing list of positive numbers")
        elif isinstance(value, numbers.Real) and not isinstance(value, bool):
            in_range(name, value, -1.0 if name == "seed" else 0.0,
                     1.0 if name == "tol_flow" else np.inf)


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
    refuse_arguments(locals())
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
    else:
        if not spec.metric_is_flat:
            raise ValidationError("unitarity check requires a flat metric",
                                  invariant="unitarity-flat-metric")
        if any(abs(p.amplitude.imag) > 0 for p in spec.potential_terms):
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
    refuse_arguments(locals())
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
    refuse_arguments(locals())
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
    refuse_arguments(locals())
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for k in range(samples):
        Z = rng.uniform(0.5, 2.0, spec.n) * rng.choice([-1.0, 1.0], spec.n)
        frak = rng.uniform(-1.0, 1.0, spec.n)
        jac = _flow.scatter_jacobian(spec, CuspData(Z=Z, frak=frak),
                                     h_fd=h_fd, tol=tol_flow)
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


def check_radial(spec: PerturbationSpec, Z0, frak0, horizon: float = 1e6,
                 tol_flow: float = 1e-11, exponent_tol: float = 0.01,
                 limit_tol: float = 1e-8, control: bool = False,
                 out_dir=None) -> CheckReport:
    """Radial-set convergence: |z/(2t) - zeta| decays like 1/|t| and its
    limits reproduce the scattering map computed independently.

    ``control`` offsets the scattering target (broken cross-check; must fail)."""
    refuse_arguments(locals())
    c_in = CuspData(Z=Z0, frak=frak0)
    report = _flow.radial_convergence(spec, radial_seed(spec, c_in, tol_flow), horizon=horizon,
                                      tol=tol_flow)
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


def check_egorov(spec: PerturbationSpec, grid: _q.Grid, Z0, frak0, h_list,
                 params: _q.SolverParams = _q.SolverParams(),
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
    refuse_arguments(locals())
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
    errors = []
    rows = []
    for h, values in zip(h_list, fp.values):
        zbar, frakbar = _q.packet_moments(_q.SpectralData(grid=grid, values=values))
        e = float(np.linalg.norm(np.concatenate([zbar, frakbar]) - target))
        errors.append(e)
        rows.append((h, e, e / displacement if displacement else np.nan))
    measured = [Measurement("classical-crosscheck", cross, CROSSCHECK_TOL)]
    if displacement > 0.0:
        trend = max((errors[i + 1] - errors[i] for i in range(len(errors) - 1)),
                    default=-1.0)
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
    """The first map only: the doubled amplitude's waits for its phase."""
    return [MapRequest(spec, grid, params, 1.0, _q.coherent_data(grid, Z0, frak0, h))]


def check_eikonal_phase(spec: PerturbationSpec, grid: _q.Grid, Z0, frak0,
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
    refuse_arguments(locals())
    if not spec.metric_is_flat:
        raise ValidationError("eikonal check requires a flat metric",
                              invariant="eikonal-flat-metric")
    sup = max((abs(p.amplitude) for p in spec.potential_terms), default=0.0)
    if sup > 0.1 + 1e-12:
        raise ValidationError("eikonal check requires ||V|| <= 0.1",
                              invariant="eikonal-weak-potential")

    def numeric_phase(pairs):
        [(f, fp)] = pairs
        return float(np.angle(fp.inner(f)))

    phase = _flow.classical_scatter(spec, CuspData(Z0, frak0), tol=tol_flow).potential_phase
    phi_cl = phase if control else -phase
    phi_num = numeric_phase(mapped or _map_alone(
        _eikonal_requests(spec, grid, Z0, frak0, h, params)))
    measured = [Measurement("phase-mismatch", abs(phi_num - phi_cl),
                            rel_tol * abs(phi_cl) + abs_tol)]
    phi_num2 = None
    if abs(phi_num) > 1e-6:      # linearity ratio is meaningful
        doubled = replace(spec, potential_terms=tuple(
            replace(p, amplitude=2.0 * p.amplitude) for p in spec.potential_terms))
        phi_num2 = numeric_phase(_map_alone(
            _eikonal_requests(doubled, grid, Z0, frak0, h, params)))
        lin = abs(phi_num2 / (2.0 * phi_num) - 1.0)
        measured.append(Measurement("amplitude-linearity", float(lin), linearity_tol))
    return CheckReport(name="eikonal", measured=measured, control=control,
                       note=f"phi_num={phi_num:.6g} phi_cl={phi_cl:.6g}",
                       artifacts=_write_csv(
                           out_dir, "eikonal_phase.csv",
                           ["phi_numeric", "phi_classical", "phi_doubled"],
                           [(phi_num, phi_cl,
                             phi_num2 if phi_num2 is not None else float("nan"))]))


def _packet_width(h, t):
    """Physical 1-sigma width of the coherent packet at time t (inf where it overflows)."""
    return float(np.sqrt((1.0 + 4.0 * (h * h) * (t * t)) / (2.0 * h)))


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

    fraks = [frak_far]
    if frak_through is not None:
        fraks.append(np.atleast_1d(np.asarray(frak_through, dtype=float)))
    return [MapRequest(spec, grid, params, 1.0,
                       _stack([_q.coherent_data(grid, Z0, frak, h) for frak in fraks]))]


def check_highfreq_identity(spec: PerturbationSpec, grid: _q.Grid, Z0,
                            frak_far, frak_through=None, h: float = 0.5,
                            params: _q.SolverParams = _q.SolverParams(),
                            tol: float = 1e-3, control_floor: float = 1e-1,
                            out_dir=None, mapped=None) -> CheckReport:
    """Beams offset far (in the 1-cusp frequency) from the perturbation are
    scattered trivially; a beam through it is not (positive control)."""
    refuse_arguments(locals())
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


def check_noncompactness(spec: PerturbationSpec, grid: _q.Grid, Z0, frak0,
                         h_list=(0.1, 0.05, 0.02, 0.01),
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
    refuse_arguments(locals())
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


# job name -> (name of its check, planner of the check's first-round maps or
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
    """The :class:`MapRequest` s of the first round of job ``job``, given
    every argument of its check by name; [] for a check that maps nothing
    up front."""
    planner = JOB_FAMILIES[job][1]
    return planner(**arguments) if planner else []
