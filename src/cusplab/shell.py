"""Scenario files, the job runner, and the command-line interface.

A scenario is a JSON document (conventionally ``*.scn``) with a versioned
schema describing the perturbation, grid, solver parameters, and a list of
check jobs.  Every CLI subcommand maps one-to-one onto a library operation;
the CLI only parses arguments and forwards them.

:func:`run` first collects the map requests of the selected jobs' grid
checks (:func:`verify.plan`) and groups them by operator: spec object,
grid, solver parameters and direction.  Each group is mapped by one
:func:`verify.march`, in a process pool with ``jobs`` > 1.  Then every job
runs its check in this process, which measures from its slices.  A job
whose requests cannot be planned, or whose input a shared march would
refuse, stays out of every group, and the jobs of a group whose march
raises map alone: either way the check maps by itself, so every report is
the job's solo report.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import quantum, verify
from .errors import CuspLabError, NotPositiveDefinite, ParseError, ValidationError
from .flow import (
    classical_scatter,
    integrate,
    radial_convergence,
    scatter_jacobian,
    symplectic_defect,
)
from .phasespace import CuspData, bichar_from_cusp
from .quantum import (
    Grid,
    SolverParams,
    coherent_data,
    dump_field,
    export_spectrum_csv,
    packet_moments,
    poisson_free,
    propagate_window,
    scattering_map,
    window_span,
)
from .symbols import MetricBump, PerturbationSpec, PotentialTerm

SCHEMA_VERSION = 1
OUT_ENV_VAR = "CUSPLAB_OUT"
# solver keys: the SolverParams fields, read with their defaults and typed
# like them, and the flow's tolerance
SOLVER_FIELDS = fields(SolverParams)
SOLVER_KEYS = tuple(f.name for f in SOLVER_FIELDS) + ("flow_tol",)
SCENARIO_KEYS = ("schema_version", "name", "dimension", "perturbation", "grid",
                 "solver", "seed", "jobs")
TERM_KEYS = ("amplitude", "center_z", "center_t", "radius_z", "radius_t")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: perturbation + grid + solver + job list."""

    name: str
    n: int
    spec: PerturbationSpec
    grid: Grid | None
    solver: SolverParams
    flow_tol: float
    seed: int
    jobs: tuple


def _real(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


def _reals(value, n):
    """Whether ``value`` is a JSON list of n finite numbers."""
    return isinstance(value, list) and len(value) == n and all(map(_real, value))


def _is(value, kind):
    """JSON type test: a float is any finite real number; an int or a bool
    must be exactly that."""
    if kind is float:
        return _real(value)
    return type(value) is kind if kind in (int, bool) else isinstance(value, kind)


def _require(mapping, key, kind, where, default=None):
    """``mapping[key]``, which must have JSON type ``kind``; ``default`` when
    the entry is absent, if a default is given."""
    if key not in mapping:
        if default is not None:
            return default
        raise ParseError(f"missing required entry '{key}'", field=f"{where}.{key}")
    if not _is(mapping[key], kind):
        raise ParseError(f"entry '{key}' must be of type {kind.__name__}",
                         field=f"{where}.{key}")
    return float(mapping[key]) if kind is float else mapping[key]


def _known(mapping, keys, where):
    """``mapping``, which must be a JSON object holding no entry outside
    ``keys``; a ParseError names the section or the entry at fault."""
    if not isinstance(mapping, dict):
        raise ParseError("section must be a JSON object", field=where)
    for key in mapping:
        if key not in keys:
            raise ParseError(f"unknown entry '{key}' (allowed: {', '.join(keys)})",
                             field=f"{where}.{key}")
    return mapping


@contextmanager
def _fields(where, keys=None):
    """Turn a constructor's ValueError or TypeError into a ParseError naming
    the field at fault: ``keys`` maps the message's first word, the parameter
    at fault, to its key in section ``where``; otherwise the section."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        key = (keys or {}).get(str(exc).split(" ", 1)[0])
        raise ParseError(str(exc), field=f"{where}.{key}" if key else where) from exc


def _numbers(mapping, key, shape, where):
    """``mapping[key]``, which must be a JSON list of ``shape[0]`` finite
    numbers, or for a ``shape`` (rows, n) a list of ``rows`` such lists of n."""
    value = _require(mapping, key, list, where)
    *rows, n = shape
    if not (_reals(value, n) if not rows else
            len(value) == rows[0] and all(_reals(row, n) for row in value)):
        what = f"{rows[0]} lists of {n}" if rows else f"a list of {n}"
        raise ParseError(f"{key} must be {what} finite numbers", field=f"{where}.{key}")
    return value


def _parse_perturbation(doc, n):
    _known(doc, ("bumps", "potential_terms"), "perturbation")
    bumps = []
    for i, b in enumerate(doc.get("bumps", [])):
        where = f"perturbation.bumps[{i}]"
        _known(b, TERM_KEYS + ("pattern",), where)
        with _fields(where):
            bumps.append(MetricBump(
                amplitude=_require(b, "amplitude", float, where),
                center_z=_numbers(b, "center_z", (n,), where),
                center_t=_require(b, "center_t", float, where),
                radius_z=_require(b, "radius_z", float, where),
                radius_t=_require(b, "radius_t", float, where),
                pattern=np.asarray(_numbers(b, "pattern", (n, n), where), dtype=float),
            ))
    pots = []
    for i, p in enumerate(doc.get("potential_terms", [])):
        where = f"perturbation.potential_terms[{i}]"
        _known(p, TERM_KEYS, where)
        amp = _numbers(p, "amplitude", (2,), where)
        with _fields(where):
            pots.append(PotentialTerm(
                amplitude=complex(amp[0], amp[1]),
                center_z=_numbers(p, "center_z", (n,), where),
                center_t=_require(p, "center_t", float, where),
                radius_z=_require(p, "radius_z", float, where),
                radius_t=_require(p, "radius_t", float, where),
            ))
    with _fields("perturbation"):
        try:
            return PerturbationSpec(n=n, bumps=tuple(bumps), potential_terms=tuple(pots))
        except NotPositiveDefinite as exc:
            raise ValidationError(str(exc), invariant="NotPositiveDefinite") from exc


def _validate_scenario(sc: Scenario):
    if sc.grid is None:
        return
    if sc.spec.spatial_extent() > 0.8 * sc.grid.L:
        raise ValidationError(
            f"perturbation support (extent {sc.spec.spatial_extent():.3g}) "
            f"exceeds 80% of the spatial box (L = {sc.grid.L})",
            invariant="support-inside-box")
    horizon = window_span(sc.spec, sc.solver)
    for job in sc.jobs:
        params = job["params"]
        # the job's semiclassical parameters: its h, or else its h_list
        hs = [params["h"]] if "h" in params else params.get("h_list", [])
        offsets = [np.max(np.abs(params[key]))
                   for key in ("frak0", "frak_far", "frak_through")
                   if params.get(key) is not None]
        if not hs or "Z0" not in params or not offsets:
            continue
        # the widest packet, at the largest offset, over the whole horizon
        extent = (2.0 * horizon * np.max(np.abs(params["Z0"])) + max(offsets)
                  + 6.0 * max(verify._packet_width(h, horizon) for h in hs))
        if extent > 0.95 * sc.grid.L:
            raise ValidationError(f"job '{job['check']}' needs extent {extent:.3g} "
                                  f"> 95% of the box (L = {sc.grid.L})",
                                  invariant="grid-accommodates-jobs")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    _known(doc, SCENARIO_KEYS, "scenario")
    version = _require(doc, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}",
                         field="scenario.schema_version")
    name = _require(doc, "name", str, "scenario")
    n = _require(doc, "dimension", int, "scenario")
    spec = _parse_perturbation(doc.get("perturbation", {}), n)

    grid = None
    if doc.get("grid") is not None:
        gdoc = _known(doc["grid"], ("points", "half_width"), "grid")
        with _fields("grid", {"N": "points", "L": "half_width"}):
            grid = Grid(n=n, N=_require(gdoc, "points", int, "grid"),
                        L=_require(gdoc, "half_width", float, "grid"))

    sdoc = _known(doc.get("solver", {}), SOLVER_KEYS, "solver")
    with _fields("solver", {f.name: f.name for f in SOLVER_FIELDS}):
        solver = SolverParams(**{
            f.name: _require(sdoc, f.name, type(f.default), "solver", f.default)
            for f in SOLVER_FIELDS})
    # a number out of range, infinities and NaN included, is refused as such
    # before the type test, which takes only finite numbers
    flow_tol = sdoc.get("flow_tol", 1e-11)
    if type(flow_tol) in (int, float) and not 0 < flow_tol < 1:
        raise ParseError(f"flow_tol must be a finite number in (0, 1), not {flow_tol!r}",
                         field="solver.flow_tol")
    flow_tol = _require(sdoc, "flow_tol", float, "solver", 1e-11)
    seed = _require(doc, "seed", int, "scenario", 0)
    if seed < 0:
        raise ParseError("seed must be nonnegative", field="scenario.seed")

    jobs = []
    for i, job in enumerate(doc.get("jobs", [])):
        where = f"jobs[{i}]"
        _known(job, ("check", "params", "control"), where)
        check = _require(job, "check", str, where)
        if check not in JOB_CHECKS:
            raise ParseError(f"unknown check '{check}'", field=f"{where}.check")
        params = _require(job, "params", dict, where, {})
        _validate_job(check, params, n, f"{where}.params")
        jobs.append({"check": check,
                     "params": dict(params),
                     "control": _require(job, "control", bool, where, False)})

    sc = Scenario(name=name, n=n, spec=spec, grid=grid, solver=solver,
                  flow_tol=flow_tol, seed=seed, jobs=tuple(jobs))
    _validate_scenario(sc)
    return sc


def bundled_scenario_path(name: str) -> str:
    """Path of a scenario shipped with the package (e.g. 'flat')."""
    from importlib.resources import files

    fname = name if name.endswith(".scn") else f"{name}.scn"
    return str(files("cusplab").joinpath("scenarios", fname))


def resolve_scenario(ref: str) -> Scenario:
    """Load from a filesystem path, falling back to the bundled set."""
    if os.path.exists(ref):
        return load_scenario(ref)
    bundled = bundled_scenario_path(ref)
    if os.path.exists(bundled):
        return load_scenario(bundled)
    raise ParseError(f"no scenario file or bundled scenario named '{ref}'")


# ---------------------------------------------------------------------------
# job dispatch


def _needs_grid(sc):
    if sc.grid is None:
        raise ValidationError("this job requires a grid section",
                              invariant="job-requires-grid")
    return sc.grid


# job name -> name of its verify check.  The check's keyword arguments are
# the job's parameters; it is looked up at call time, so a wrapper installed
# on a verify function sees the call.
JOB_CHECKS = {
    "free-identity": "check_free_identity",
    "unitarity": "check_unitarity",
    "pairing": "check_pairing",
    "symplectic": "check_symplectic",
    "radial": "check_radial",
    "egorov": "check_egorov",
    "eikonal": "check_eikonal_phase",
    "highfreq": "check_highfreq_identity",
    "noncompact": "check_noncompactness",
}
# check arguments the scenario fills, not the job
SCENARIO_ARGS = ("spec", "grid", "params", "tol_flow", "control", "out_dir", "mapped")
# tolerances multiplied by --tol-scale, given or defaulted
TOL_ARGS = ("tol", "rel_cap", "abs_cap", "exponent_tol", "limit_tol", "rel_tol",
            "abs_tol", "linearity_tol")
# beam vectors: lists of `dimension` finite numbers
VECTOR_ARGS = ("Z0", "frak0", "frak_far", "frak_through")


def _valid_arg(key, value, default, n):
    """Beam vectors have n finite entries and ``h_list`` is a non-empty,
    strictly decreasing list of positive numbers; a number, or an optional
    number (default None), has its default's type.  A number whose default
    is a positive float (a tolerance, a step, a horizon, a scale) and
    ``samples`` must be positive, and ``seed`` nonnegative."""
    if value is None and default is None:
        return True
    if key in VECTOR_ARGS:
        return _reals(value, n)
    if key == "h_list":
        return (isinstance(value, list) and bool(value)
                and all(_real(h) and h > 0 for h in value)
                and verify._decreasing(value))
    kind = float if default is None else type(default)
    if kind not in (float, int, bool):
        return True
    positive = key == "samples" or (kind is float and default is not None and default > 0)
    return (_is(value, kind) and not (positive and value <= 0)
            and not (key == "seed" and value < 0))


def _validate_job(check, params, n, where):
    """A job's params must be keyword arguments of its check that the
    scenario does not fill, typed like their defaults and in range, and must
    include every argument the check requires."""
    args = inspect.signature(getattr(verify, JOB_CHECKS[check])).parameters
    for key, value in params.items():
        if key not in args or key in SCENARIO_ARGS:
            allowed = [a for a in args if a not in SCENARIO_ARGS]
            raise ParseError(f"check '{check}' takes no parameter '{key}' "
                             f"(it takes {', '.join(allowed)})", field=f"{where}.{key}")
        if not _valid_arg(key, value, args[key].default, n):
            raise ParseError(f"entry '{key}' has the wrong type, length, sign or order",
                             field=f"{where}.{key}")
    for key, arg in args.items():
        if arg.default is arg.empty and key not in SCENARIO_ARGS and key not in params:
            raise ParseError(f"missing required entry '{key}'", field=f"{where}.{key}")


def _check_args(sc, job, tol_scale, out_dir):
    """The job's check and every one of its arguments by name: the
    scenario's and the job's, else the check's defaults."""
    check = getattr(verify, JOB_CHECKS[job["check"]])
    args = inspect.signature(check).parameters
    given = {"spec": sc.spec, "params": sc.solver, "tol_flow": sc.flow_tol,
             "control": job.get("control", False), "out_dir": out_dir,
             "seed": sc.seed, **job.get("params", {})}
    kwargs = {key: given.get(key, arg.default) for key, arg in args.items()
              if key in given or arg.default is not arg.empty}
    if "grid" in args:
        kwargs["grid"] = _needs_grid(sc)
    for key in TOL_ARGS:
        if key in args:
            kwargs[key] *= tol_scale
    return check, kwargs


def _run_check(sc, job, tol_scale, out_dir, mapped=None):
    """Call the job's check; ``mapped`` holds its first round's
    (inputs, outputs) pairs when the scenario marched them."""
    check, kwargs = _check_args(sc, job, tol_scale, out_dir)
    if mapped is not None:
        kwargs["mapped"] = mapped
    return check(**kwargs)


def _requests(sc, job, tol_scale):
    """The job's first-round map requests; none when planning raises, which
    the check raises again when it maps alone."""
    try:
        return verify.plan(job["check"], _check_args(sc, job, tol_scale, None)[1])
    except Exception:   # whatever it is, the solo run raises it again
        return []


def _operator(request):
    """What a march shares: the spec object (a control's mutated spec is
    another), grid, solver parameters and direction."""
    return id(request.spec), request.grid, request.params, request.direction


def _band_limited(request):
    try:
        quantum.check_band_limited(request.inputs)
    except ValidationError:
        return False
    return True


def _march(group):
    """The outputs of one group of requests, or None when its march raises:
    its jobs then map alone, so a failure is charged to the job that caused
    it, as in its solo run."""
    try:
        return verify.march(group)
    except Exception:   # the solo runs raise it again
        return None


def _mapped(sc, selected, tol_scale, jobs):
    """{job index: [(inputs, outputs), ...]} for the selected jobs whose
    first-round requests were all marched, one march per operator."""
    planned = {i: requests for i, job in selected
               if (requests := _requests(sc, job, tol_scale))}
    # an input refused in a shared march would fail the march for every
    # job in it, so its job maps alone; a march of its own tests it anyway
    shared = Counter(_operator(r) for requests in planned.values() for r in requests)
    planned = {i: requests for i, requests in planned.items()
               if all(shared[_operator(r)] == 1 or _band_limited(r) for r in requests)}
    groups = {}
    for requests in planned.values():
        for r in requests:
            groups.setdefault(_operator(r), []).append(r)
    groups = list(groups.values())
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            marched = list(pool.map(_march, groups))
    else:
        marched = [_march(group) for group in groups]
    outputs = {id(r): out for group, outs in zip(groups, marched) if outs is not None
               for r, out in zip(group, outs)}
    return {i: [(r.inputs, outputs[id(r)]) for r in requests]
            for i, requests in planned.items()
            if all(id(r) in outputs for r in requests)}


def run_job(sc: Scenario, job: dict, out_root: str, index: int,
            tol_scale: float = 1.0, mapped=None):
    """Execute one job; errors are captured in the report.  A job marked
    ``"control"`` runs its check's negative control, where the check has one.
    ``mapped`` is passed on to the check."""
    out_dir = os.path.join(out_root, sc.name, f"{index:02d}_{job['check']}")
    os.makedirs(out_dir, exist_ok=True)
    control = job.get("control", False)
    try:
        report = _run_check(sc, job, tol_scale, out_dir, mapped)
    except CuspLabError as exc:
        report = verify.CheckReport(
            name=job["check"],
            measured=[verify.Measurement("error-free-execution", float("inf"), 0.0)],
            note=f"{type(exc).__name__}: {exc}")
    report.control = report.control or control
    report.write(out_dir)
    return report


def run(sc: Scenario, only=None, out_root: str = "out", tol_scale: float = 1.0,
        jobs: int = 1):
    """Run the scenario's jobs; returns (exit_code, reports).

    The jobs' first-round maps are made first, one march per operator; with
    ``jobs`` > 1 distinct operators march in parallel processes.  The checks
    then run here, in job order.  Exit code 0 iff every report is satisfied:
    checks pass and controls fail."""
    selected = [(i, job) for i, job in enumerate(sc.jobs)
                if only is None or job["check"] in only]
    mapped = _mapped(sc, selected, tol_scale, jobs)
    reports = [run_job(sc, job, out_root, i, tol_scale, mapped.get(i))
               for i, job in selected]
    exit_code = 0 if all(r.satisfied for r in reports) else 1
    return exit_code, reports


# ---------------------------------------------------------------------------
# CLI


def _beam(args, sc):
    """(Z, frak) from ``--Z`` and ``--frak``: each a comma-separated list of
    ``sc.n`` finite numbers, or a ParseError naming the flag."""
    beam = []
    for flag, text in (("--Z", args.Z), ("--frak", args.frak)):
        try:
            vector = [float(v) for v in text.split(",")]
        except ValueError:
            vector = []
        if len(vector) != sc.n or not all(map(_real, vector)):
            raise ParseError(f"expected {sc.n} comma-separated finite numbers, "
                             f"got '{text}'", field=flag)
        beam.append(vector)
    return beam


def _finite(text, low=-np.inf):
    """argparse type of the number flags: a finite number above ``low``."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not low < value < np.inf:
        kind = "positive finite" if low == 0.0 else "finite"
        raise argparse.ArgumentTypeError(f"expected a {kind} number, got '{text}'")
    return value


def _positive(text):
    return _finite(text, low=0.0)


def _print_report(report):
    print(f"[{report.status.upper():4s}] {report.name}"
          + ("  (control: expected to fail)" if report.control else ""))
    for m in report.measured:
        print(f"    {m.label}: {m.value:.6g} (tolerance {m.tolerance:.6g}) "
              f"{'ok' if m.ok else 'VIOLATED'}")
    if report.note:
        print(f"    note: {report.note}")


def _out_root(args):
    return args.out or os.environ.get(OUT_ENV_VAR, "out")


def _cmd_run(args):
    """``all`` runs every job; a check subcommand runs that check's jobs and
    fails when the scenario declares none.  ``--only`` narrows either."""
    sc = resolve_scenario(args.scenario)
    only = set(args.only.split(",")) if args.only else None
    if args.check is not None:
        only = {args.check} if only is None else only & {args.check}
    code, reports = run(sc, only=only, out_root=_out_root(args),
                        tol_scale=args.tol_scale, jobs=args.jobs)
    for r in reports:
        _print_report(r)
    if args.check is not None and not reports:
        print(f"scenario '{sc.name}' declares no matching jobs")
        return 1
    return code


def _read_report(path):
    """(status, control, satisfied) of one report.json, or a ParseError
    naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read report: {exc}", field=path) from exc
    if not isinstance(doc, dict):
        raise ParseError("report must be a JSON object", field=path)
    return tuple(_require(doc, key, kind, path) for key, kind in
                 (("status", str), ("control", bool), ("satisfied", bool)))


def _cmd_report(args):
    root = os.path.join(_out_root(args), args.scenario_name)
    if not os.path.isdir(root):
        print(f"no outputs under {root}")
        return 1
    rows = []
    for sub in sorted(os.listdir(root)):
        path = os.path.join(root, sub, "report.json")
        if os.path.exists(path):
            rows.append((sub, *_read_report(path)))
    for sub, status, control, satisfied in rows:
        tag = "control" if control else "check"
        print(f"{sub:30s} {status:4s} [{tag}] satisfied={satisfied}")
    return 0 if all(sat for _, _, _, sat in rows) else 1


def _cmd_flow(args):
    sc = resolve_scenario(args.scenario)
    c_in = CuspData(*_beam(args, sc))
    if args.t1 == args.t0:
        raise ParseError("the flow needs --t1 different from --t0", field="--t1")
    p0 = bichar_from_cusp(c_in, args.t0)
    traj = integrate(sc.spec, p0, args.t1, tol=sc.flow_tol)
    out = os.path.join(_out_root(args), sc.name, "flow")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "trajectory.csv")
    traj.export_csv(path, stride=args.stride)
    print(f"trajectory written to {path}")
    print("stats:", traj.stats)
    return 0


def _cmd_classical_map(args):
    sc = resolve_scenario(args.scenario)
    c_in = CuspData(*_beam(args, sc))
    res = classical_scatter(sc.spec, c_in, tol=sc.flow_tol)
    print("Z_out    =", res.c_out.Z)
    print("frak_out =", res.c_out.frak)
    print("potential_phase =", res.potential_phase,
          "(imag part:", res.potential_phase_imag, ")")
    print("action_diff =", res.action_diff)
    print("transit =", res.transit)
    return 0


def _cmd_jacobian(args):
    sc = resolve_scenario(args.scenario)
    c_in = CuspData(*_beam(args, sc))
    jac = scatter_jacobian(sc.spec, c_in, h_fd=args.h_fd, tol=sc.flow_tol)
    np.set_printoptions(precision=10, suppress=False)
    print(jac)
    print("symplectic defect:", symplectic_defect(jac))
    return 0


def _cmd_radial_op(args):
    sc = resolve_scenario(args.scenario)
    c_in = CuspData(*_beam(args, sc))
    rep = radial_convergence(sc.spec, verify.radial_seed(sc.spec, c_in),
                             horizon=args.horizon, tol=sc.flow_tol)
    print("exponent forward :", rep.exponent_forward)
    print("exponent backward:", rep.exponent_backward)
    print("limit forward    :", rep.limit_forward.Z, rep.limit_forward.frak)
    print("limit backward   :", rep.limit_backward.Z, rep.limit_backward.frak)
    return 0


def _cmd_propagate(args):
    sc = resolve_scenario(args.scenario)
    grid = _needs_grid(sc)
    f = coherent_data(grid, *_beam(args, sc), args.h)
    span = window_span(sc.spec, sc.solver)
    u = propagate_window(sc.spec, poisson_free(f, -span), span, sc.solver)
    out = os.path.join(_out_root(args), sc.name, "propagate")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "field.field")
    dump_field(path, u)
    print(f"field at t={u.time} written to {path}; norm = {u.norm():.12g}, "
          f"shell fraction = {u.boundary_leak_fraction():.3e}")
    return 0


def _cmd_scatter(args):
    sc = resolve_scenario(args.scenario)
    grid = _needs_grid(sc)
    f = coherent_data(grid, *_beam(args, sc), args.h)
    fp = scattering_map(sc.spec, f, sc.solver)
    out = os.path.join(_out_root(args), sc.name, "scatter")
    os.makedirs(out, exist_ok=True)
    export_spectrum_csv(os.path.join(out, "incoming.csv"), f)
    export_spectrum_csv(os.path.join(out, "outgoing.csv"), fp)
    dump_field(os.path.join(out, "outgoing.field"), fp)
    zb, fb = packet_moments(fp)
    print(f"outgoing data written under {out}")
    print("moments:", zb, fb, " norm:", fp.norm())
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description="Scattering-map laboratory for compactly perturbed "
                    "time-dependent Schrodinger operators")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default 'out' or ${OUT_ENV_VAR})")
    parser.add_argument("--jobs", type=int, default=1, help="parallel job count")
    parser.add_argument("--only", default=None,
                        help="comma-separated job filter")
    parser.add_argument("--tol-scale", type=_positive, default=1.0, dest="tol_scale",
                        help="global tolerance multiplier (acceptance requires 1.0)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, scenario=True, **defaults):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, **defaults)
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario file path or bundled name")
        return p

    def add_beam(p, with_h=False):
        p.add_argument("--Z", required=True, help="comma-separated Z components")
        p.add_argument("--frak", required=True, help="comma-separated frak components")
        if with_h:
            p.add_argument("--h", type=_positive, default=0.25, help="packet width")

    p = command("flow", _cmd_flow, "integrate one bicharacteristic, export CSV")
    add_beam(p)
    p.add_argument("--t0", type=_finite, required=True)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--stride", type=_positive, default=0.01)

    p = command("classical-map", _cmd_classical_map, "classical scattering of one beam")
    add_beam(p)

    p = command("jacobian", _cmd_jacobian,
                "scattering-map Jacobian and symplectic defect")
    add_beam(p)
    p.add_argument("--h-fd", type=_positive, default=1e-4, dest="h_fd")

    p = command("radial", _cmd_radial_op, "radial-set convergence of one beam")
    add_beam(p)
    p.add_argument("--horizon", type=_positive, default=1e6)

    p = command("propagate", _cmd_propagate, "propagate a packet across the window")
    add_beam(p, with_h=True)

    p = command("scatter", _cmd_scatter, "apply the scattering map to a packet")
    add_beam(p, with_h=True)

    # one subcommand per job family, except where a beam command holds the
    # name: `--only radial all` runs the radial jobs
    for name in JOB_CHECKS:
        if name not in sub.choices:
            command(name, _cmd_run, f"run the scenario's '{name}' jobs", check=name)
    command("all", _cmd_run, "run every job declared by the scenario "
            "('cusplab --only radial all' runs its radial jobs)", check=None)

    p = command("report", _cmd_report, "summarize reports under the output directory",
                scenario=False)
    p.add_argument("scenario_name")

    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.func(args)
    except CuspLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
