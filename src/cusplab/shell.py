"""Scenario files, the job runner, and the command-line interface.

A scenario is a JSON document (conventionally ``*.scn``) with a versioned
schema describing the perturbation, grid, solver parameters, and a list of
check jobs.  The CLI only parses arguments and forwards them.  ``all`` runs
the scenario's jobs (``--only`` a list of job families, ``--jobs`` the pool
size) and ``report`` summarizes the reports they wrote; every other
subcommand takes one beam (``--Z``, ``--frak``) and maps it onto one
library operation.

:func:`run` first plans the map requests of the selected jobs' grid checks
(:func:`verify.plan`) and groups them by operator: spec object, grid,
solver parameters and direction.  Each group is mapped by one
:func:`verify.march`, in a process pool with ``jobs`` > 1.  Then every job
runs its check in this process, which measures from its slices.  One rule
covers every failure: a job whose planning raises maps alone, and the jobs
of a group whose march raises map alone.  Either way the check maps by
itself, so every report is the job's solo report.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import verify
from .errors import CuspLabError, InvalidArgument, ParseError, ValidationError, in_range
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
    return _is(value, float) and bool(np.isfinite(value))


def _reals(value, n):
    """Whether ``value`` is a JSON list of n finite numbers."""
    return isinstance(value, list) and len(value) == n and all(map(_real, value))


def _is(value, kind):
    """JSON type test: a float is any number, as its constructor refuses one
    out of range by name; an int or a bool must be exactly that."""
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
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
    """Turn a constructor's InvalidArgument into a ParseError naming the entry
    at fault in section ``where``: its field, or the key ``keys`` maps it to."""
    try:
        yield
    except InvalidArgument as exc:
        key = (keys or {}).get(exc.field, exc.field)
        raise ParseError(str(exc), field=f"{where}.{key}") from exc


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
    for i, b in enumerate(_require(doc, "bumps", list, "perturbation", [])):
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
    for i, p in enumerate(_require(doc, "potential_terms", list, "perturbation", [])):
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
    return PerturbationSpec(n=n, bumps=tuple(bumps), potential_terms=tuple(pots))


def _validate_scenario(sc: Scenario):
    horizon = window_span(sc.spec, sc.solver)
    if not np.isfinite(2.0 * horizon):   # a map marches across [-horizon, horizon]
        times = {f"perturbation.{kind}[{i}].center_t": abs(term.center_t)
                 for kind in ("bumps", "potential_terms")
                 for i, term in enumerate(getattr(sc.spec, kind))}
        times["solver.margin"] = sc.solver.margin
        raise ParseError(f"the maps' horizon {horizon:g} spans no finite time",
                         field=max(times, key=times.get))
    if sc.grid is None:
        return
    if sc.spec.spatial_extent() > 0.8 * sc.grid.L:
        raise ValidationError(
            f"perturbation support (extent {sc.spec.spatial_extent():.3g}) "
            f"exceeds 80% of the spatial box (L = {sc.grid.L})",
            invariant="support-inside-box")
    for job in sc.jobs:
        params = job["params"]
        # the job's semiclassical parameters: its h, or else its h_list
        hs = [params["h"]] if "h" in params else params.get("h_list", [])
        offsets = [np.max(np.abs(params[key]))
                   for key in ("frak0", "frak_far", "frak_through")
                   if params.get(key) is not None]
        if not hs or "Z0" not in params or not offsets:
            continue
        # the widest packet, at the largest offset, over the whole horizon;
        # an extent that overflows is refused below, with no warning
        with np.errstate(over="ignore"):
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
    if n < 1:
        raise ParseError("dimension must be positive", field="scenario.dimension")
    spec = _parse_perturbation(doc.get("perturbation", {}), n)

    grid = None
    if doc.get("grid") is not None:
        gdoc = _known(doc["grid"], ("points", "half_width"), "grid")
        with _fields("grid", {"N": "points", "L": "half_width"}):
            grid = Grid(n=n, N=_require(gdoc, "points", int, "grid"),
                        L=_require(gdoc, "half_width", float, "grid"))

    sdoc = _known(doc.get("solver", {}), SOLVER_KEYS, "solver")
    with _fields("solver"):
        solver = SolverParams(**{
            f.name: _require(sdoc, f.name, type(f.default), "solver", f.default)
            for f in SOLVER_FIELDS})
        flow_tol = in_range("flow_tol", _require(sdoc, "flow_tol", float, "solver", 1e-11),
                            0.0, 1.0)
    seed = _require(doc, "seed", int, "scenario", 0)
    with _fields("scenario"):
        verify.refuse_arguments({"seed": seed})

    jobs = []
    for i, job in enumerate(_require(doc, "jobs", list, "scenario", [])):
        where = f"jobs[{i}]"
        _known(job, ("check", "params", "control"), where)
        check = _require(job, "check", str, where)
        if check not in verify.JOB_FAMILIES:
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


# check arguments the scenario fills, not the job
SCENARIO_ARGS = ("spec", "grid", "params", "tol_flow", "control", "out_dir", "mapped")
# beam vectors: lists of `dimension` finite numbers
VECTOR_ARGS = ("Z0", "frak0", "frak_far", "frak_through")


def _check(job):
    """The verify check of job family ``job``, looked up now."""
    return getattr(verify, verify.JOB_FAMILIES[job][0])


def _valid_arg(key, value, default, n):
    """Whether ``value`` has the JSON type and length of argument ``key``:
    beam vectors are lists of n finite numbers, ``h_list`` a list of
    numbers, and a number, or an optional number (default None), has its
    default's type.  Ranges are verify.refuse_arguments'."""
    if value is None and default is None:
        return True
    if key in VECTOR_ARGS:
        return _reals(value, n)
    if key == "h_list":
        return isinstance(value, list) and all(_is(h, float) for h in value)
    kind = float if default is None else type(default)
    return kind not in (float, int, bool) or _is(value, kind)


def _validate_job(check, params, n, where):
    """A job's params must be keyword arguments of its check that the
    scenario does not fill, typed like their defaults and in range, and must
    include every argument the check requires."""
    args = inspect.signature(_check(check)).parameters
    for key, value in params.items():
        if key not in args or key in SCENARIO_ARGS:
            allowed = [a for a in args if a not in SCENARIO_ARGS]
            raise ParseError(f"check '{check}' takes no parameter '{key}' "
                             f"(it takes {', '.join(allowed)})", field=f"{where}.{key}")
        if not _valid_arg(key, value, args[key].default, n):
            raise ParseError(f"entry '{key}' has the wrong type or length",
                             field=f"{where}.{key}")
        with _fields(where):
            verify.refuse_arguments({key: value})
    for key, arg in args.items():
        if arg.default is arg.empty and key not in SCENARIO_ARGS and key not in params:
            raise ParseError(f"missing required entry '{key}'", field=f"{where}.{key}")


def _check_args(sc, job, out_dir):
    """The job's check and every one of its arguments by name: the
    scenario's and the job's, else the check's defaults."""
    check = _check(job["check"])
    args = inspect.signature(check).parameters
    given = {"spec": sc.spec, "params": sc.solver, "tol_flow": sc.flow_tol,
             "control": job.get("control", False), "out_dir": out_dir,
             "seed": sc.seed, **job.get("params", {})}
    kwargs = {key: given.get(key, arg.default) for key, arg in args.items()
              if key in given or arg.default is not arg.empty}
    if "grid" in args:
        kwargs["grid"] = _needs_grid(sc)
    return check, kwargs


def _run_check(sc, job, out_dir, mapped=None):
    """Call the job's check; ``mapped`` holds its first round's
    (inputs, outputs) pairs when the scenario marched them."""
    check, kwargs = _check_args(sc, job, out_dir)
    if mapped is not None:
        kwargs["mapped"] = mapped
    return check(**kwargs)


def _operator(request):
    """What a march shares: the spec object (a control's mutated spec is
    another), grid, solver parameters and direction."""
    return id(request.spec), request.grid, request.params, request.direction


def _march(group):
    """The outputs of one group of requests, or None when its march raises."""
    try:
        return verify.march(group)
    except Exception:   # its jobs map alone, and their solo runs raise it again
        return None


def _mapped(sc, selected, jobs):
    """{job index: [(inputs, outputs), ...]} for the selected jobs whose
    first-round requests were all marched, one march per operator.  A job
    whose planning raises, or whose group's march raises, is left out, so
    its check maps alone."""
    planned, groups = {}, {}
    for i, job in selected:
        try:
            planned[i] = verify.plan(job["check"], _check_args(sc, job, None)[1])
        except Exception:   # the solo run raises it again
            continue
        for r in planned[i]:
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
            if requests and all(id(r) in outputs for r in requests)}


def run_job(sc: Scenario, job: dict, out_root: str, index: int, mapped=None):
    """Execute one job; errors are captured in the report.  A job marked
    ``"control"`` runs its check's negative control, where the check has one.
    ``mapped`` is passed on to the check."""
    out_dir = os.path.join(out_root, sc.name, f"{index:02d}_{job['check']}")
    os.makedirs(out_dir, exist_ok=True)
    control = job.get("control", False)
    try:
        report = _run_check(sc, job, out_dir, mapped)
    except CuspLabError as exc:
        report = verify.CheckReport(
            name=job["check"],
            measured=[verify.Measurement("error-free-execution", float("inf"), 0.0)],
            note=f"{type(exc).__name__}: {exc}")
    report.control = report.control or control
    report.write(out_dir)
    return report


def run(sc: Scenario, only=None, out_root: str = "out", jobs: int = 1):
    """Run the scenario's jobs; returns (exit_code, reports).

    The jobs' first-round maps are made first, one march per operator; with
    ``jobs`` > 1 distinct operators march in parallel processes.  The checks
    then run here, in job order.  Exit code 0 iff every report is satisfied:
    checks pass and controls fail."""
    selected = [(i, job) for i, job in enumerate(sc.jobs)
                if only is None or job["check"] in only]
    mapped = _mapped(sc, selected, jobs)
    reports = [run_job(sc, job, out_root, i, mapped.get(i))
               for i, job in selected]
    exit_code = 0 if all(r.satisfied for r in reports) else 1
    return exit_code, reports


# ---------------------------------------------------------------------------
# CLI


def _scenario_beam(args):
    """(scenario, CuspData) of ``--scenario``, ``--Z`` and ``--frak``; the
    last two are each a comma-separated list of the scenario's dimension
    finite numbers, or a ParseError names the flag."""
    sc = resolve_scenario(args.scenario)
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
    return sc, CuspData(*beam)


def _finite(text, low=-np.inf):
    """argparse type of the number flags: a finite number above ``low``."""
    try:
        return in_range("the value", text, low)
    except InvalidArgument as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text):
    return _finite(text, low=0.0)


def _pool_size(text):
    """argparse type of ``--jobs``: an integer of at least 1."""
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got '{text}'")
    return int(text)


def _print_report(report):
    print(f"[{report.status.upper():4s}] {report.name}"
          + ("  (control: expected to fail)" if report.control else ""))
    for m in report.measured:
        print(f"    {m.label}: {m.value:.6g} (tolerance {m.tolerance:.6g}) "
              f"{'ok' if m.ok else 'VIOLATED'}")
    if report.note:
        print(f"    note: {report.note}")


def _out_dir(args, sc, name):
    """Directory ``name`` of scenario ``sc`` under the output root, made."""
    out = os.path.join(args.out, sc.name, name)
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_run(args):
    """Run the scenario's jobs, or with ``--only``, a list of job families,
    the jobs of those families.  A run that selects no job fails."""
    only = set(args.only.split(",")) if args.only else None
    for name in sorted(only or ()):
        if name not in verify.JOB_FAMILIES:
            raise ParseError(f"unknown job family '{name}' "
                             f"(known: {', '.join(verify.JOB_FAMILIES)})", field="--only")
    sc = resolve_scenario(args.scenario)
    code, reports = run(sc, only=only, out_root=args.out, jobs=args.jobs)
    for r in reports:
        _print_report(r)
    if not reports:
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
    root = os.path.join(args.out, args.scenario_name)
    rows = []
    for sub in sorted(os.listdir(root)) if os.path.isdir(root) else ():
        path = os.path.join(root, sub, "report.json")
        if os.path.exists(path):
            rows.append((sub, *_read_report(path)))
    if not rows:
        print(f"no outputs under {root}")
        return 1
    for sub, status, control, satisfied in rows:
        tag = "control" if control else "check"
        print(f"{sub:30s} {status:4s} [{tag}] satisfied={satisfied}")
    return 0 if all(sat for _, _, _, sat in rows) else 1


def _cmd_flow(args):
    sc, c_in = _scenario_beam(args)
    if args.t1 == args.t0:
        raise ParseError("the flow needs --t1 different from --t0", field="--t1")
    p0 = bichar_from_cusp(c_in, args.t0, sc.flow_tol)
    traj = integrate(sc.spec, p0, args.t1, tol=sc.flow_tol)
    path = os.path.join(_out_dir(args, sc, "flow"), "trajectory.csv")
    traj.export_csv(path, stride=args.stride)
    print(f"trajectory written to {path}")
    print("stats:", traj.stats)
    return 0


def _cmd_classical_map(args):
    sc, c_in = _scenario_beam(args)
    res = classical_scatter(sc.spec, c_in, tol=sc.flow_tol)
    print("Z_out    =", res.c_out.Z)
    print("frak_out =", res.c_out.frak)
    print("potential_phase =", res.potential_phase,
          "(imag part:", res.potential_phase_imag, ")")
    print("action_diff =", res.action_diff)
    print("transit =", res.transit)
    return 0


def _cmd_jacobian(args):
    sc, c_in = _scenario_beam(args)
    jac = scatter_jacobian(sc.spec, c_in, h_fd=args.h_fd, tol=sc.flow_tol)
    np.set_printoptions(precision=10, suppress=False)
    print(jac)
    print("symplectic defect:", symplectic_defect(jac))
    return 0


def _cmd_radial_op(args):
    sc, c_in = _scenario_beam(args)
    rep = radial_convergence(sc.spec, verify.radial_seed(sc.spec, c_in, sc.flow_tol),
                             horizon=args.horizon, tol=sc.flow_tol)
    print("exponent forward :", rep.exponent_forward)
    print("exponent backward:", rep.exponent_backward)
    print("limit forward    :", rep.limit_forward.Z, rep.limit_forward.frak)
    print("limit backward   :", rep.limit_backward.Z, rep.limit_backward.frak)
    return 0


def _cmd_propagate(args):
    sc, c_in = _scenario_beam(args)
    f = coherent_data(_needs_grid(sc), c_in.Z, c_in.frak, args.h)
    span = window_span(sc.spec, sc.solver)
    u = propagate_window(sc.spec, poisson_free(f, -span), span, sc.solver)
    path = os.path.join(_out_dir(args, sc, "propagate"), "field.field")
    dump_field(path, u)
    print(f"field at t={u.time} written to {path}; norm = {u.norm():.12g}, "
          f"shell fraction = {u.boundary_leak_fraction():.3e}")
    return 0


def _cmd_scatter(args):
    sc, c_in = _scenario_beam(args)
    f = coherent_data(_needs_grid(sc), c_in.Z, c_in.frak, args.h)
    fp = scattering_map(sc.spec, f, sc.solver)
    out = _out_dir(args, sc, "scatter")
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
    parser.add_argument("--out", default="out", help="output directory (default 'out')")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, beam=True):
        """A subcommand that reads ``--scenario`` and, with ``beam``, one beam."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
        if beam:
            p.add_argument("--Z", required=True, help="comma-separated Z components")
            p.add_argument("--frak", required=True, help="comma-separated frak components")
        return p

    p = command("flow", _cmd_flow, "integrate one bicharacteristic, export CSV")
    p.add_argument("--t0", type=_finite, required=True)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--stride", type=_positive, default=0.01)

    command("classical-map", _cmd_classical_map, "classical scattering of one beam")

    p = command("jacobian", _cmd_jacobian, "scattering-map Jacobian and symplectic defect")
    p.add_argument("--h-fd", type=_positive, default=1e-4, dest="h_fd")

    p = command("radial", _cmd_radial_op, "radial-set convergence of one beam")
    p.add_argument("--horizon", type=_positive, default=1e6)

    p = command("propagate", _cmd_propagate, "propagate a packet across the window")
    p.add_argument("--h", type=_positive, default=0.25, help="packet width")

    p = command("scatter", _cmd_scatter, "apply the scattering map to a packet")
    p.add_argument("--h", type=_positive, default=0.25, help="packet width")

    p = command("all", _cmd_run, "run the jobs declared by the scenario", beam=False)
    p.add_argument("--only", default=None,
                   help="comma-separated job families to run (default: every job)")
    p.add_argument("--jobs", type=_pool_size, default=1,
                   help="processes that march distinct operators (default 1)")

    p = sub.add_parser("report", help="summarize reports under the output directory")
    p.set_defaults(func=_cmd_report)
    p.add_argument("scenario_name")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CuspLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
