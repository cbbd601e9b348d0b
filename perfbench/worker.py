"""Workload process of the benchmark.

`run.py` starts this file in fresh processes with BLAS/OpenMP threads pinned
to 1.  It imports cusplab from the checkout's `src/` and refuses any other
copy.

    worker.py setup   --workload W --seed S --scenario F [--small]
        import cusplab, generate the scenario to F and load it: one set-up
        probe, timed from outside by run.py.
    worker.py measure --scenario F --out D --seconds T --trace 0|1
        load F through cusplab.shell.load_scenario, run one warm-up pass,
        then time passes through cusplab.shell.run for T seconds (with
        --trace 1: untraced passes for T/2, traced passes for the rest) and
        write D/worker.json.  The reference kernel (reference.py) runs right
        before every pass, outside any trace.

Every job report of every pass goes through the gate in `job_outcome`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2    # untraced and traced passes in a --trace 1 run


def import_shell():
    sys.path.insert(0, str(SRC))
    import cusplab
    from cusplab import shell

    if Path(cusplab.__file__).resolve().parent != SRC / "cusplab":
        raise SystemExit(f"cusplab was imported from {cusplab.__file__}, not {SRC}")
    return shell


def job_outcome(report, report_path):
    """Gate record of one job: satisfied per CheckReport.satisfied, no
    captured CuspLabError, and the written report.json equal to the returned
    report.  Also the job's largest value/tolerance over non-control
    measurements with positive tolerance."""
    captured = any(m.label == "error-free-execution" for m in report.measured)
    try:
        with open(report_path) as fh:
            written = json.load(fh)
    except (OSError, ValueError):
        written = None
    returned = json.loads(json.dumps(report.to_dict()))
    agrees = json.dumps(written, sort_keys=True) == json.dumps(returned, sort_keys=True)
    uses = [(m.value / m.tolerance, m.label) for m in report.measured
            if not report.control and m.tolerance > 0 and math.isfinite(m.value)]
    use, label = max(uses) if uses else (None, None)
    return {"check": report.name, "satisfied": report.satisfied,
            "captured_error": captured, "report_agrees": agrees,
            "ok": report.satisfied and not captured and agrees,
            "tol_use": use, "tol_use_label": f"{report.name}:{label}", "note": report.note}


def run_pass(shell, sc, out_root, clock=time.perf_counter):
    """One pass of the scenario through shell.run; returns (wall_s, outcomes)."""
    shutil.rmtree(out_root, ignore_errors=True)
    start = clock()
    _, reports = shell.run(sc, out_root=out_root, jobs=1)
    wall = clock() - start
    job_dirs = sorted((Path(out_root) / sc.name).iterdir())
    if len(job_dirs) != len(reports) or len(reports) != len(sc.jobs):
        raise RuntimeError(f"{len(sc.jobs)} jobs, {len(reports)} reports, "
                           f"{len(job_dirs)} report directories")
    return wall, [job_outcome(r, d / "report.json") for r, d in zip(reports, job_dirs)]


def measure(args):
    shell = import_shell()
    import numpy
    import scipy

    import reference

    out = Path(args.out)
    result = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__},
              "reference_nominal_s": reference.NOMINAL_S,
              "passes": [], "crash": None, "layers": None}
    out_root = str(out / "cusplab_out")

    def record(kind, ref, wall, outcomes):
        result["passes"].append({"kind": kind, "ref_s": ref, "wall_s": wall,
                                 "jobs": outcomes})

    try:
        sc = shell.load_scenario(args.scenario)
        record("warmup", reference.run(), *run_pass(shell, sc, out_root))
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
        start = time.perf_counter()
        done = 0
        while done < min_passes or time.perf_counter() - start < untraced_budget:
            record("timed", reference.run(), *run_pass(shell, sc, out_root))
            done += 1
        if args.trace:
            traced(shell, args, out, out_root, start, record, result)
    except Exception:   # any escape from the program fails the run
        result["crash"] = traceback.format_exc()
    with open(out / "worker.json", "w") as fh:
        json.dump(result, fh)


def traced(shell, args, out, out_root, start, record, result):
    """Traced passes: each loads the scenario and runs it under its own
    Tracer; per-layer metrics are the medians over the traced passes."""
    import reference
    from tracer import Tracer, is_count, layer_metrics, median_metrics, write_spans

    tracers, runs = [], []
    while len(tracers) < MIN_TRACE_PASSES or time.perf_counter() - start < args.seconds:
        ref = reference.run()       # outside the trace: it calls splu
        tracer = Tracer(run_id=len(tracers))
        with tracer:
            sc = shell.load_scenario(args.scenario)
            _, outcomes = run_pass(shell, sc, out_root)
        totals = tracer.summary()
        record("traced", ref, totals["shell.run"][0], outcomes)
        tracers.append(tracer)
        runs.append(layer_metrics(totals, tracer.counts))
    write_spans(tracers, out / "spans.csv.gz")
    counts = [{k: v for k, v in run.items() if is_count(k)} for run in runs]
    untraced = [p["wall_s"] for p in result["passes"] if p["kind"] == "timed"]
    traced_walls = [p["wall_s"] for p in result["passes"] if p["kind"] == "traced"]
    layers = median_metrics(runs)
    layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    result["layers"] = layers
    result["counts_repeat"] = all(c == counts[0] for c in counts)
    result["traced_work"] = {
        "maps": layers["quantum.scattering_map.inputs"]
        + layers["quantum.adjoint_scattering_map.inputs"],
        "scatters": layers["flow.classical_scatter.count"]}


def setup(args):
    shell = import_shell()
    import workloads

    workloads.write(workloads.scenario(args.workload, args.seed, small=args.small),
                    args.scenario)
    shell.load_scenario(args.scenario)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--small", action="store_true")
    p = sub.add_parser("measure")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(Path(args.scenario).parent, exist_ok=True)
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
