"""cusplab benchmark: time to verdict of three seeded scenario workloads.

    python3 perfbench/run.py --workload cn1d|strang2d|classical --seed N \
        --seconds T --trace 0|1

Run it from any directory; it uses the checkout that holds this file and
builds nothing.  It generates the workload's scenario from the seed, measures
set-up time in fresh processes, and runs the scenario through
`cusplab.shell.run` in one further process (jobs=1, BLAS/OpenMP threads
pinned to 1) for T seconds.  Every job report of every pass is gated on
`CheckReport.satisfied`, on the absence of a captured CuspLabError and on the
written report.json agreeing with the returned report.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
pass times in seconds at the reference speed (see reference.py; the measured
seconds are printed beside them); with --trace 1 the per-layer metrics, in
measured seconds, from an outside-in trace (see tracer.py), and the tracing
overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Files go to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 5        # timed set-up probes, after one untimed probe
DEADLINE_S = 170.0      # the whole run, set-up probes included
RSS_SOURCE = "ru_maxrss of the workload process, from wait4(2) in run.py"
SCOPE = ("every measurement acts only on the benchmark's own processes: "
         "wall clocks, wait4 rusage of its own children and in-process "
         "wrappers; no machine-wide tracing and no system setting is changed")


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def remaining(started):
    return DEADLINE_S - (time.perf_counter() - started)


def probe_setup(args, run_dir, started):
    """Median wall time of fresh processes that import cusplab, generate the
    scenario and load it through shell.load_scenario."""
    times = []
    for k in range(SETUP_PROBES + 1):
        cmd = [sys.executable, str(HERE / "worker.py"), "setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scenario", str(run_dir / f"probe{k}.scn")] + (["--small"] if args.small else [])
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=remaining(started),
                       stdout=subprocess.DEVNULL)
        if k:               # the first probe also writes bytecode caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(args, scenario, run_dir, started):
    """Run the measuring process; returns its result and its peak RSS in MiB."""
    cmd = [sys.executable, str(HERE / "worker.py"), "measure", "--scenario", str(scenario),
           "--out", str(run_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if remaining(started) <= 0:
                    raise TimeoutError(f"worker still running after {DEADLINE_S:.0f} s")
                time.sleep(0.05)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {run_dir / 'worker.log'}")
    with open(run_dir / "worker.json") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None with fewer than eleven samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 11        # ten samples lie above index rank
    if rank < 0:
        return None
    return 100.0 * rank / (len(ordered) - 1), ordered[rank]


def gate(worker, expected_work, unit):
    """(correct, attempted, failed, problems) over every job run of the run."""
    jobs = [job for p in worker["passes"] for job in p["jobs"]]
    failed = [job for job in jobs if not job["ok"]]
    problems = [f"{job['check']}: satisfied={job['satisfied']} "
                f"captured_error={job['captured_error']} "
                f"report_agrees={job['report_agrees']} {job['note']}".strip()
                for job in failed]
    attempted = len(jobs)
    if worker["crash"]:
        problems.append("the program raised:\n" + worker["crash"])
        attempted += 1
        failed.append(None)
    if worker["layers"] is not None:
        if not worker["counts_repeat"]:
            problems.append("exact counts differ between traced passes of the same inputs")
        if worker["traced_work"][unit] != expected_work:
            problems.append(f"traced {unit} per pass {worker['traced_work'][unit]} "
                            f"!= {expected_work} expected from the scenario")
    return not problems, attempted, len(failed), problems


def end_to_end(worker, work, unit, setup_s, rss_mb):
    """End-to-end metrics.  Pass times are seconds at the reference speed:
    each pass is scaled by NOMINAL_S over the reference kernel's time right
    before it.  Set-up time is as measured: process start-up and imports do
    not follow the kernel's speed, and scaling them made them less steady."""
    timed = [p for p in worker["passes"] if p["kind"] == "timed"]
    nominal = worker["reference_nominal_s"]
    walls = [nominal * p["wall_s"] / p["ref_s"] for p in timed]
    speed = statistics.median(p["ref_s"] for p in timed) / nominal
    uses = [(job["tol_use"], job["tol_use_label"]) for p in worker["passes"]
            for job in p["jobs"] if job["tol_use"] is not None]
    tol_use_max, tol_label = max(uses)
    tol_use_max = max(tol_use_max, sys.float_info.min)
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "maps_per_s": (work / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "tol_margin_digits": (-math.log10(tol_use_max), "digits"),
    }
    high = tail(walls)
    lines = [
        f"  reference kernel   {speed:.4f} x its nominal {nominal} s (median over passes); "
        "pass times below are seconds at the reference speed",
        f"  wall_s             {wall_s:.4f} s  median of {len(walls)} passes "
        f"(measured {statistics.median(p['wall_s'] for p in timed):.4f} s; "
        f"first, untimed pass {worker['passes'][0]['wall_s']:.4f} s)",
        f"  wall_s p{high[0]:.0f}          {high[1]:.4f} s" if high else
        f"  wall_s tail        none: {len(walls)} passes leave no percentile "
        "with ten samples beyond it",
        f"  maps_per_s         {work / wall_s:.4f} 1/s  ({work} {unit} per pass"
        + (", i.e. scatters_per_s)" if unit == "scatters" else ", forward and adjoint)"),
        f"  setup_s            {setup_s:.4f} s  median of {SETUP_PROBES} fresh processes: "
        "import cusplab, generate and load the scenario",
        f"  peak_rss_mb        {rss_mb:.1f} MiB  ({RSS_SOURCE})",
        f"  tol_use_max        {tol_use_max:.6g}  ({tol_label}); "
        f"tol_margin_digits = -log10 of it = {-math.log10(tol_use_max):.4f}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(worker):
    metrics = {name: {"value": value, "unit": tracer.unit(name)}
               for name, value in worker["layers"].items()}
    lines = [f"  {name:52s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the harness self-test only")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "cusplab" / "__init__.py").is_file():
        print(f"error: no cusplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}{'-small' if args.small else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    doc = workloads.scenario(args.workload, args.seed, small=args.small)
    scenario = run_dir / "scenario.scn"
    workloads.write(doc, scenario)
    work, unit = workloads.work_per_pass(doc), workloads.work_unit(doc)

    setup_s = None if args.trace else probe_setup(args, run_dir, started)
    worker, rss_mb = run_worker(args, scenario, run_dir, started)
    correct, attempted, failed, problems = gate(worker, work, unit)
    if not any(p["kind"] == "timed" for p in worker["passes"]) or (
            args.trace and worker["layers"] is None) or not any(
            job["tol_use"] is not None for p in worker["passes"] for job in p["jobs"]):
        print("error: the run measured nothing", *problems, sep="\n", file=sys.stderr)
        return 1
    if args.trace:
        metrics, lines = per_layer(worker)
    else:
        metrics, lines = end_to_end(worker, work, unit, setup_s, rss_mb)

    provenance = {
        "nproc": os.cpu_count(), **worker["versions"], "git_describe": git_describe(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "thread_env": THREAD_ENV, "jobs": 1,
        "peak_rss_mb_source": RSS_SOURCE, "scope": SCOPE}
    print(f"cusplab benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  scenario={scenario.relative_to(ROOT)}")
    print(*lines, sep="\n")
    print(f"  checks_failed_frac {failed / attempted:.4g}  ({failed} of {attempted} job runs "
          "unsatisfied, errored or with a disagreeing report.json)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print("provenance:", json.dumps(provenance))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "provenance": provenance, "worker": worker}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
