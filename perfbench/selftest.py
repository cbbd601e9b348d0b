"""Reduced-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at reduced size (small grids, one beam) with tracing off
and on, and checks that each run passes its gate and emits exactly the
metrics that BENCHMARK.json names, each with its unit.  Then checks that the
verdict gate trips on an unsatisfied report, on a CuspLabError captured in a
control job (which CheckReport.satisfied alone would pass) and on a
report.json that disagrees with the returned report.  Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import worker
import workloads

HERE = Path(__file__).resolve().parent


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def emitted_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=180)
            check(done.returncode == 0, f"{workload} trace={trace} exits 0")
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace} prints the result keys last")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace} passes its gate")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace} emits every BENCHMARK.json metric with its unit")


def gate_trips(tmp):
    """Unsatisfied and captured-error jobs fail the gate."""
    doc = workloads.scenario("cn1d", 0, small=True)
    doc["jobs"] = [
        # no residual meets this tolerance: unsatisfied
        {"check": "pairing", "params": {"tol": 1e-300}},
        # the packet leaves the dual grid: PacketClipped, captured by
        # shell.run_job; as a control it is "satisfied", yet it must fail
        {"check": "noncompact", "control": True,
         "params": {"Z0": [19.0], "frak0": [0.0], "h_list": [0.1]}},
    ]
    scenario = tmp / "gate.scn"
    workloads.write(doc, scenario)
    subprocess.run([sys.executable, str(HERE / "worker.py"), "measure",
                    "--scenario", str(scenario), "--out", str(tmp), "--seconds", "0",
                    "--trace", "0"], check=True, timeout=180, env=run.child_env())
    with open(tmp / "worker.json") as fh:
        result = json.load(fh)
    correct, attempted, failed, problems = run.gate(
        result, workloads.work_per_pass(doc), workloads.work_unit(doc))
    jobs = result["passes"][0]["jobs"]
    check(not correct and failed == attempted == 2 * len(result["passes"]),
          "the gate fails every unsatisfied or errored job run")
    check(not jobs[0]["satisfied"] and not jobs[0]["captured_error"],
          "an unsatisfied report is seen as unsatisfied")
    check(jobs[1]["satisfied"] and jobs[1]["captured_error"],
          "a captured CuspLabError in a control job is seen despite satisfied=True")


def disagreeing_report(tmp):
    worker.import_shell()
    from cusplab.verify import CheckReport, Measurement

    report = CheckReport(name="pairing", measured=[Measurement("residual", 1e-6, 1e-3)])
    path = Path(report.write(str(tmp / "agree")))
    check(worker.job_outcome(report, path)["ok"], "a matching report.json passes")
    report.measured[0] = Measurement("residual", 2e-6, 1e-3)
    check(not worker.job_outcome(report, path)["ok"],
          "a report.json that disagrees with the returned report fails")


def main():
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    emitted_metrics()
    gate_trips(tmp)
    disagreeing_report(tmp)
    print("selftest passed")


if __name__ == "__main__":
    main()
