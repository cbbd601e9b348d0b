"""Seeded scenario documents for the benchmark workloads.

Each workload is a schema-1 scenario that the benchmark writes to a `.scn`
file; the program under test receives only that file and loads it through
`cusplab.shell.load_scenario`.  The seed draws the perturbation, the packet
centres, frequencies and widths and the symplectic beam seed from narrow
ranges in which every check passes, so that two seeds give different inputs
of the same size and cost.  This module uses the standard library only.

Why each workload exists (the same text is in BENCHMARK.json):

* ``cn1d``: n = 1 Crank-Nicolson at N = 8192, L = 80, dt = 2e-3.  At this
  grid the Sherman-Morrison column of the cyclic solve is largely subnormal,
  so the 1-D hot path (solve_banded, band assembly, one input per operator)
  dominates.  The perturbation's time support is short (radius_t 0.1, about
  100 CN steps per map) so that one pass takes seconds, not minutes.
* ``strang2d``: n = 2 Strang splitting on 64^2, L = 10, dt = 5e-3: the only
  workload that assembles the 2-D remainder, factorises it with `splu` and
  runs 2-D FFTs.  No 1-D CN and no classical flow.
* ``classical``: n = 2 bicharacteristic flow with no grid: `flow`, scalar
  `symbols` and `phasespace` only, `quantum` idle.  The bump is wide
  (radius_z 6) so every random beam crosses it for the whole time window and
  the RK work per beam is nearly the same for every seed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("cn1d", "strang2d", "classical")

SCHEMA_VERSION = 1


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _cn1d(rng, small):
    radius_t = 0.1
    h0 = _u(rng, 0.09, 0.11)
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "bench_cn1d",
        "dimension": 1,
        "perturbation": {
            "bumps": [{
                "amplitude": _u(rng, 0.19, 0.21), "center_z": [_u(rng, -0.5, 0.5)],
                "center_t": 0.0, "radius_z": _u(rng, 11.5, 12.5),
                "radius_t": radius_t, "pattern": [[1.0]]}],
            "potential_terms": [{
                "amplitude": [_u(rng, 1.9, 2.1), 0.0], "center_z": [_u(rng, -0.5, 0.5)],
                "center_t": 0.0, "radius_z": _u(rng, 11.5, 12.5),
                "radius_t": radius_t}],
        },
        "grid": {"points": 1024 if small else 8192, "half_width": 80.0},
        "solver": {"dt": 2e-3, "margin": 0.25},
        "seed": rng.randrange(2**31),
        "jobs": [
            {"check": "noncompact", "params": {
                "Z0": [_u(rng, 1.45, 1.55)], "frak0": [_u(rng, -0.05, 0.05)],
                "h_list": [h0, round(h0 / 2.0, 6), round(h0 / 5.0, 6)]}},
            {"check": "pairing", "params": {"tol": 5e-4}},
        ],
    }


def _strang2d(rng, small):
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "bench_strang2d",
        "dimension": 2,
        "perturbation": {
            "bumps": [{
                "amplitude": _u(rng, 0.0475, 0.0525),
                "center_z": [_u(rng, -0.1, 0.1), _u(rng, -0.1, 0.1)],
                "center_t": 0.0, "radius_z": _u(rng, 1.95, 2.05), "radius_t": 0.1,
                "pattern": [[1.0, 0.0], [0.0, 1.0]]}],
        },
        "grid": {"points": 32 if small else 64, "half_width": 10.0},
        "solver": {"dt": 5e-3, "margin": 0.25},
        "seed": rng.randrange(2**31),
        "jobs": [{"check": "pairing", "params": {"tol": 5e-3}}],
    }


def _classical(rng, small):
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "bench_classical",
        "dimension": 2,
        "perturbation": {
            "bumps": [{
                "amplitude": _u(rng, 0.045, 0.055),
                "center_z": [_u(rng, -0.2, 0.2), _u(rng, -0.2, 0.2)],
                "center_t": 0.0, "radius_z": 6.0, "radius_t": 0.5,
                "pattern": [[1.0, 0.0], [0.0, 1.0]]}],
        },
        "grid": None,
        "solver": {"flow_tol": 1e-11},
        "seed": rng.randrange(2**31),
        "jobs": [
            # h_fd 1e-3: the defect is finite-difference truncation, which
            # varies less from beam to beam than the round-off at 1e-4.
            {"check": "symplectic", "params": {
                "samples": 1 if small else 3, "h_fd": 1e-3, "tol": 1e-6,
                "seed": rng.randrange(2**31)}},
            # horizon 1e3: at 1e6 the far-field round-off of 2 t zeta - z
            # (~1e-10) would dominate the tolerance use and vary by 100x
            # between seeds.
            {"check": "radial", "params": {
                "Z0": [_u(rng, 0.9, 1.1), _u(rng, -0.1, 0.1)],
                "frak0": [_u(rng, -0.1, 0.1), _u(rng, 0.2, 0.4)],
                "horizon": 1e3}},
        ],
    }


_BUILDERS = {"cn1d": _cn1d, "strang2d": _strang2d, "classical": _classical}


def scenario(workload: str, seed: int, small: bool = False) -> dict:
    """The scenario document of ``workload`` for ``seed``.

    ``small`` shrinks grids and beam counts for the harness self-test."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload '{workload}'; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, small)


def work_per_pass(doc: dict) -> int:
    """Inputs mapped in one pass: maps by S or S* for quantum checks,
    classical_scatter calls for classical checks."""
    total = 0
    for job in doc["jobs"]:
        params = job.get("params", {})
        if job["check"] == "noncompact":
            total += len(params["h_list"])
        elif job["check"] == "pairing":
            total += 4 if params.get("refine") else 2
        elif job["check"] == "symplectic":
            total += params["samples"] * 4 * doc["dimension"]
        elif job["check"] == "radial":
            total += 1
        else:
            raise ValueError(f"no work count for check '{job['check']}'")
    return total


def work_unit(doc: dict) -> str:
    return "scatters" if doc["grid"] is None else "maps"


def write(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
