"""Outside-in tracer for cusplab.

The tracer wraps public functions and methods of cusplab at the bindings its
callers look up (for example both `cusplab.symbols.symbol_jet` and the
`symbol_jet` name that `cusplab.flow` imported), records one span per call in
memory, and restores every original binding afterwards.  Nothing in the
program is edited; spans inside the program are a later change.

A span is (parent, name, start_ns, end_ns, run_id); its index in
`Tracer.spans` is its id.  Self time is a span's duration minus the time its
child spans cover.  Exact work counts are taken from arguments and return
values at the same boundaries.
"""

from __future__ import annotations

import csv
import functools
import gzip
import statistics
import time
from collections import Counter

# Library calls recorded under the layer that makes them; their time is not
# that layer's own work, so it is left out of the layer's self time.
FOREIGN = ("quantum.solve_banded", "quantum.splu")

SYMBOL_METHODS = ("terms", "time_window", "spatial_extent", "contains", "time_active",
                  "inverse_metric", "inverse_metric_jet", "potential",
                  "inverse_metric_field", "dt_log_det_metric_field",
                  "inverse_metric_jet_field", "potential_field")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cn(counts, args, kwargs, result):
    counts["quantum.cn_point_steps"] += _arg(args, kwargs, 5, "rhs").size


def _count_banded(counts, args, kwargs, result):
    ab, b = _arg(args, kwargs, 1, "ab"), _arg(args, kwargs, 2, "b")
    counts["quantum.solve_banded.bytes_computed"] += ab.nbytes + b.nbytes + result.nbytes


def _count_inputs(name, param):
    def count(counts, args, kwargs, result):
        data = _arg(args, kwargs, 1, param)
        points = 1
        for size in data.grid.shape():
            points *= size
        counts[f"{name}.inputs"] += data.values.size // points
    return count


def _count_rk(counts, args, kwargs, result):
    counts["flow.rk_steps"] += result.stats["steps"]
    counts["flow.rk_rejected"] += result.stats["rejected_steps_estimate"]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, run_id=0):
        self.spans = []
        self.counts = Counter()
        self.run_id = run_id
        self._stack = [-1]
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (stack[-1], name, start, end, run_id)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, name, home, attr, modules, count=None):
        """Wrap ``home.attr`` at every module binding that holds it."""
        original = getattr(home, attr)
        traced = self._wrap(name, original, count)
        for module in modules:
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, traced)

    def install(self):
        import scipy.sparse.linalg as spla

        from cusplab import flow, phasespace, quantum, shell, symbols, verify

        modules = (phasespace, symbols, flow, quantum, verify, shell)
        fn = self._wrap_function
        for attr in ("load_scenario", "run", "run_job"):
            fn(f"shell.{attr}", shell, attr, modules)
        for attr in sorted(a for a in vars(verify) if a.startswith("check_")):
            fn(f"verify.{attr}", verify, attr, modules)
        for attr, param in (("scattering_map", "f_minus"),
                            ("adjoint_scattering_map", "g_plus")):
            fn(f"quantum.{attr}", quantum, attr, modules,
               _count_inputs(f"quantum.{attr}", param))
        for attr in ("propagate_window", "free_propagate", "poisson_free",
                     "extract_asymptotic", "coherent_data", "packet_moments"):
            fn(f"quantum.{attr}", quantum, attr, modules)
        fn("quantum.solve_cyclic_tridiagonal", quantum, "solve_cyclic_tridiagonal",
           modules, _count_cn)
        # the scipy routines, at the binding quantum looks up
        self._patch(quantum, "solve_banded",
                    self._wrap("quantum.solve_banded", quantum.solve_banded,
                               _count_banded))
        self._patch(spla, "splu", self._wrap("quantum.splu", spla.splu))
        for attr in ("hamilton_rhs", "classical_scatter", "scatter_jacobian",
                     "radial_convergence"):
            fn(f"flow.{attr}", flow, attr, modules)
        fn("flow.integrate", flow, "integrate", modules, _count_rk)
        for attr in ("symbol_jet", "principal_symbol"):
            fn(f"symbols.{attr}", symbols, attr, modules)
        for attr in SYMBOL_METHODS:
            self._patch(symbols.PerturbationSpec, attr,
                        self._wrap(f"symbols.{attr}",
                                   getattr(symbols.PerturbationSpec, attr)))
        for attr in ("free_flow", "cusp_from_bichar", "bichar_from_cusp"):
            fn(f"phasespace.{attr}", phasespace, attr, modules)
        self._patch(phasespace.PhasePoint, "__post_init__",
                    self._wrap("phasespace.PhasePoint",
                               phasespace.PhasePoint.__post_init__))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-name totals: {name: [seconds, count, self_seconds]}."""
        child = [0] * len(self.spans)
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            row = totals.setdefault(name, [0.0, 0, 0.0])
            row[0] += (end - start) * 1e-9
            row[1] += 1
            row[2] += (end - start - child[i]) * 1e-9
        return totals


def write_spans(tracers, path):
    """Write the spans of every tracer as gzipped CSV rows
    (run_id, id, parent, name, start_ns, end_ns)."""
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        out = csv.writer(fh)
        out.writerow(["run_id", "id", "parent", "name", "start_ns", "end_ns"])
        for tracer in tracers:
            for sid, (parent, name, start, end, run_id) in enumerate(tracer.spans):
                out.writerow((run_id, sid, parent, name, start, end))


def layer_metrics(totals, counts):
    """Per-layer metrics of one traced run, by the names BENCHMARK.json uses.

    Times are seconds; counts are exact.  A layer that did not run reports 0."""
    def row(name):
        return totals.get(name, (0.0, 0, 0.0))

    def s(name):
        return row(name)[0]

    def n(name):
        return row(name)[1]

    def own(layer):
        return sum(row[2] for name, row in totals.items()
                   if name.startswith(layer + ".") and name not in FOREIGN)

    m = {}
    cn_points = counts["quantum.cn_point_steps"]
    m["quantum.solve_cyclic_tridiagonal.s"] = s("quantum.solve_cyclic_tridiagonal")
    m["quantum.solve_cyclic_tridiagonal.count"] = n("quantum.solve_cyclic_tridiagonal")
    m["quantum.solve_cyclic_tridiagonal.us_per_point"] = (
        1e6 * s("quantum.solve_cyclic_tridiagonal") / cn_points if cn_points else 0.0)
    m["quantum.cn_point_steps"] = cn_points
    m["quantum.solve_banded.s"] = s("quantum.solve_banded")
    m["quantum.solve_banded.bytes_computed"] = counts["quantum.solve_banded.bytes_computed"]
    for attr in ("scattering_map", "adjoint_scattering_map"):
        m[f"quantum.{attr}.s"] = s(f"quantum.{attr}")
        m[f"quantum.{attr}.count"] = n(f"quantum.{attr}")
        m[f"quantum.{attr}.inputs"] = counts[f"quantum.{attr}.inputs"]
    m["quantum.splu.s"] = s("quantum.splu")
    m["quantum.splu.count"] = n("quantum.splu")
    for attr in ("propagate_window", "free_propagate", "poisson_free",
                 "extract_asymptotic", "coherent_data"):
        m[f"quantum.{attr}.s"] = s(f"quantum.{attr}")
    m["quantum.self_s"] = own("quantum")
    for attr in ("inverse_metric_field", "potential_field", "dt_log_det_metric_field",
                 "inverse_metric_jet_field", "symbol_jet", "principal_symbol",
                 "inverse_metric", "inverse_metric_jet", "potential"):
        m[f"symbols.{attr}.s"] = s(f"symbols.{attr}")
        m[f"symbols.{attr}.count"] = n(f"symbols.{attr}")
    m["symbols.self_s"] = own("symbols")
    for attr in ("scatter_jacobian", "classical_scatter", "integrate", "hamilton_rhs",
                 "radial_convergence"):
        m[f"flow.{attr}.s"] = s(f"flow.{attr}")
        m[f"flow.{attr}.count"] = n(f"flow.{attr}")
    m["flow.classical_scatter.self_s"] = row("flow.classical_scatter")[2]
    steps, rejected = counts["flow.rk_steps"], counts["flow.rk_rejected"]
    m["flow.rk_steps"] = steps
    m["flow.rk_rejected"] = rejected
    m["flow.rk_accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    m["flow.self_s"] = own("flow")
    m["phasespace.PhasePoint.count"] = n("phasespace.PhasePoint")
    for attr in ("free_flow", "cusp_from_bichar", "bichar_from_cusp"):
        m[f"phasespace.{attr}.s"] = s(f"phasespace.{attr}")
        m[f"phasespace.{attr}.count"] = n(f"phasespace.{attr}")
    m["phasespace.self_s"] = own("phasespace")
    for attr in ("check_noncompactness", "check_pairing", "check_symplectic",
                 "check_radial"):
        m[f"verify.{attr}.s"] = s(f"verify.{attr}")
    m["verify.self_s"] = own("verify")
    m["shell.load_scenario.s"] = s("shell.load_scenario")
    m["shell.run_job.self_s"] = row("shell.run_job")[2]
    return m


def unit(name):
    """Unit of a per-layer metric."""
    if name.endswith("us_per_point"):
        return "us"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    return "count"


def is_count(name):
    """Exact counts, and ratios of them, repeat exactly for the same inputs."""
    return unit(name) in ("count", "B", "ratio")


def median_metrics(runs):
    """Combine the per-run metric dicts: medians of times, counts as measured
    (the caller checks that they repeat)."""
    return {name: runs[0][name] if is_count(name)
            else statistics.median(r[name] for r in runs) for name in runs[0]}
