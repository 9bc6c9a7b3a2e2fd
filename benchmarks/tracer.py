"""Outside-in tracing of the package for the benchmark's traced run.

Every public function of every layer module is replaced, for the length
of a `tracing` block, by a wrapper that records a span (name, parent,
start, end) in a `SpanRecorder`. Wrappers are installed in every module
namespace that holds the function, because callers look names up in
their own module (`cli.integrate`, `hysteresis.integrate`,
`dynamics.hamiltonian`, ...); patching only the defining module would
miss those nested calls. A few wrappers also count work at the same
boundary: RHS evaluations, samples, fixed points, bytes written.

Spans stay in flat in-memory arrays and are written out once at the
end; self time (a span's duration minus its children's) is derived
from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "model", "dynamics", "bifurcation", "hysteresis",
          "serialize", "svgplot")


class SpanRecorder:
    """Spans in flat arrays: name id, parent index (-1 at the root),
    start and end in perf_counter seconds."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self.h_drift_max = 0.0
        self.rhs_evals = [0]  # a list cell: the counting closure is hot

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def innermost(self):
        return self.name[self.stack[-1]] if self.stack else -1

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self):
        """(name ids, parents, durations, self times) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        return name, parent, dur, dur - child

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def _traced(fn, nid, rec, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        return result if after is None else after(result, args)
    return wrapper


def _after_hooks(rec):
    """Counters taken where the work crosses a layer boundary."""
    integrate_id = rec.name_id("dynamics.integrate")
    rhs = rec.rhs_evals

    def make_field(field, args):
        # only closures built by integrate count as stepper RHS work;
        # vector_field (jacobian_at's finite differences) builds its own
        if rec.innermost() != integrate_id:
            return field

        def counted(z, theta, eta):
            rhs[0] += 1
            return field(z, theta, eta)
        return counted

    def integrate(traj, args):
        rec.counts["dynamics.samples"] += len(traj.samples)
        rec.counts["dynamics.clamp_events"] += traj.clamp_events
        if args[1].nu == 0.0:
            h0 = traj.samples[0].H
            drift = max(abs(s.H - h0) for s in traj.samples)
            rec.h_drift_max = max(rec.h_drift_max, drift)
        return traj

    def count_chars(key):
        def after(text, args):
            rec.counts[key] += len(text)
            return text
        return after

    def fixed_points(points, args):
        rec.counts["bifurcation.fixed_points"] += len(points)
        return points

    def diagram_points(diagram, args):
        rec.counts["bifurcation.fixed_points"] += sum(
            len(b.points) for b in diagram.branches)
        return diagram

    def cli_main(code, args):
        rec.counts["cli.exit_nonzero"] += code != 0
        return code

    hooks = {
        "dynamics.make_field": make_field,
        "dynamics.integrate": integrate,
        "bifurcation.find_fixed_points": fixed_points,
        "bifurcation.trace_branches": diagram_points,
        "cli.main": cli_main,
    }
    for name in ("trajectory_to_csv", "diagram_to_csv", "diagram_to_json",
                 "report_to_json", "threshold_to_json"):
        hooks[f"serialize.{name}"] = count_chars("serialize.bytes_out")
    for name in ("plot_trajectory", "plot_diagram", "plot_sweep"):
        hooks[f"svgplot.{name}"] = count_chars("svgplot.bytes_out")
    return hooks


@contextlib.contextmanager
def tracing(rec, package):
    """Wrap every public layer function for the duration of the block."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    hooks = _after_hooks(rec)
    wrappers = {}
    for layer, mod in modules.items():
        for attr, fn in vars(mod).items():
            if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                wrappers[fn] = _traced(fn, rec.name_id(name), rec,
                                       hooks.get(name))
    patched = []
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    try:
        yield rec
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


def layer_metrics(rec):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    name, parent, dur, self_t = rec.arrays()
    n = len(rec.names)
    calls = np.bincount(name, minlength=n)
    selfs = np.bincount(name, weights=self_t, minlength=n)
    incl = np.bincount(name, weights=dur, minlength=n)

    def per_name(values, key):
        i = rec._ids.get(key)
        return values[i].item() if i is not None else 0

    def ncalls(key):
        return per_name(calls, key)

    def self_s(key):
        return float(per_name(selfs, key))

    def incl_s(key):
        return float(per_name(incl, key))

    out = {}
    rhs = rec.rhs_evals[0]
    integrate_self = self_s("dynamics.integrate")
    out["dynamics.integrate.calls"] = (ncalls("dynamics.integrate"), "count")
    out["dynamics.integrate.self_s"] = (integrate_self, "s")
    out["dynamics.rhs_evals"] = (rhs, "count")
    out["dynamics.ns_per_rhs_eval"] = (
        integrate_self / rhs * 1e9 if rhs else 0.0, "ns")
    out["dynamics.samples"] = (rec.counts["dynamics.samples"], "count")
    out["dynamics.clamp_events"] = (rec.counts["dynamics.clamp_events"],
                                    "count")
    out["dynamics.h_drift_max"] = (rec.h_drift_max, "abs")
    for key in ("model.hamiltonian", "model.eval_schedule"):
        out[f"{key}.calls"] = (ncalls(key), "count")
        out[f"{key}.self_s"] = (self_s(key), "s")
    out["hysteresis.run_sweep.calls"] = (ncalls("hysteresis.run_sweep"),
                                         "count")
    out["hysteresis.run_sweep.self_s"] = (self_s("hysteresis.run_sweep"), "s")
    for key in ("bifurcation.trace_branches", "bifurcation.find_fixed_points"):
        out[f"{key}.calls"] = (ncalls(key), "count")
        out[f"{key}.self_s"] = (self_s(key), "s")
    out["bifurcation.find_eta_plus.self_s"] = (
        self_s("bifurcation.find_eta_plus"), "s")
    n_fp = rec.counts["bifurcation.fixed_points"]
    out["bifurcation.fixed_points"] = (n_fp, "count")
    out["bifurcation.us_per_fixed_point"] = (
        (incl_s("bifurcation.trace_branches")
         + incl_s("bifurcation.find_fixed_points")) / n_fp * 1e6
        if n_fp else 0.0, "us")
    for key in ("bifurcation.jacobian_at", "bifurcation.stationary_residual"):
        out[f"{key}.calls"] = (ncalls(key), "count")
    for key in ("serialize.trajectory_to_csv", "serialize.trajectory_from_csv",
                "serialize.report_to_json", "serialize.diagram_to_csv",
                "serialize.diagram_to_json"):
        out[f"{key}.self_s"] = (self_s(key), "s")
    out["serialize.bytes_out"] = (rec.counts["serialize.bytes_out"], "bytes")
    for key in ("svgplot.plot_trajectory", "svgplot.plot_sweep",
                "svgplot.plot_diagram"):
        out[f"{key}.self_s"] = (self_s(key), "s")
    out["svgplot.bytes_out"] = (rec.counts["svgplot.bytes_out"], "bytes")
    out["cli.main.calls"] = (ncalls("cli.main"), "count")
    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    out["cli.exit_nonzero"] = (rec.counts["cli.exit_nonzero"], "count")
    for layer in LAYERS:
        ids = [i for i, nm in enumerate(rec.names)
               if nm.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (float(selfs[ids].sum()), "s")
    out["trace.wall_s"] = (float(dur[parent < 0].sum()), "s")
    return out
