"""Outside-in tracing of the rankdiff layers for the benchmark's traced run.

The program is not edited: each public function is replaced, for the length
of one traced pass, by a wrapper installed on every module attribute that
still holds the original function.  Names bound at import time
(``cli.write_csv``, ``densities.transition_density``, ``planar.sample_triples``,
...) are therefore wrapped where their callers look them up.

Spans are kept in memory as tuples (id, name, start, end, thread, parent,
counts) and written out when the run ends.  Counts (path-steps, draws,
points, cells) come from call arguments and results.  A span whose parent
has the same name is a recursive call (the symmetry reductions) and is left
out of the per-layer totals, so its work is counted once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

import numpy as np

MODULES = ("cli", "planar", "bangbang", "densities", "timereversal", "classifier",
           "harness", "validation", "svgplot")

# the checks of the acceptance battery that mc-batches runs whole, one
# per-layer self-time metric each
CHECKS = ("check_classifier", "check_normalization", "check_chapman_kolmogorov",
          "check_path_identities")

CLI_SUBCOMMANDS = ("simulate", "sample", "density", "classify", "reverse", "tanaka")


def _size(a, r):
    return {"units": int(np.size(r))}


def _n_steps_times(paths_key):
    def count(a, r):
        return {"units": int(a["n_steps"]) * int(a[paths_key])}
    return count


def _n_steps_times_draws(a, r):
    return {"units": int(a["n_steps"]) * int(np.shape(a["yT_draws"])[0])}


def _csv_cells(a, r):
    lines = r.count("\n") - 2  # version comment and header
    return {"units": lines * len(a["columns"]), "bytes": len(r)}


def _tanaka_steps(a, r):
    return {"units": int(a["reps"]) * sum(int(round(a["T"] / float(d))) for d in a["dts"])}


# (module defining the function, function, span name, counter or None,
#  modules to rebind in or None for every module that holds it)
TARGETS = (
    ("planar", "euler_terminal_batch", "planar.euler_terminal_batch",
     _n_steps_times("n_paths"), None),
    ("planar", "euler_simulate", "planar.euler_simulate",
     lambda a, r: {"units": int(a["n_steps"])}, None),
    ("planar", "exact_sample_terminal", "planar.exact_sample_terminal",
     lambda a, r: {"units": len(r)}, None),
    ("bangbang", "sample_triples", "bangbang.sample_triples",
     lambda a, r: {"units": len(r)}, None),
    # every rejection proposal is one inverse-normal evaluation
    ("tails", "norm_ppf", "bangbang.rejection.norm_ppf", _size, ("bangbang",)),
    ("bangbang", "euler_gap_path", "bangbang.euler_gap",
     lambda a, r: {"units": int(a["n_steps"])}, None),
    ("bangbang", "euler_gap_terminal", "bangbang.euler_gap", _n_steps_times("n_paths"), None),
    ("bangbang", "euler_gap_paths_batch", "bangbang.euler_gap", _n_steps_times("n_paths"), None),
    ("bangbang", "tanaka_residual_series", "bangbang.tanaka_residual", _size, None),
    ("bangbang", "tanaka_residual_matrix", "bangbang.tanaka_residual", _size, None),
    ("bangbang", "transition_density", "bangbang.transition_density", _size, None),
    ("bangbang", "transition_density_from", "bangbang.transition_density", _size, None),
    ("bangbang", "atom_mass", "bangbang.atom_mass", None, None),
    ("densities", "planar_density", "densities.planar_density", _size, None),
    ("timereversal", "q_function", "timereversal.q_function", _size, None),
    ("classifier", "strength", "classifier.strength", None, None),
    ("classifier", "build_config", "classifier.build_config", None, None),
    ("harness", "write_csv", "harness.write_csv", _csv_cells, None),
    ("harness", "tanaka_coalescence_experiment", "harness.tanaka_coalescence",
     _tanaka_steps, None),
    ("harness", "ks_statistic", "harness.stats", None, None),
    ("harness", "ks_two_sample", "harness.stats", None, None),
    ("harness", "chi2_against_density", "harness.stats", None, None),
    ("svgplot", "emit_svg_heatmap", "svgplot.emit_svg_heatmap", None, None),
) + tuple(("validation", c, f"validation.{c}", None, None) for c in CHECKS)


class _Args:
    """Call arguments by parameter name, defaults included; bound on first
    use, since most counters need only the result."""

    def __init__(self, sig, args, kwargs):
        self._sig, self._args, self._kwargs, self._bound = sig, args, kwargs, None

    def __getitem__(self, name):
        if self._bound is None:
            bound = self._sig.bind(*self._args, **self._kwargs)
            bound.apply_defaults()
            self._bound = bound.arguments
        return self._bound[name]


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores them."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, count=None, sig=None, parent=None):
        """Run fn(*args, **kwargs) inside a span; count(arguments, result)."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        stack.append(sid)
        counts = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        if count is not None:
            try:
                counts = count(_Args(sig, args, kwargs), result)
            except (KeyError, TypeError, ValueError, AttributeError):
                counts = None  # the signature moved on; the layer reads as idle
        self.spans.append((sid, name, t0, t1, threading.get_ident(), parent, counts))
        return result

    def wrap(self, name, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, sig)
        return traced

    def _wrap_pmap(self, fn):
        """pmap_batches: each batch becomes a span on its worker thread whose
        parent is the pmap span, so busy time is summed across threads."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            task = bound.arguments["fn"]
            stack = self._stack()
            pmap_id = next(self._ids)  # reserved so batches can name it as parent

            def batch(*a, **k):
                return self.call("harness.pmap_batches.batch", task, a, k, parent=pmap_id)

            bound.arguments["fn"] = batch
            parent = stack[-1] if stack else None
            stack.append(pmap_id)
            t0 = time.perf_counter()
            try:
                out = fn(*bound.args, **bound.kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            workers = max(1, min(int(bound.arguments["workers"]), len(out)))
            self.spans.append((pmap_id, "harness.pmap_batches", t0, t1, threading.get_ident(),
                               parent, {"capacity_s": (t1 - t0) * workers}))
            return out
        return traced

    def _wrap_backward(self, fn, drift_clamp):
        """simulate_backward: its dt sets the clamp that backward_drift hits."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a = _Args(sig, args, kwargs)
            saved = getattr(self._local, "clamp", None)
            self._local.clamp = drift_clamp * int(a["n_steps"]) / float(a["spec"].T)
            try:
                return self.call("timereversal.simulate_backward", fn, args, kwargs,
                                 _n_steps_times_draws, sig)
            finally:
                self._local.clamp = saved
        return traced

    def _clamp_hits(self, a, r):
        clamp = getattr(self._local, "clamp", None)
        return {"clamp_hits": 0 if clamp is None else int(np.count_nonzero(np.abs(r) > clamp))}

    # -- installing --------------------------------------------------------

    def install(self, pkg):
        """Wrap every target on each rankdiff module that binds it."""
        mods = {name: getattr(pkg, name) for name in MODULES + ("tails",)}
        every = [pkg] + [mods[m] for m in MODULES]
        tr = mods["timereversal"]
        special = (
            ("harness", "pmap_batches", self._wrap_pmap),
            ("timereversal", "simulate_backward",
             lambda f: self._wrap_backward(f, getattr(tr, "DRIFT_CLAMP", 10.0))),
            ("timereversal", "backward_drift",
             lambda f: self.wrap("timereversal.backward_drift", f, self._clamp_hits)),
        )
        plan = [(home, fname, (lambda f, s=span, c=count: self.wrap(s, f, c)), where)
                for home, fname, span, count, where in TARGETS]
        plan += [(home, fname, make, None) for home, fname, make in special]
        for home, fname, make, where in plan:
            orig = getattr(mods[home], fname, None)
            if orig is None:
                continue
            traced = make(orig)
            for mod in ([mods[m] for m in where] if where else every):
                if getattr(mod, fname, None) is orig:
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, traced)

    def uninstall(self):
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, tid, parent, counts in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "thread": tid, "parent": parent, "counts": counts}) + "\n")

    def totals(self):
        """Per span name: calls, seconds, self seconds and summed counts, over
        the spans that are not recursive calls of themselves."""
        by_id = {s[0]: s for s in self.spans}
        child_time = {}
        for sid, name, t0, t1, tid, parent, _ in self.spans:
            up = by_id.get(parent)
            if up is not None and up[4] == tid:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out = {}
        for sid, name, t0, t1, tid, parent, counts in self.spans:
            up = by_id.get(parent)
            if up is not None and up[1] == name:
                continue
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            for key, val in (counts or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out


def per_layer_metrics(totals, rng_ns_per_draw):
    """The per-layer metrics of BENCHMARK.json from span totals; an idle
    layer reads 0."""
    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    def per_unit(name, scale):
        units = get(name, "units")
        return get(name) * scale / units if units else 0.0

    def per_call(name, scale):
        calls = get(name, "calls")
        return get(name) * scale / calls if calls else 0.0

    m = {}
    euler_ns = per_unit("planar.euler_terminal_batch", 1e9)
    m["planar.euler_terminal_batch.ns_per_path_step"] = (euler_ns, "ns")
    m["planar.euler_terminal_batch.over_rng_floor"] = (
        euler_ns / (2.0 * rng_ns_per_draw) if euler_ns else 0.0, "ratio")
    m["planar.euler_simulate.ns_per_step"] = (per_unit("planar.euler_simulate", 1e9), "ns")
    m["planar.exact_sample_terminal.ns_per_draw"] = (per_unit("planar.exact_sample_terminal", 1e9), "ns")
    m["planar.exact_sample_terminal.us_per_call"] = (per_call("planar.exact_sample_terminal", 1e6), "us")
    m["planar.exact_sample_terminal.calls"] = (get("planar.exact_sample_terminal", "calls"), "count")
    proposals = get("bangbang.rejection.norm_ppf", "units")
    accepted = get("bangbang.sample_triples", "units")
    m["bangbang.rejection.proposals"] = (proposals, "count")
    m["bangbang.rejection.accept_ratio"] = (accepted / proposals if proposals else 0.0, "ratio")
    m["bangbang.euler_gap.ns_per_path_step"] = (per_unit("bangbang.euler_gap", 1e9), "ns")
    m["bangbang.tanaka_residual.ns_per_point"] = (per_unit("bangbang.tanaka_residual", 1e9), "ns")
    m["bangbang.transition_density.ns_per_point"] = (per_unit("bangbang.transition_density", 1e9), "ns")
    m["densities.planar_density.ns_per_point"] = (per_unit("densities.planar_density", 1e9), "ns")
    m["densities.planar_density.points"] = (get("densities.planar_density", "units"), "count")
    m["timereversal.simulate_backward.ns_per_path_step"] = (
        per_unit("timereversal.simulate_backward", 1e9), "ns")
    m["timereversal.q_function.ns_per_point"] = (per_unit("timereversal.q_function", 1e9), "ns")
    m["timereversal.drift_clamp_hits"] = (get("timereversal.backward_drift", "clamp_hits"), "count")
    m["classifier.strength.us_per_call"] = (per_call("classifier.strength", 1e6), "us")
    m["classifier.build_config.us_per_call"] = (per_call("classifier.build_config", 1e6), "us")
    busy = get("harness.pmap_batches.batch")
    capacity = get("harness.pmap_batches", "capacity_s")
    m["harness.pmap_batches.parallel_efficiency"] = (busy / capacity if capacity else 0.0, "ratio")
    m["harness.pmap_batches.batches"] = (get("harness.pmap_batches.batch", "calls"), "count")
    m["harness.write_csv.ns_per_cell"] = (per_unit("harness.write_csv", 1e9), "ns")
    m["harness.write_csv.cells"] = (get("harness.write_csv", "units"), "count")
    m["harness.write_csv.mb_written"] = (get("harness.write_csv", "bytes") / 1e6, "MB")
    m["svgplot.emit_svg_heatmap.busy_s"] = (get("svgplot.emit_svg_heatmap"), "s")
    m["harness.tanaka_coalescence.us_per_step"] = (per_unit("harness.tanaka_coalescence", 1e6), "us")
    m["harness.stats.busy_s"] = (get("harness.stats"), "s")
    for c in CHECKS:
        m[f"validation.{c}.self_s"] = (get(f"validation.{c}", "self_s"), "s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (get(f"cli.{sub}"), "s")
    return m
