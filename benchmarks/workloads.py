"""One benchmark workload in a fresh process.

Started by run.py; not meant to be run by hand:

    python3 benchmarks/workloads.py --setup-only --t0 T
    python3 benchmarks/workloads.py --workload NAME --seed N --seconds S \
        --t0 T --out-dir DIR --result FILE [--trace]

`--t0` is the parent's time.monotonic() just before it started this process,
so set-up time covers interpreter start, imports and the argument parser.

A workload runs in passes.  A pass issues every operation of the workload
once, in order, from a single caller (a closed loop), and checks each
output; its wall time therefore runs from the first operation issued to the
last one checked.  The timed mode repeats passes while the next one is
expected to end within `--seconds` (at least one).  The traced mode runs one untraced pass, for
mc-batches one more at a single worker, and then one pass with every
layer wrapped (see tracer.py), and requires the output digests of all of
them to be equal.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# numpy and rankdiff are imported inside functions, so that setup() times the
# program's own import and a set-up-only process loads nothing else



def setup():
    """Import the program and build its parser; returns the import time."""
    t = time.perf_counter()
    import rankdiff.cli
    import_s = time.perf_counter() - t
    rankdiff.cli.build_parser()
    return import_s


def nproc():
    return len(os.sched_getaffinity(0))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def call_cli(argv, tracer):
    import rankdiff.cli
    if tracer is None:
        return rankdiff.cli.main(argv)
    return tracer.call(f"cli.{argv[0]}", rankdiff.cli.main, (argv,))


def all_finite(body):
    """No numeric cell of a CSV body is NaN or infinite."""
    if b"n" not in body and b"N" not in body:
        return True  # every non-finite float is written as nan, inf or -inf
    for cell in body.replace(b"\n", b",").split(b","):
        try:
            value = float(cell)
        except ValueError:
            continue  # a text cell
        if not math.isfinite(value):
            return False
    return True


def check_table(path, expected_rows):
    """A CSV table: a version comment, a header, `expected_rows` rows with one
    cell per column, and no NaN or infinite numeric cell."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n", 2)
    if len(lines) < 3 or not lines[0].startswith(b"#"):
        return False
    n_cols = lines[1].count(b",") + 1
    body = lines[2]
    n_rows = body.count(b"\n")
    return (n_rows == expected_rows and body.count(b",") == n_rows * (n_cols - 1)
            and all_finite(body))


def check_file(path, expected_rows):
    if not os.path.isfile(path):
        return False
    if path.endswith(".csv"):
        return check_table(path, expected_rows)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".svg"):
        return text.startswith("<svg") and text.rstrip().endswith("</svg>")
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _battery_cases():
    """(name, params, start) of the exact-sampler cases of the battery's
    criterion 5: both degenerate starts, isotropic, and unequal 0.8/0.6."""
    import rankdiff as rd
    sq = 1 / math.sqrt(2)
    return [
        ("degenerate-fig2", rd.validate_params(1.0, 1.0, 1.0, 0.0), rd.InitialState(0.0, 0.0)),
        ("degenerate-apart", rd.validate_params(1.0, 1.0, 1.0, 0.0), rd.InitialState(0.5, 0.0)),
        ("isotropic", rd.validate_params(1.0, 0.5, sq, sq, renormalize=True),
         rd.InitialState(0.3, 0.0)),
        ("unequal-0.8-0.6", rd.validate_params(1.0, 0.5, 0.8, 0.6), rd.InitialState(0.4, 0.0)),
    ]


class McBatches:
    """The work of the acceptance battery behind `rankdiff validate`, keyed
    to the workload seed, with `harness.pmap_batches` at nproc workers.

    Operations, in order: the battery checks whose every row is an exact
    verdict (classifier counts, density normalization, Chapman-Kolmogorov,
    path identities), each required to pass in full; then the Monte Carlo
    jobs of the battery at smaller sizes -- exact draws with a chi-square
    against the closed-form density per sampler case, exact and Euler
    terminal draws for systems B, W and V with their two-sample KS distance,
    gap-process batches with their Tanaka residuals, and steady-state
    backward paths.  A Monte Carlo job must return finite draws of the
    requested shape and statistics in their ranges; its statistical verdict
    depends on the seed and is not checked (see README.md).
    """

    N_DRAWS = 40_000    # two 20,000-draw batches, so that both workers are busy
    N_STEPS = 1000      # Euler steps to t = 1, as in the battery

    def __init__(self, seed, workers):
        from rankdiff.core import SeedSpec
        self.seed = SeedSpec(seed)
        self.workers = workers

    def _operations(self, workers):
        """(name, thunk) per operation; a thunk returns (output arrays, ok)."""
        import numpy as np
        import rankdiff as rd
        from rankdiff import bangbang, densities, harness, planar, timereversal, validation
        seed, n, t = self.seed, self.N_DRAWS, 1.0

        def exact_rows(check, *args):
            rows = check(*args)
            return [np.array([r.statistic for r in rows])], bool(rows) and all(
                r.passed for r in rows)

        def sampler(idx, p, s0):
            def draw(k, s):
                d = planar.exact_sample_terminal(p, s0, t, k, s)
                return np.column_stack((d.x1, d.x2, d.triples.atom.astype(float)))
            draws = np.concatenate(harness.pmap_batches(n, draw, seed.stream(10_000 + 1000 * idx),
                                                        workers), axis=0)
            x1, x2, is_atom = draws[:, 0], draws[:, 1], draws[:, 2] > 0.5
            atom = densities.planar_atom(p, s0, t)
            edges = ([atom.location] if atom is not None and atom.axis == "x1" else [],
                     [atom.location] if atom is not None and atom.axis == "x2" else [])
            keep = ~is_atom if p.is_degenerate else np.ones(n, dtype=bool)
            stat, pval, dof = harness.chi2_against_density(
                x1[keep], x2[keep], lambda a, b: densities.planar_density(p, s0, t, a, b),
                n_bins=20, special_edges1=edges[0], special_edges2=edges[1])
            return [draws, np.array([stat, pval, dof])], (
                draws.shape == (n, 3) and stat >= 0 and 0 <= pval <= 1 and dof > 0)

        p_euler = rd.validate_params(1.0, 1.0, 1.0, 0.0)
        s_euler = rd.InitialState(0.0, 0.0)
        exact = {}

        def exact_terminal():
            def draw(k, s):
                d = planar.exact_sample_terminal(p_euler, s_euler, t, k, s)
                return np.column_stack((d.x1, d.x2))
            exact["xy"] = np.concatenate(harness.pmap_batches(n, draw, seed.stream(20_000),
                                                              workers), axis=0)
            return [exact["xy"]], exact["xy"].shape == (n, 2)

        def euler(k, kind):
            def draw(m, s):
                return np.column_stack(planar.euler_terminal_batch(
                    kind, p_euler, s_euler, t, self.N_STEPS, m, s))
            eu = np.concatenate(harness.pmap_batches(n, draw, seed.stream(21_000 + 100 * k),
                                                     workers), axis=0)
            ks = np.array([harness.ks_two_sample(eu[:, j], exact["xy"][:, j]) for j in (0, 1)])
            return [eu, ks], eu.shape == (n, 2) and bool(((ks >= 0) & (ks <= 1)).all())

        def gap(k, dt, n_paths=600):
            n_steps = int(round(1.0 / dt))
            _, y, dw = bangbang.euler_gap_paths_batch(2.0, 0.3, 1.0, n_steps, n_paths,
                                                      seed.stream(40_000 + k).generator())
            el = bangbang.tanaka_residual_matrix(y)
            return [y[-1], dw.sum(axis=0), el[-1]], (
                y.shape == (n_steps + 1, n_paths) and el.shape == y.shape)

        def backward(lam=2.0):
            p = rd.validate_params(lam / 2, lam / 2, 1.0, 0.0)
            spec = timereversal.BackwardDriftSpec(p, 0.0, t, mode="steady_state")
            y_term = seed.stream(50_001).generator().laplace(0.0, 1.0 / (2 * lam), n)
            _, rec = timereversal.simulate_backward(spec, y_term, 500, seed.stream(50_002),
                                                    record_times=[t / 2])
            return [rec], rec.shape == (1, n)

        ops = [("classifier", lambda: exact_rows(validation.check_classifier, seed.stream(1_000))),
               ("normalization", lambda: exact_rows(validation.check_normalization)),
               ("chapman-kolmogorov", lambda: exact_rows(validation.check_chapman_kolmogorov)),
               ("path-identities",
                lambda: exact_rows(validation.check_path_identities, seed.stream(30_000)))]
        ops += [(f"sampler/{name}", functools.partial(sampler, i, p, s0))
                for i, (name, p, s0) in enumerate(_battery_cases())]
        ops.append(("exact-terminal", exact_terminal))
        ops += [(f"euler/{kind}", functools.partial(euler, k, kind))
                for k, kind in enumerate(("B", "W", "V"))]
        ops += [(f"gap/dt={dt:g}", functools.partial(gap, k, dt))
                for k, dt in enumerate((1e-3, 2.5e-4))]
        ops.append(("backward/steady-state", backward))
        return ops

    def run_pass(self, out_dir, tracer=None, workers=None):
        import numpy as np
        h = hashlib.sha256()
        ops = []
        for name, thunk in self._operations(workers or self.workers):
            t = time.perf_counter()
            try:
                outs, ok = thunk()
            except Exception as exc:  # a failed job is a failed operation, not a crash
                ops.append((time.perf_counter() - t, False))
                print(f"mc-batches: {name} raised {exc!r}", file=sys.stderr)
                continue
            lat = time.perf_counter() - t
            for x in outs:
                x = np.asarray(x, dtype=float)
                ok = ok and bool(np.isfinite(x).all())
                h.update(np.ascontiguousarray(x).tobytes())
            if not ok:
                print(f"mc-batches: {name} failed its check", file=sys.stderr)
            ops.append((lat, ok))
        return ops, {"outputs": h.hexdigest()}


def _cli_export_commands():
    """(argv, [(file, expected rows)]) for each file-producing invocation."""
    unequal = ["--g", "1", "--h", "0.5", "--rho", "0.8", "--sigma", "0.6"]
    return [
        (["simulate", "--system", "B", "--paths", "8", "--steps", "20000"] + unequal,
         [(f"path_{i:03d}.csv", 20001) for i in range(8)]),
        (["simulate", "--system", "custom", "--eps", "-1", "--delta", "1", "--phi", "0.7",
          "--vartheta", "2.1", "--paths", "4", "--steps", "20000"] + unequal,
         [(f"path_{i:03d}.csv", 20001) for i in range(4)]),
        (["simulate", "--system", "gap", "--paths", "8", "--steps", "20000"],
         [(f"gap_path_{i:03d}.csv", 20001) for i in range(8)]),
        (["sample", "--paths", "200000"], [("terminal_draws.csv", 200000)]),
        (["density", "--g", "1", "--h", "1", "--rho", "1", "--sigma", "0", "--x1", "0.5",
          "--x2", "0", "--xi-n", "301", "--svg", "heatmap.svg"],
         [("joint_density.csv", 301 * 301), ("joint_density.meta.json", None),
          ("heatmap.svg", None)]),
        (["density", "--x1", "0.4", "--x2", "0", "--xi-n", "301"] + unequal,
         [("joint_density.csv", 301 * 301), ("joint_density.meta.json", None)]),
        (["density", "--law", "gap", "--xi-n", "20001"], [("gap_density.csv", 20001)]),
        (["classify", "--enumerate"], [("classify.csv", 64)]),
        (["reverse", "--mode", "transient", "--lam", "2", "--y0", "0.3", "--paths", "20000",
          "--steps", "500"],
         [("backward_drift.csv", 5 * 61), ("reverse_report.csv", 1)]),
        (["tanaka"], [("tanaka_coalescence.csv", 3)]),
    ]


class CliExport:
    """The file-producing subcommands in sequence through rankdiff.cli.main;
    an operation is one invocation."""

    def __init__(self, seed, workers):
        self.seed = seed
        self.commands = _cli_export_commands()

    def run_pass(self, out_dir, tracer=None):
        ops, digests = [], {}
        for k, (argv, files) in enumerate(self.commands):
            sub = f"{k:02d}-{argv[0]}"
            d = os.path.join(out_dir, sub)
            t = time.perf_counter()
            rc = call_cli(argv + ["--seed", str(self.seed), "--out-dir", d], tracer)
            lat = time.perf_counter() - t
            ok = rc == 0 and all(check_file(os.path.join(d, f), n) for f, n in files)
            ops.append((lat, ok))
            for f in sorted(os.listdir(d)) if os.path.isdir(d) else ():
                digests[f"{sub}/{f}"] = sha256_file(os.path.join(d, f))
        return ops, digests


class ApiSmallCalls:
    """About 10,000 small library calls through the rankdiff namespace,
    cycling through five kinds, with parameters drawn from the seed across
    the valid domain; an operation is one call."""

    KINDS = ("exact_sample_terminal", "planar_density", "q_function", "euler_simulate",
             "build_config+strength")
    N_CALLS = 10_000

    def __init__(self, seed, workers):
        import numpy as np
        import rankdiff as rd
        rng = np.random.default_rng(seed)
        iso = math.sqrt(0.5)
        self.calls = []
        for i in range(self.N_CALLS):
            kind = i % len(self.KINDS)
            lam = rng.uniform(0.2, 5.0)
            u = rng.uniform()
            vol = (i // len(self.KINDS)) % 4  # every kind meets every volatility case
            if vol == 0:
                rho, sigma = iso, iso
            elif vol == 1:
                rho, sigma = 1.0, 0.0
            elif vol == 2:
                rho, sigma = 0.0, 1.0
            else:
                a = rng.uniform(0.0, math.pi / 2)
                rho, sigma = math.cos(a), math.sin(a)
            p = rd.validate_params(lam * u, lam * (1.0 - u), rho, sigma)
            x1, x2 = rng.uniform(-2.0, 2.0, 2)
            s0 = rd.InitialState(float(x1), float(x2))
            t = float(rng.uniform(0.1, 3.0))
            seed_i = rd.SeedSpec(seed, i)
            hw = abs(s0.y) + p.lam * t + 4.0 * math.sqrt(t)
            if kind == 0:
                args = (p, s0, t, 256, seed_i)
            elif kind == 1:
                c1, c2 = s0.x1 + p.mu * t, s0.x2 + p.mu * t
                args = (p, s0, t, np.linspace(c1 - hw, c1 + hw, 48)[:, None],
                        np.linspace(c2 - hw, c2 + hw, 48)[None, :])
            elif kind == 2:
                args = (p, s0.y, t, np.linspace(-hw, hw, 257))
            elif kind == 3:
                args = ("B", p, s0, t, 400, seed_i)
            else:
                args = (p, int(rng.choice([-1, 1])), int(rng.choice([-1, 1])),
                        float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(0.0, 2 * math.pi)))
            self.calls.append((kind, args))

    @staticmethod
    def _invoke(kind, args):
        """The call itself, looked up on the package at call time; returns the
        output arrays and the shape each must have."""
        import numpy as np
        import rankdiff as rd
        if kind == 0:
            d = rd.exact_sample_terminal(*args)
            return (d.x1, d.x2), (256,)
        if kind == 1:
            return (rd.planar_density(*args),), (48, 48)
        if kind == 2:
            return (rd.q_function(*args),), (257,)
        if kind == 3:
            path = rd.euler_simulate(*args)
            return (path.x1_values, path.x2_values), (401,)
        v = rd.strength(rd.build_config(*args))
        return (np.array([v.ip_sum_norm, v.weak_scalar, v.geom_defect]),), (3,)

    def run_pass(self, out_dir, tracer=None):
        import numpy as np
        h = hashlib.sha256()
        ops = []
        for kind, args in self.calls:
            t = time.perf_counter()
            try:
                outs, shape = self._invoke(kind, args)
            except Exception as exc:  # a failed call is a failed operation, not a crash
                ops.append((time.perf_counter() - t, False))
                print(f"api-small-calls: {self.KINDS[kind]} raised {exc!r}", file=sys.stderr)
                continue
            lat = time.perf_counter() - t
            ok = True
            for x in outs:
                x = np.asarray(x)
                ok = ok and x.shape == shape and bool(np.isfinite(x).all())
                h.update(np.ascontiguousarray(x).tobytes())
            ops.append((lat, ok))
        return ops, {"outputs": h.hexdigest()}


WORKLOADS = {"mc-batches": McBatches, "cli-export": CliExport,
             "api-small-calls": ApiSmallCalls}


def timed_pass(workload, out_dir, **kw):
    """One pass with its wall and CPU time; its files are removed afterwards."""
    os.makedirs(out_dir)
    w, c = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        ops, digests = workload.run_pass(out_dir, **kw)
    wall, cpu = time.perf_counter() - w, time.process_time() - c
    shutil.rmtree(out_dir)
    return {"wall_s": wall, "cpu_s": cpu, "latencies_s": [lat for lat, _ in ops],
            "attempted": len(ops), "failed": sum(not ok for _, ok in ops), "digests": digests}


def philox_ns_per_draw(seed, batch=20_000, calls=200, repeats=5):
    """Reference rate of the RNG the program keys its streams with: Philox
    standard normals in 20,000-draw batches, the Monte Carlo batch size."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(calls):
            gen.standard_normal(batch)
        samples.append((time.perf_counter() - t) / (batch * calls) * 1e9)
    return statistics.median(samples)


def run_timed(workload, out_dir, seconds):
    """Passes until the next one, as long as the median so far, would end
    after `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["wall_s"] for p in passes) <= seconds):
        passes.append(timed_pass(workload, os.path.join(out_dir, f"pass-{len(passes)}")))
    return {"passes": passes}


def run_traced(name, workload, out_dir, seed, import_s):
    import rankdiff
    from tracer import Tracer, per_layer_metrics

    ref_ns = philox_ns_per_draw(seed)
    plain = timed_pass(workload, os.path.join(out_dir, "untraced"))
    passes = {"untraced": plain}
    if name == "mc-batches":
        passes["one_worker"] = timed_pass(workload, os.path.join(out_dir, "one-worker"), workers=1)
    tracer = Tracer()
    tracer.install(rankdiff)
    try:
        passes["traced"] = timed_pass(workload, os.path.join(out_dir, "traced"), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(out_dir, "spans.jsonl"))
    metrics = per_layer_metrics(tracer.totals(), ref_ns)
    one = passes.get("one_worker")
    metrics["harness.pmap_batches.speedup_vs_1_worker"] = (one["wall_s"] / plain["wall_s"] if one else 0.0, "ratio")
    metrics["setup.import_s"] = (import_s, "s")
    metrics["ref.philox_normal.ns_per_draw"] = (ref_ns, "ns")
    metrics["trace.overhead_frac"] = (passes["traced"]["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    mismatched = sorted(k for label, p in passes.items() if label != "untraced"
                        for k in set(p["digests"]) | set(plain["digests"])
                        if p["digests"].get(k) != plain["digests"].get(k))
    return {"passes": list(passes.values()), "per_layer": metrics,
            "digest_mismatches": mismatched}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out-dir")
    ap.add_argument("--result")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    import_s = setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(setup_s)
        return 0

    import numpy
    import scipy
    workload = WORKLOADS[args.workload](args.seed, nproc())
    if args.trace:
        out = run_traced(args.workload, workload, args.out_dir, args.seed, import_s)
    else:
        out = run_timed(workload, args.out_dir, args.seconds)
    out.update(setup_s=setup_s, import_s=import_s, nproc=nproc(),
               workers=getattr(workload, "workers", 1),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__})
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
