"""The rankdiff benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Each workload runs in a fresh process
(workloads.py) with inputs generated from `--seed`.  With `--trace 0` the
end-to-end metrics of BENCHMARK.json are printed; with `--trace 1` a
separate traced run prints the per-layer metrics.  `--workload all` runs the
three workloads one after another.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Scratch files go to
`.bench_run/` in the checkout.  See README.md in this directory for the
workloads, the metrics and which layer should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "workloads.py")
WORKLOADS = ("mc-batches", "cli-export", "api-small-calls")
SETUP_PROBES = 4          # extra fresh processes that only set up
RUN_LIMIT_S = 170         # a run must end within 180 s


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def environment(seed, child):
    return {"nproc": child["nproc"], "cpu_model": _cpu_model(), **_cache_sizes(),
            **child["versions"], "workers": child["workers"], "workload_seed": seed,
            "platform": platform.platform(),
            "machine_settings": "none changed: no CPU pinning, cgroup or kernel setting used"}


def _spawn(args, timeout):
    t0 = time.monotonic()
    return subprocess.run([sys.executable, CHILD, "--t0", repr(t0)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def end_to_end(child, setups):
    """The end-to-end metrics of BENCHMARK.json, and the median latency,
    which is printed but not gated (see README.md)."""
    passes = child["passes"]
    lat_ms = [x * 1e3 for p in passes for x in p["latencies_s"]]
    total_wall = sum(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "ops_per_s": (len(lat_ms) / total_wall, "1/s"),
        "op_p99_ms": (statistics.median(_percentile(p["latencies_s"], 99) * 1e3 for p in passes),
                      "ms"),
    }
    return metrics, {"op_p50_ms": (statistics.median(lat_ms), "ms")}


def run_one(workload, seed, seconds, trace):
    tag = f"{workload}-seed{seed}-{'traced' if trace else 'timed'}"
    run_dir = os.path.join(ROOT, ".bench_run", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    start = time.monotonic()
    setups = [] if trace else [float(_spawn(["--setup-only"], 60).stdout.split()[-1])
                               for _ in range(SETUP_PROBES)]
    result_file = os.path.join(run_dir, "child.json")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--out-dir", run_dir, "--result", result_file] + (["--trace"] if trace else [])
    _spawn(args, RUN_LIMIT_S - (time.monotonic() - start))
    with open(result_file, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(result_file)

    passes = child["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mismatches = child.get("digest_mismatches", [])
    if trace:
        metrics, extra = child["per_layer"], {}
    else:
        metrics, extra = end_to_end(child, setups + [child["setup_s"]])
    env = environment(seed, child)
    print(f"== {workload}  seed={seed}  {'traced' if trace else 'timed'}  "
          f"passes={len(passes)}  operations={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value!r} {unit}  (over {attempted} operations; not gated)")
    print(f"failed_ops_frac = {failed / attempted!r} ratio  ({failed} of {attempted}; not gated)")
    digests = passes[0]["digests"]
    print(f"output digests: {len(digests)} file(s); first pass:")
    for name, digest in sorted(digests.items()):
        print(f"  {digest}  {name}")
    if trace:
        print("traced digests equal untraced: " + ("yes" if not mismatches else
                                                   "NO: " + ", ".join(mismatches)))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "printed": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "attempted": attempted, "failed": failed, "digests": digests,
              "digest_mismatches": mismatches,
              "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "attempted", "failed")}
                         for p in passes]}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": failed == 0 and not mismatches, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="rankdiff benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20240601, help="workload seed")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured time per run; passes repeat while the next one fits in it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rankdiff", "__init__.py")):
        print(f"rankdiff sources not found under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("--seed must fit in 64 bits", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except subprocess.CalledProcessError as exc:
        print(f"benchmark process failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"benchmark process exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
