"""Alternated A/B pairs of the benchmark between two source checkouts.

    python3 scripts/bench_ab.py PARENT_DIR CHANGE_DIR --workload NAME \
        [--pairs 10] [--seed 20240601] [--seconds 30] --out runs.json

Each side runs `python3 benchmarks/run.py --workload NAME --seed S
--seconds T --trace 0` from its own checkout; in pair k the parent runs
first when k is even and second when k is odd.  --out holds every run of
both sides and is rewritten after each run, so an interrupted series is
resumed by running the same command again.  The summary printed and stored
under "summary" gives, per end-to-end metric, both medians and quartiles,
the parent's IQR, the wins (pairs in which the change reads better),
gain_rule_met: at least nine wins in ten and a median gap wider than the
parent's IQR, in the better direction, the median of change - parent over
the pairs the parent ran first (gap_parent_first) and over those the change
ran first (gap_change_first), which shows a run-order effect, and the
no-regression verdict:
within_bound, the change's median worse than the parent's by at most the
metric's `bound` from BENCHMARK.json (a fraction of the parent's median;
failed_ops_frac has none and may not grow at all), and unresolved, the
parent's IQR wider than that bound, so that the pairs cannot tell a
regression from the machine's spread, unless every change run beats every
parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    last = json.loads(subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                                     check=True).stdout.strip().splitlines()[-1])
    rec = {k: v["value"] for k, v in last["metrics"].items()}
    rec["failed_ops_frac"] = last["failed"] / last["attempted"]
    return rec


def summarise(runs, spec):
    """Per metric of spec, {name: (better, bound)}, the medians, quartiles,
    wins and the gain and no-regression verdicts of the first complete pairs."""
    n = min(len(runs["parent"]), len(runs["change"]))
    out = {"pairs": n, "metrics": {}}
    for m, (better, bound) in spec.items():
        pv = [r[m] for r in runs["parent"][:n]]
        cv = [r[m] for r in runs["change"][:n]]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(pv, cv))
        losses = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
        pq = statistics.quantiles(pv, n=4, method="inclusive")
        cq = statistics.quantiles(cv, n=4, method="inclusive")
        p_med, c_med = statistics.median(pv), statistics.median(cv)
        slack = 0.0 if bound is None else bound * abs(p_med)
        beats_all = max(sign * c for c in cv) < min(sign * p for p in pv)  # the worst change run wins
        gaps = [c - p for p, c in zip(pv, cv)]  # in pair k the parent ran first when k is even
        out["metrics"][m] = {
            "better": better, "bound": bound, "parent_median": p_med, "parent_q1": pq[0], "parent_q3": pq[2],
            "parent_iqr": pq[2] - pq[0], "change_median": c_med, "change_q1": cq[0],
            "change_q3": cq[2], "change_vs_parent": c_med / p_med - 1 if p_med else 0.0,
            "wins": wins, "losses": losses, "ties": n - wins - losses,
            "gap_parent_first": statistics.median(gaps[0::2]),
            "gap_change_first": statistics.median(gaps[1::2]),
            "gain_rule_met": wins >= 0.9 * n and sign * (c_med - p_med) < -(pq[2] - pq[0]),
            "within_bound": sign * (c_med - p_med) <= slack,
            "unresolved": bound is not None and pq[2] - pq[0] > slack and not beats_all}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="alternated A/B benchmark pairs")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    spec["failed_ops_frac"] = ("lower", None)
    runs = {"parent": [], "change": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    sides = {"parent": args.parent, "change": args.change}
    while len(runs["parent"]) < args.pairs or len(runs["change"]) < args.pairs:
        k = min(len(runs["parent"]), len(runs["change"]))
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            if len(runs[side]) > k:
                continue
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
            record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "runs": runs,
                      "summary": summarise(runs, spec) if min(map(len, runs.values())) > 1 else None}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print(args.workload, side, json.dumps(runs[side][-1]), flush=True)
    for m, v in summarise(runs, spec)["metrics"].items():
        print(f"{m:16s} parent {v['parent_median']:.4g} (IQR {v['parent_iqr']:.3g})  "
              f"change {v['change_median']:.4g}  {100 * v['change_vs_parent']:+.1f}%  "
              f"wins {v['wins']}/{args.pairs}  rule met: {v['gain_rule_met']}  "
              f"gap parent/change first {v['gap_parent_first']:+.3g}/{v['gap_change_first']:+.3g}  "
              f"within_bound: {v['within_bound']}" + ("  unresolved" if v["unresolved"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
