"""Command-line interface.

Subcommands: simulate | sample | density | classify | reverse | validate | tanaka.
Shared flags: --config <json>, --seed, --out-dir, --format; each subcommand
adds only the model flags its handler reads, so any other flag is a usage
error.  Exit codes: 0 on success; 1 when `validate` finds a failing row
outside validation.KNOWN_RED; 2 on a usage or I/O error, reported on one
stderr line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bangbang, classifier, densities, planar, timereversal
from .core import InitialState, ParameterError, SeedSpec, validate_params
from .harness import (GOF_COLUMNS, ExperimentConfig, PiecewiseBV,
                      tanaka_coalescence_experiment, write_csv, write_text)
from .svgplot import emit_svg_heatmap
from .validation import KNOWN_RED, run_validation_suite

USAGE_ERROR = 2
VALIDATION_FAILURE = 1


_MODEL_FLAGS = {  # dest: (flag, type, help)
    "g": ("--g", float, "laggard drift rate (>= 0)"),
    "h": ("--h", float, "leader drift rate (>= 0)"),
    "rho": ("--rho", float, "leader volatility"),
    "sigma": ("--sigma", float, "laggard volatility"),
    "x1": ("--x1", float, "initial position of particle 1"),
    "x2": ("--x2", float, "initial position of particle 2"),
    "horizon": ("--T", float, "time horizon"),
    "steps": ("--steps", int, "Euler steps"),
    "paths": ("--paths", int, "number of paths / draws"),
}


def _add_parser(sub, name, help, model_flags=""):
    """A subparser with the shared flags plus the model flags its handler reads."""
    sp = sub.add_parser(name, help=help, allow_abbrev=False)  # else an unread --h is --help
    sp.add_argument("--config", help="JSON config file (full config or bare parameter document)")
    sp.add_argument("--seed", type=int, help="master seed")
    sp.add_argument("--out-dir", help="output directory (default: current)")
    sp.add_argument("--format", choices=["csv", "json"], dest="fmt", help="tabular output format")
    for dest in model_flags.split():
        flag, kind, text = _MODEL_FLAGS[dest]
        sp.add_argument(flag, type=kind, dest=dest, help=text)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rankdiff",
                                 description="Planar diffusion with rank-based coefficients")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _add_parser(sub, "simulate", "Euler path simulation with full export",
                     "g h rho sigma x1 x2 horizon steps paths")
    sp.add_argument("--system", default="B", choices=["B", "W", "V", "custom", "gap"],
                    help="driving system; 'gap' simulates the one-dimensional difference only")
    sp.add_argument("--eps", type=int, default=1, help="custom root: sign of the upper block")
    sp.add_argument("--delta", type=int, default=1, help="custom root: sign of the lower block")
    sp.add_argument("--phi", type=float, default=0.0, help="custom root: upper rotation angle")
    sp.add_argument("--vartheta", type=float, default=0.0, help="custom root: lower rotation angle")

    _add_parser(sub, "sample", "exact terminal draws of (X1(t), X2(t))",
                "g h rho sigma x1 x2 horizon paths")

    sp = _add_parser(sub, "density", "closed-form density evaluation on a grid",
                     "g h rho sigma x1 x2 horizon")
    sp.add_argument("--law", default="joint", choices=["joint", "gap"],
                    help="planar joint law or one-dimensional gap law")
    sp.add_argument("--xi-min", type=float, default=None)
    sp.add_argument("--xi-max", type=float, default=None)
    sp.add_argument("--xi-n", type=int, default=121)
    sp.add_argument("--svg", help="also render an SVG heatmap to this path")

    sp = _add_parser(sub, "classify", "strength classification of square roots", "g h rho sigma")
    sp.add_argument("--eps", type=int, help="sign of the upper block (+1/-1)")
    sp.add_argument("--delta", type=int, help="sign of the lower block (+1/-1)")
    sp.add_argument("--phi", type=float, help="upper rotation angle")
    sp.add_argument("--vartheta", type=float, help="lower rotation angle")
    sp.add_argument("--enumerate", action="store_true", dest="enumerate_roots",
                    help="classify all 64 diagonal/antidiagonal sign patterns")

    sp = _add_parser(sub, "reverse", "time-reversed gap diffusion", "g h rho sigma horizon steps paths")
    sp.add_argument("--mode", default="transient", choices=["transient", "steady"])
    sp.add_argument("--lam", "--lambda", dest="lam", type=float,
                    help="total drift intensity (sets g = h = lam/2)")
    sp.add_argument("--y0", type=float, default=0.0, help="forward start of the gap process")

    sp = _add_parser(sub, "validate", "run the acceptance battery")
    sp.add_argument("--workers", type=int, help="worker threads (output-invariant; default 1)")
    sp.add_argument("--scale", type=float, help="Monte Carlo size multiplier (default 1)")

    sp = _add_parser(sub, "tanaka", "coalescence experiment for the perturbed sign equation", "horizon")
    sp.add_argument("--drive", default="perturbed", choices=["perturbed", "plain"])
    sp.add_argument("--f", default="sign", choices=["sign", "constant"], dest="f_kind")
    sp.add_argument("--dts", default="4e-3,1e-3,2.5e-4", help="comma-separated step sizes")
    sp.add_argument("--reps", type=int, default=41)
    return ap


def _build_config(args) -> ExperimentConfig:
    """The run's config: the --config document, overridden by the flags given."""
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cfg)}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _out(cfg, name):
    return os.path.join(cfg.out_dir or ".", name)


def _write_json(path, payload):
    write_text(path, [json.dumps(payload, sort_keys=True, indent=1) + "\n"])


def _emit_table(cfg, name, columns, rows, meta=None):
    if cfg.fmt == "json":
        path = _out(cfg, f"{name}.json")
        rows = rows.tolist() if isinstance(rows, np.ndarray) else [list(r) for r in rows]
        _write_json(path, {"table": name, "meta": meta or {}, "columns": list(columns), "rows": rows})
    else:
        path = _out(cfg, f"{name}.csv")
        write_csv(path, name, columns, rows, meta)
    return path


def cmd_simulate(cfg, args) -> int:
    p = validate_params(cfg.g, cfg.h, cfg.rho, cfg.sigma)
    s0 = InitialState(cfg.x1, cfg.x2)
    seed = SeedSpec(cfg.seed)
    written = []
    for i in range(1 if cfg.paths is None else cfg.paths):  # a file per path
        if args.system == "gap":
            path = bangbang.euler_gap_path(p.lam, s0.y, cfg.horizon, cfg.steps, seed.stream(i))
            rows = np.column_stack([path.times, path.y_values, path.l_values,
                                    np.concatenate([[0.0], np.cumsum(path.w_increments)])])
            written.append(_emit_table(cfg, f"gap_path_{i:03d}", ["t", "Y", "L", "W"], rows,
                                       {"lam": p.lam, "y0": s0.y, "seed": cfg.seed, "stream": i}))
            continue
        kind = args.system
        if kind == "custom":
            kind = classifier.build_config(p, args.eps, args.delta, args.phi, args.vartheta)
        path = planar.euler_simulate(kind, p, s0, cfg.horizon, cfg.steps, seed.stream(i))
        r1, r2 = planar.ranks(path)
        rows = np.column_stack([path.times, path.x1_values, path.x2_values, r1, r2,
                                path.y_values, path.local_time()])
        written.append(_emit_table(cfg, f"path_{i:03d}", ["t", "X1", "X2", "R1", "R2", "Y", "L"],
                                   rows, {"system": args.system, "seed": cfg.seed, "stream": i}))
    print("\n".join(written))
    return 0


def cmd_sample(cfg, args) -> int:
    p = validate_params(cfg.g, cfg.h, cfg.rho, cfg.sigma)
    s0 = InitialState(cfg.x1, cfg.x2)
    n = 100_000 if cfg.paths is None else cfg.paths
    draws = planar.exact_sample_terminal(p, s0, cfg.horizon, n, SeedSpec(cfg.seed))
    rows = np.column_stack([draws.x1, draws.x2])
    meta = {"t": cfg.horizon, "seed": cfg.seed, "atom_fraction": draws.atom_fraction}
    del draws  # free its arrays and triples, 2.6 times rows, before the text is made
    path = _emit_table(cfg, "terminal_draws", ["x1", "x2"], rows, meta)
    print(path)
    return 0


def cmd_density(cfg, args) -> int:
    if args.xi_n < 2:  # an axis of one point has no width to draw
        raise ParameterError(f"xi-n must be >= 2, got {args.xi_n}")
    p = validate_params(cfg.g, cfg.h, cfg.rho, cfg.sigma)
    s0 = InitialState(cfg.x1, cfg.x2)
    t = cfg.horizon
    if args.law == "gap":
        hw = abs(s0.y) + p.lam * t + 6 * math.sqrt(t)
        lo = args.xi_min if args.xi_min is not None else -hw
        hi = args.xi_max if args.xi_max is not None else hw
        grid = np.linspace(lo, hi, args.xi_n)
        vals = bangbang.transition_density(p, t, s0.y, grid)
        path = _emit_table(cfg, "gap_density", ["xi", "value"], np.column_stack([grid, vals]),
                           {"t": t, "y": s0.y, "lam": p.lam})
        print(path)
        return 0
    hw = abs(s0.y) + p.lam * t + 4 * math.sqrt(t)
    center1, center2 = s0.x1 + p.mu * t, s0.x2 + p.mu * t
    lo, hi = args.xi_min, args.xi_max
    xi1 = np.linspace(lo if lo is not None else center1 - hw,
                      hi if hi is not None else center1 + hw, args.xi_n)
    xi2 = np.linspace(lo if lo is not None else center2 - hw,
                      hi if hi is not None else center2 + hw, args.xi_n)
    grid = densities.density_grid(p, s0, t, xi1, xi2)
    n1, n2 = len(xi1), len(xi2)
    rows = np.column_stack([np.repeat(xi1, n2), np.tile(xi2, n1), grid.values.ravel()])
    table = _emit_table(cfg, "joint_density", ["xi1", "xi2", "value"], rows,
                        {"t": t, "x1": s0.x1, "x2": s0.x2})
    sidecar = {
        "atom_mass": grid.atom.mass if grid.atom else 0.0,
        "atom_axis": grid.atom.axis if grid.atom else None,
        "atom_location": grid.atom.location if grid.atom else None,
        "front_jump_formula_params": {
            "lam": p.lam, "t": t,
            "note": "jump(gap) = 2|gap|/sqrt(2 pi t^3) * exp(-2 lam |gap| - (|gap|-lam t)^2/(2t)),"
                    " one-sided interior limit, stated for coinciding starts",
        },
        "continuous_values_convention": "wedge edges carry the interior one-sided limit",
    }
    side_path = _out(cfg, "joint_density.meta.json")
    _write_json(side_path, sidecar)
    out = [table, side_path]
    if args.svg:
        emit_svg_heatmap(grid, _out(cfg, args.svg), title="joint density")
        out.append(_out(cfg, args.svg))
    print("\n".join(out))
    return 0


def cmd_classify(cfg, args) -> int:
    p = validate_params(cfg.g, cfg.h, cfg.rho, cfg.sigma)
    cols = ["eps", "delta", "phi", "vartheta", "strong", "ip_sum_norm", "weak_scalar", "geom_defect"]

    def row(c, v):
        return [c.root_sign_plus, c.root_sign_minus, c.phi, c.vartheta,
                int(v.strong), v.ip_sum_norm, v.weak_scalar, v.geom_defect]

    if args.enumerate_roots:
        cfgs, verdicts, strong = classifier.enumerate_diagonal_roots(p)
        rows = [row(c, v) for c, v in zip(cfgs, verdicts)]
        path = _emit_table(cfg, "classify", cols, rows,
                           {"rho": p.rho, "sigma": p.sigma, "total": len(cfgs), "strong": strong})
        print(f"{path}\ntotal=64 strong={strong}")
        return 0
    if args.eps is None or args.delta is None or args.phi is None or args.vartheta is None:
        raise ParameterError("need --enumerate or all of --eps --delta --phi --vartheta")
    c = classifier.build_config(p, args.eps, args.delta, args.phi, args.vartheta)
    v = classifier.strength(c)
    path = _emit_table(cfg, "classify", cols, [row(c, v)], {"rho": p.rho, "sigma": p.sigma})
    print(f"{path}\nstrong={int(v.strong)} ip_sum_norm={v.ip_sum_norm:.3e}")
    return 0


def cmd_reverse(cfg, args) -> int:
    if args.lam is not None:
        cfg = dataclasses.replace(cfg, g=args.lam / 2.0, h=args.lam / 2.0)
    p = validate_params(cfg.g, cfg.h, cfg.rho, cfg.sigma)
    mode = "steady_state" if args.mode == "steady" else "transient"
    T = cfg.horizon
    taus = [T * k for k in (0.125, 0.25, 0.5, 0.75, 1.0)]
    xis = np.linspace(-3.0, 3.0, 61)
    q = [np.full_like(xis, np.nan) if mode == "steady_state"
         else timereversal.q_function(p, args.y0, tau, xis) for tau in taus]
    b = [timereversal.backward_drift(p, args.y0, tau, xis, mode=mode) for tau in taus]
    rows = np.column_stack([np.repeat(taus, len(xis)), np.tile(xis, len(taus)),
                            np.concatenate(q), np.concatenate(b)])
    table = _emit_table(cfg, "backward_drift", ["tau", "xi", "q", "b_hat"], rows,
                        {"mode": mode, "y0": args.y0, "lam": p.lam, "T": T})
    n = 100_000 if cfg.paths is None else cfg.paths
    spec = timereversal.BackwardDriftSpec(p, args.y0, T, mode=mode)
    t_check, ks = timereversal.reversal_ks(spec, cfg.steps, n, SeedSpec(cfg.seed))
    report = _emit_table(cfg, "reverse_report",
                         ["mode", "t_check", "ks", "n_paths", "steps"],
                         [[mode, t_check, ks, n, cfg.steps]],
                         {"y0": args.y0, "lam": p.lam, "seed": cfg.seed})
    print(f"{table}\n{report}\nreversed-vs-forward KS at t={t_check:g}: {ks:.5f} (n={n})")
    return 0


def cmd_validate(cfg, args) -> int:
    reports = run_validation_suite(cfg)
    path = _emit_table(cfg, "validation_reports", GOF_COLUMNS, [r.row() for r in reports],
                       {"seed": cfg.seed, "scale": cfg.scale})
    failed = [r.name for r in reports if not r.passed]
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name}: {r.kind} statistic={r.statistic:.6g} "
              f"tolerance{'>=' if r.mode == 'ge' else '<='}{r.tolerance:g}"
              + (f"  [{r.note}]" if r.note else ""))
    print(f"reports written to {path}; {len(reports) - len(failed)}/{len(reports)} passed")
    return VALIDATION_FAILURE if set(failed) - KNOWN_RED else 0


def cmd_tanaka(cfg, args) -> int:
    try:
        dts = [float(x) for x in args.dts.split(",") if x]
    except ValueError:
        raise ParameterError("--dts must be comma-separated floats") from None
    f = PiecewiseBV.sign() if args.f_kind == "sign" else PiecewiseBV("constant", (0.0,), (0.7, 0.7))
    rep = tanaka_coalescence_experiment(f, dts, args.reps, T=cfg.horizon,
                                        drive=args.drive, seed=SeedSpec(cfg.seed))
    rows = [[r.dt, r.median_sup, r.mean_sup, r.reps] for r in rep.rows]
    path = _emit_table(cfg, "tanaka_coalescence", ["dt", "median_sup", "mean_sup", "reps"], rows,
                       {"drive": rep.drive, "label": rep.label, "f": args.f_kind})
    print(f"{path}\n{rep.label}")
    for r in rep.rows:
        print(f"dt={r.dt:g}: median sup |Z1-Z2| = {r.median_sup:.6g} (mean {r.mean_sup:.6g})")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "sample": cmd_sample,
    "density": cmd_density,
    "classify": cmd_classify,
    "reverse": cmd_reverse,
    "validate": cmd_validate,
    "tanaka": cmd_tanaka,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](_build_config(args), args)
    except (ParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"rankdiff {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
