"""Validation harness: goodness-of-fit reports, deterministic parallel Monte
Carlo, CSV emission, and the coalescence experiment for the perturbed
sign-driven equation.

Everything here is deterministic given (master_seed): work is split into
fixed-size batches with pre-assigned sub-streams, and results are reassembled
in batch order, so outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.special import chdtrc

from .core import ParameterError, SeedSpec, scalar_or_array


# ---------------------------------------------------------------------------
# reports and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GofReport:
    """One goodness-of-fit verdict.

    mode "le": pass iff statistic <= tolerance (distances, sup errors);
    mode "ge": pass iff statistic >= tolerance (p-values).
    """

    kind: str           # "KS" | "chi2" | "mean-CI" | "sup" | "count" | ...
    name: str
    statistic: float
    tolerance: float
    n: int
    mode: str = "le"
    p_value: Optional[float] = None
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.mode == "le":
            return self.statistic <= self.tolerance
        if self.mode == "ge":
            return self.statistic >= self.tolerance
        raise ValueError(f"unknown mode {self.mode!r}")

    def row(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "n": self.n,
            "p_value": float("nan") if self.p_value is None else self.p_value,
            "passed": int(self.passed),
            "note": self.note,
        }


@dataclass
class ExperimentConfig:
    """CLI-facing configuration; round-trips through JSON without loss."""

    command: str = "validate"
    g: float = 1.0
    h: float = 1.0
    rho: float = 1.0
    sigma: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    horizon: float = 1.0
    steps: int = 1000
    paths: int = 100_000
    seed: int = 20_240_601
    out_dir: Optional[str] = None
    fmt: str = "csv"
    workers: int = 1
    scale: float = 1.0       # multiplies Monte Carlo sizes; 1.0 = full battery sizes

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_param_document(cls, data: dict, **overrides) -> "ExperimentConfig":
        """Accept the bare parameter document {g,h,rho,sigma,x1,x2,seed}."""
        allowed = {"g", "h", "rho", "sigma", "x1", "x2", "seed"}
        unknown = set(data) - allowed
        if unknown:
            raise ParameterError(f"unknown parameter-document keys: {sorted(unknown)}")
        merged = dict(data)
        merged.update(overrides)
        return cls(**merged)


# ---------------------------------------------------------------------------
# deterministic parallel map
# ---------------------------------------------------------------------------

DEFAULT_BATCH = 20_000


def pmap_batches(total: int, fn: Callable[[int, SeedSpec], np.ndarray], seed: SeedSpec,
                 workers: int = 1, batch_size: int = DEFAULT_BATCH) -> List[np.ndarray]:
    """Run fn(batch_n, sub_seed) over fixed-size batches of `total` draws.

    Batch boundaries and sub-stream ids depend only on (total, batch_size),
    never on `workers`, and results come back in batch order: the
    concatenated output is byte-identical for any worker count.
    """
    sizes = [min(batch_size, total - k) for k in range(0, total, batch_size)]
    tasks = [(i, n, seed.stream(i)) for i, n in enumerate(sizes)]
    if workers <= 1:
        return [fn(n, s) for _, n, s in tasks]
    out: List[Optional[np.ndarray]] = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, n, s): i for i, n, s in tasks}
        for fut, i in futures.items():
            out[i] = fut.result()
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

def ks_statistic(samples: np.ndarray, cdf_at_samples: np.ndarray,
                 cdf_left_at_samples: Optional[np.ndarray] = None) -> float:
    """KS distance between an empirical sample and a reference CDF.

    For a law with point masses, pass the left-limit CDF as well: the
    lower-side comparison at an atom must use F(x-), otherwise the distance
    is overstated by the atom mass.
    """
    order = np.argsort(samples, kind="stable")
    f = cdf_at_samples[order]
    f_left = f if cdf_left_at_samples is None else cdf_left_at_samples[order]
    n = len(samples)
    hi = np.arange(1, n + 1) / n - f
    lo = f_left - np.arange(0, n) / n
    return float(max(hi.max(), lo.max()))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance (statistic only)."""
    a = np.sort(a)
    b = np.sort(b)
    allv = np.concatenate([a, b])
    fa = np.searchsorted(a, allv, side="right") / len(a)
    fb = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def tabulate_pdf(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int = 4001):
    """(grid, cdf) table of a 1D pdf by trapezoidal accumulation."""
    grid = np.linspace(lo, hi, n)
    pdf = fn(grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    return grid, cdf


def gl_points(lo: float, hi: float, n_panels: int, order: int = 24,
               cuts: Sequence[float] = ()):
    """Gauss-Legendre nodes/weights over [lo, hi], panels split at cuts."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, n_panels + 1)
        half = np.diff(sub) / 2.0
        mid = (sub[1:] + sub[:-1]) / 2.0
        pts.append((mid[:, None] + half[:, None] * nodes[None, :]).ravel())
        wts.append((half[:, None] * weights[None, :]).ravel())
    return np.concatenate(pts), np.concatenate(wts)


def expected_cell_masses(density2d: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         edges1: np.ndarray, edges2: np.ndarray,
                         subdiv: int = 4, order: int = 8) -> np.ndarray:
    """Integral of a 2D density over every cell of a rectangular partition.

    Per-cell tensor Gauss-Legendre on subdiv^2 panels; cells must be aligned
    with any density discontinuity lines (pass them as edges).
    """
    def axis(edges):
        pts, wts = gl_points(edges[0], edges[-1], subdiv, order, cuts=edges[1:-1])
        return pts, wts, np.repeat(np.arange(len(edges) - 1), subdiv * order)

    p1, w1, o1 = axis(edges1)
    p2, w2, o2 = axis(edges2)
    vals = density2d(p1[:, None], p2[None, :]) * w1[:, None] * w2[None, :]
    out = np.zeros((len(edges1) - 1, len(edges2) - 1))
    np.add.at(out, (o1[:, None], o2[None, :]), vals)
    return out


def chi2_against_density(x1: np.ndarray, x2: np.ndarray,
                         density2d: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         n_bins: int = 20,
                         special_edges1: Sequence[float] = (),
                         special_edges2: Sequence[float] = ()):
    """Chi-square of a 2D sample against a density, adaptive-mass bins.

    Bin edges are sample quantiles (equal expected mass up to dependence),
    with discontinuity lines inserted so no cell straddles a density jump.
    Returns (statistic, p_value, dof).
    """
    qs = np.linspace(0.0, 1.0, n_bins + 1)

    def make_edges(x, special):
        e = np.quantile(x, qs)
        e[0] = x.min() - 1e-9
        e[-1] = x.max() + 1e-9
        e = np.unique(np.concatenate([e, [s for s in special if e[0] < s < e[-1]]]))
        return e

    e1 = make_edges(x1, special_edges1)
    e2 = make_edges(x2, special_edges2)
    counts, _, _ = np.histogram2d(x1, x2, bins=[e1, e2])
    masses = expected_cell_masses(density2d, e1, e2)
    covered = masses.sum()
    expected = masses / covered * counts.sum()
    keep = expected.ravel() > 1.0
    obs = counts.ravel()[keep]
    exp = expected.ravel()[keep]
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = int(keep.sum() - 1)
    return stat, chi2_sf(stat, dof), dof


def chi2_sf(stat: float, dof: int) -> float:
    """Chi-square upper tail P(chi2_dof > stat); NaN for dof < 1, where
    chdtrc would give 0 or 1 for a law that does not exist."""
    return float(chdtrc(dof, stat)) if dof >= 1 else math.nan


def binomial_z(count: int, n: int, prob: float) -> float:
    """Normal z-score of an observed count against a binomial model."""
    if prob <= 0.0:
        return 0.0 if count == 0 else math.inf
    se = math.sqrt(prob * (1.0 - prob) / n)
    return (count / n - prob) / se


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_FORMAT_VERSION = "rankdiff-csv/1"
CSV_BLOCK_ROWS = 4096  # rows per formatting call of a float table; bounds the temporaries


def format_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _float_body(rows: np.ndarray) -> List[str]:
    """Body of a 2-D float64 table: one "\\n"-joined string per block of
    CSV_BLOCK_ROWS rows, formatted by a single % call.

    Each cell is "%.17g" % value, exactly what format_cell gives a float.
    """
    row_tmpl = ",".join(["%.17g"] * rows.shape[1])
    blocks = []
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        blocks.append("\n".join([row_tmpl] * len(block)) % tuple(block.ravel().tolist()))
    return blocks


def write_csv(path: str, name: str, columns: Sequence[str], rows, meta: Optional[dict] = None) -> str:
    """Write a versioned CSV; deterministic formatting, byte-stable.

    `rows` is an iterable of rows, or a 2-D float64 array, whose body is
    formatted in blocks of CSV_BLOCK_ROWS rows with the same bytes.
    """
    lines = []
    meta_str = "".join(f" {k}={format_cell(v)}" for k, v in (meta or {}).items())
    lines.append(f"# {CSV_FORMAT_VERSION} table={name}{meta_str}")
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
        lines.extend(_float_body(rows))
    else:
        lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def reports_to_rows(reports: Sequence[GofReport]):
    cols = ["kind", "name", "statistic", "tolerance", "mode", "n", "p_value", "passed", "note"]
    rows = [[r.row()[c] for c in cols] for r in reports]
    return cols, rows


# ---------------------------------------------------------------------------
# perturbed sign-driven equation: coalescence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseBV:
    """A bounded-variation function given piecewise.

    kind "constant": values[i] on the half-open segment (knots[i-1], knots[i]],
    with values[0] left of the first knot and values[-1] right of the last.
    kind "linear": continuous interpolation through (knots, values), constant
    extension outside -- automatically of bounded variation.
    """

    kind: str
    knots: tuple
    values: tuple

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ParameterError("piecewise descriptor must be finite")
        if np.any(np.diff(knots) <= 0):
            raise ParameterError("knots must be strictly increasing")
        if self.kind == "constant":
            if len(values) != len(knots) + 1:
                raise ParameterError("constant pieces need len(values) == len(knots) + 1")
        elif self.kind == "linear":
            if len(values) != len(knots) or len(knots) < 2:
                raise ParameterError("linear pieces need len(values) == len(knots) >= 2")
        else:
            raise ParameterError("kind must be 'constant' or 'linear'; anything with "
                                 "unbounded variation is not representable")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.kind == "constant":
            idx = np.searchsorted(knots, x, side="left")
            out = values[idx]
        else:
            out = np.interp(x, knots, values)
        return scalar_or_array(out, x)

    @classmethod
    def sign(cls) -> "PiecewiseBV":
        """The signum with sign(0) = -1."""
        return cls("constant", (0.0,), (-1.0, 1.0))


@dataclass(frozen=True)
class CoalescenceRow:
    dt: float
    median_sup: float
    mean_sup: float
    reps: int


@dataclass(frozen=True)
class CoalescenceReport:
    """Illustrative dt-consistency study; not a proof of pathwise uniqueness."""

    label: str
    drive: str
    rows: tuple


def tanaka_coalescence_experiment(f: PiecewiseBV, dts: Sequence[float], reps: int,
                                  T: float = 1.0, drive: str = "perturbed",
                                  q_ratio: float = 0.25, seed=20_240_601,
                                  z0: float = 0.0) -> CoalescenceReport:
    """Twin Euler solutions of dZ = f(Z) dM + dN with shared (M, N).

    drive "perturbed": N a Brownian motion and M an independent one scaled so
    that <M> = q_ratio <N> (orthogonality and domination hold); drive "plain":
    N = 0 and M a Brownian motion, the classical non-unique case.

    The two solutions start at the same point; tie-breaking state jitter of
    size dt enters only through the argument of f, with the first jitter
    forced to opposite signs so every repetition actually exercises the tie.
    Brownian drivers are coupled across dt values (coarse increments aggregate
    the finest grid) so the decay of sup|Z1 - Z2| is comparable across rows.
    """
    if drive not in ("perturbed", "plain"):
        raise ParameterError("drive must be 'perturbed' or 'plain'")
    if reps < 1:
        raise ParameterError("reps must be >= 1")
    dts = sorted(float(d) for d in dts)
    if not dts or not all(math.isfinite(d) and d > 0 for d in dts):
        raise ParameterError("every dt must be finite and > 0")
    dt_min = dts[0]
    n_fine = int(round(T / dt_min))
    for d in dts:
        ratio = d / dt_min
        if (abs(ratio - round(ratio)) > 1e-9 or abs(n_fine * dt_min - T) > 1e-12
                or n_fine % round(ratio)):
            raise ParameterError("each dt must be an integer multiple of the smallest, dividing T")
    spec = SeedSpec(int(seed)) if not isinstance(seed, SeedSpec) else seed
    scale_m = math.sqrt(q_ratio)
    fine_m, fine_n = np.empty((reps, n_fine)), np.empty((reps, n_fine))
    for rep in range(reps):
        rng = spec.stream(rep).generator()
        if drive == "perturbed":
            fine_n[rep] = rng.standard_normal(n_fine) * math.sqrt(dt_min)
            fine_m[rep] = scale_m * rng.standard_normal(n_fine) * math.sqrt(dt_min)
        else:
            fine_n[rep] = 0.0
            fine_m[rep] = rng.standard_normal(n_fine) * math.sqrt(dt_min)
    rows = []
    for d in dts:
        step = int(round(d / dt_min))
        n = n_fine // step
        # (step, repetition) increments and (step, twin, repetition) jitter
        dM = fine_m.reshape(reps, n, step).sum(axis=2).T
        dN = fine_n.reshape(reps, n, step).sum(axis=2).T
        jitter = np.empty((n, 2, reps))
        for rep in range(reps):
            jit = spec.stream(10_000 + rep).generator()
            jitter[:, 0, rep] = jit.uniform(-d, d, n)
            jitter[:, 1, rep] = jit.uniform(-d, d, n)
        jitter[0, 0] = np.abs(jitter[0, 0])
        jitter[0, 1] = -np.abs(jitter[0, 1])
        z = np.full((2, reps), z0, dtype=float)
        sup = np.zeros(reps)
        for k in range(n):
            z = z + f(z + jitter[k]) * dM[k] + dN[k]
            sup = np.fmax(sup, np.abs(z[0] - z[1]))  # a NaN difference keeps the sup
        rows.append(CoalescenceRow(d, float(np.median(sup)), float(np.mean(sup)), reps))
    label = "illustrative dt-consistency study (not a proof of pathwise uniqueness)"
    return CoalescenceReport(label, drive, tuple(rows))
