"""Validation harness: goodness-of-fit reports, deterministic parallel Monte
Carlo, CSV emission, and the coalescence experiment for the perturbed
sign-driven equation.

Everything here is deterministic given (master_seed): work is split into
fixed-size batches whose boundaries depend on the total alone, each with a
pre-assigned sub-stream, and results are reassembled in batch order, so
outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import codecs
import dataclasses
import functools
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, get_type_hints

import numpy as np
from scipy.special import chdtrc

from .core import BLOCK_CELLS, ParameterError, SeedSpec, check_counts, scalar_or_array


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


@dataclass(frozen=True)
class ExperimentConfig:
    """CLI-facing configuration; round-trips through JSON without loss.  Each
    value is range-checked once, on construction; ParameterError names the key."""

    command: str = "validate"
    g: float = 1.0
    h: float = 1.0
    rho: float = 1.0
    sigma: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    horizon: float = 1.0
    steps: int = 1000
    paths: Optional[int] = None  # None: the command's own default
    seed: int = 20_240_601
    out_dir: Optional[str] = None
    fmt: str = "csv"
    workers: int = 1
    scale: float = 1.0       # multiplies Monte Carlo sizes; 1.0 = full battery sizes

    def __post_init__(self):
        for key, val in (("horizon", self.horizon), ("scale", self.scale)):
            if not 0 < val < math.inf:
                raise ParameterError(f"{key} must be finite and > 0, got {val!r}")
        for key, val in (("steps", self.steps), ("workers", self.workers)):
            if val < 1:
                raise ParameterError(f"{key} must be >= 1, got {val!r}")
        # simulate writes a file per path; reverse's KS comparison needs a sample
        least = {"simulate": 1, "reverse": 1000}.get(self.command, 0)
        if self.paths is not None and self.paths < least:
            raise ParameterError(f"paths must be >= {least} for {self.command}, got {self.paths!r}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """The config of a JSON document, a full one (to_json) or any subset such
        as {g, h, rho, sigma, x1, x2, seed}, with the defaults for the rest.  Each
        value has a type its field's annotation allows (an integer serves as a
        float, a bool as neither) and fmt is csv or json; else ParameterError
        names the key."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParameterError("a config document must be a JSON object")
        kinds = get_type_hints(cls)
        unknown = set(data) - set(kinds)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            allowed, what = _JSON_KINDS[kinds[key]]
            if isinstance(val, bool) or not isinstance(val, allowed):
                raise ParameterError(f"config key {key!r} must be {what}, got {val!r}")
        if data.get("fmt", "csv") not in ("csv", "json"):
            raise ParameterError(f"config key 'fmt' must be 'csv' or 'json', got {data['fmt']!r}")
        return cls(**data)


# the JSON values each field annotation of ExperimentConfig accepts
_JSON_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
               Optional[int]: ((int, type(None)), "an integer or null"),
               Optional[str]: ((str, type(None)), "a string or null")}


# ---------------------------------------------------------------------------
# deterministic parallel map
# ---------------------------------------------------------------------------

def pmap_batches(total: int, fn: Callable[[int, SeedSpec], np.ndarray], seed: SeedSpec,
                 workers: int = 1) -> List[np.ndarray]:
    """Run fn(batch_n, sub_seed) over batches of 20,000 of `total` draws.

    Batch boundaries and sub-stream ids depend on `total` alone, never on
    `workers`, and results come back in batch order: the concatenated output
    is byte-identical for any worker count.  An exception raised in a batch
    reaches the caller.
    """
    sizes = [min(20_000, total - k) for k in range(0, total, 20_000)]
    seeds = [seed.stream(i) for i in range(len(sizes))]
    if workers <= 1:
        return [fn(n, s) for n, s in zip(sizes, seeds)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, sizes, seeds))


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


def grid_blocks(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray):
    """(rows, f(a[rows, None], b[None, :])) for row slices of about
    BLOCK_CELLS cells, so f's temporaries stay the size of a block."""
    step = max(1, BLOCK_CELLS // max(len(b), 1))
    for i in range(0, len(a), step):
        rows = slice(i, i + step)
        yield rows, f(a[rows, None], b[None, :])


def grid_values(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """f(a[:, None], b[None, :]) for an elementwise f, its grid_blocks
    written into one float64 array.

    Exact: each cell depends only on its own (a_i, b_j), so the blocks give
    the whole-grid values.
    """
    out = np.empty((len(a), len(b)))
    for rows, block in grid_blocks(f, a, b):
        out[rows] = block
    return out


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
    vals = grid_values(density2d, p1, p2)
    vals *= w1[:, None]
    vals *= w2[None, :]
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


# The "%.17g" kernel.  A finite nonzero double x prints as the 17 digits of
# N = round(|x| 10**(16 - E)), 10**16 <= N < 10**17, with decimal exponent E:
# in fixed notation for -4 <= E < 17, else as d.ddd e±XX; trailing zeros and
# a bare point are dropped.  A cell's bytes are assembled in a scratch row of
# _G17_WIDTH bytes: 0-7 the right-aligned prefix ("-", "0.00", ...), 8-31 the
# digits of N, into which the point and, in fixed notation, the separator
# are then inserted, 32-39 the right-aligned exponent and separator.  One
# boolean mask per block keeps each cell's bytes.  The layout depends only on a key (ends a row, sign,
# class, index of the last significant digit), where the class is E + 4 for
# fixed notation, 21-24 for two- or three-digit negative or positive
# exponents, and 25 for a zero.
_G17_WIDTH = 40
_G17_E0 = 330  # offset of the decimal exponent in the tables indexed by it
_G17_CLASSES = 26
_G17_KEYS = 2 * 2 * _G17_CLASSES * 17


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """(bound, pow10, quad, expo, classes, prefix, blend, keep), built on first use.

    pow10[309 - E] is 10**(16 - E) correctly rounded to long double, for
    every E a double can have, +-1.  quad[g] is the four digits of g.
    expo[2 (E + _G17_E0) + ends_row] is the exponent word.  By key: prefix
    is the prefix word, blend[w] the masks of the w-th digit word (digits
    in place, digits shifted one byte right, the point and separator), keep
    the cell's mask.
    """
    pow10 = np.array([np.longdouble(f"1e{k}") for k in range(-293, 342)])  # strtold rounds exactly
    quad = np.frombuffer("".join(f"{g:04d}" for g in range(10_000)).encode(), np.uint32)
    exps = range(-_G17_E0, _G17_E0)
    expo = np.frombuffer("".join(f"e{e:+03d}{s}".rjust(8) for e in exps for s in ",\n").encode(),
                         np.uint64)
    classes = np.array([e + 4 if -4 <= e <= 16 else 21 + 2 * (e > 0) + (abs(e) >= 100)
                        for e in exps], np.intp)
    prefix, keep = bytearray(8 * _G17_KEYS), bytearray(_G17_WIDTH * _G17_KEYS)
    blend = [bytearray(24 * _G17_KEYS) for _ in range(3)]
    for key, (ends_row, neg, c, last) in enumerate(
            itertools.product((0, 1), (0, 1), range(_G17_CLASSES), range(17))):
        e = c - 4 if c <= 20 else 0   # the exponent forms put the point after D0
        if c == 25:
            pre, n_dig, point = "0", 0, 17
        elif e < 0:
            pre, n_dig, point = "0." + "0" * (-e - 1), last + 1, 17
        else:
            pre, point = "", e + 1
            n_dig = last + 2 if last > e else e + 1
        pre = "-" * neg + pre
        prefix[8 * key + 8 - len(pre):8 * key + 8] = pre.encode()
        k, b = _G17_WIDTH * key, 24 * key
        keep[k + 8 - len(pre):k + 8 + n_dig] = b"\1" * (len(pre) + n_dig)
        blend[0][b:b + point] = b"\xff" * point
        blend[1][b + point + 1:b + 24] = b"\xff" * (23 - point)
        blend[2][b + point] = ord(".")
        if 21 <= c <= 24:
            n_exp = 5 + (c % 2 == 0)
            keep[k + _G17_WIDTH - n_exp:k + _G17_WIDTH] = b"\1" * n_exp
        else:
            blend[0][b + n_dig] = blend[1][b + n_dig] = 0
            blend[2][b + n_dig] = ord(",\n"[ends_row])
            keep[k + 8 + n_dig] = 1
    words = [np.frombuffer(m, np.uint64).reshape(_G17_KEYS, 3) for m in blend]
    blend = tuple(tuple(np.ascontiguousarray(m[:, w]) for m in words) for w in range(3))
    return (float(2 * np.finfo(np.longdouble).epsneg * 1e17), pow10, quad, expo, classes,
            np.frombuffer(prefix, np.uint64), blend,
            np.frombuffer(keep, np.uint64).reshape(_G17_KEYS, _G17_WIDTH // 8))


def _g17_decimal(ax: np.ndarray):
    """(e, big, ok) for |x| = ax: decimal exponent E, N as uint64, and
    whether N is certain to be the digits "%.17g" prints.

    Exactness: x is exact in long double (a 64-bit mantissa on x86-64) and
    10**(16 - E) is correctly rounded, so y = |x| 10**(16 - E) carries two
    roundings, each of relative size at most epsneg; for y < 10**17 they
    move it by less than bound = 2 epsneg 1e17 ~ 0.011.  N = round(y) is
    then the correctly rounded digits of x whenever y is farther than bound
    from a tie (N + 1/2) and from the decade ends 10**16 and 10**17.  Zeros
    are certified; NaN and +-inf are not.  Where long double is a double,
    bound exceeds 1/2 and no nonzero cell is certified.
    """
    bound, pow10 = _g17_tables()[:2]
    finite = (ax != 0) & (ax < np.inf)
    safe = np.where(finite, ax, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)  # may be one off next to a power of ten
    ld = safe.astype(np.longdouble)
    with np.errstate(invalid="ignore"):  # an inf from an overflowed pow10, never certified
        y = ld * pow10[309 - e]
        big = (y + 0.5).astype(np.uint64)
        off = (big >= 10**17).astype(np.intp) - (big < 10**16)
        fix = np.flatnonzero(off)
        if fix.size:
            e[fix] += off[fix]
            y[fix] = ld[fix] * pow10[309 - e[fix]]
            big[fix] = (y[fix] + 0.5).astype(np.uint64)
        d = (y - big.astype(np.longdouble)).astype(np.float64)  # exact
    ok = (np.abs(d) < 0.5 - bound) & (big < 10**17) & (big >= 10**16)
    ok &= (big > 10**16) | (d > bound)
    ok &= finite
    ok |= ax == 0
    return e, big, ok


def _g17_block(cells: np.ndarray, ends_row: np.ndarray, work: np.ndarray):
    """The "%.17g" of each cell, each followed by "," or, where ends_row,
    "\\n", as a uint8 view into `work`.

    `work` is (3, at least n _G17_WIDTH) uint8 scratch for the cell rows,
    their mask and the kept bytes, allocated once per table: allocating
    these per block fragments the heap between the blocks' text and raised
    the peak memory of a CLI run by about 5%.  The cells _g17_decimal does not
    certify -- NaN, +-inf, the near-ties and the decade edges, about 2% of
    a path table -- are formatted by one batched "%.17g" % call and spliced
    in.
    """
    _, _, quad, expo, classes, prefix, blend, keep_t = _g17_tables()
    n = cells.size
    out = work[0, :n * _G17_WIDTH].reshape(n, _G17_WIDTH)
    ax = np.abs(cells)
    e, big, ok = _g17_decimal(ax)
    # digits D0..D16 of N at bytes 8..24, from uint32 quads
    hi = big // np.uint64(100_000_000)
    lo = (big - hi * np.uint64(100_000_000)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 100_000_000
    mid = hi - lead * 100_000_000
    out[:, 8] = lead + 48
    quads = out[:, 9:25].view(np.uint32)
    for j, part in ((0, mid), (2, lo)):
        q = part // 10_000
        quads[:, j] = quad[q]
        quads[:, j + 1] = quad[part - q * 10_000]
    # index of the last significant digit: strip trailing zeros of N
    last = np.full(n, 16, np.intp)
    r = np.flatnonzero(lo % 10 == 0)
    v = big[r]
    while r.size:
        last[r] -= 1
        v //= 10
        more = (v % 10 == 0) & (v != 0)
        r, v = r[more], v[more]
    c = np.take(classes, e + _G17_E0)
    c[ax == 0] = 25
    key = ((ends_row * 2 + np.signbit(cells)) * _G17_CLASSES + c) * 17 + last
    # insert the point (and separator) into the digit words, last word first
    words = out.view(np.uint64)
    shifted, tmp = np.empty(n, np.uint64), np.empty(n, np.uint64)
    for w in (2, 1, 0):
        in_place, moved, added = blend[w]
        word = words[:, w + 1]
        np.left_shift(word, 8, out=shifted)  # the digits one byte later, for after the point
        shifted |= np.right_shift(words[:, w], 56, out=tmp)
        shifted &= np.take(moved, key, out=tmp)
        word &= np.take(in_place, key, out=tmp)
        word |= shifted
        word |= np.take(added, key, out=tmp)
    np.take(prefix, key, out=words[:, 0])
    ex = np.flatnonzero((c >= 21) & (c <= 24))
    words[ex, 4] = expo[(e[ex] + _G17_E0) * 2 + ends_row[ex]]
    keep = np.take(keep_t, key, axis=0, out=work[1, :out.size].view(np.uint64).reshape(n, -1))
    keep = keep.view(bool)
    fb = np.flatnonzero(~ok)
    if fb.size:
        text = (("%.17g\0" * fb.size) % tuple(cells[fb].tolist())).split("\0")[:-1]
        out[fb, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        length = np.fromiter(map(len, text), np.intp, fb.size)
        out[fb, length] = np.where(ends_row[fb], 10, 44)
        keep[fb] = np.arange(_G17_WIDTH) <= length[:, None]
    return np.compress(keep.ravel(), out.ravel(), out=work[2, :np.count_nonzero(keep)])


def _float_body(rows: np.ndarray):
    """The body of a 2-D float64 table with at least one column, yielded as
    one string per block of CSV_BLOCK_ROWS rows, each ending in "\\n".

    Each cell is exactly "%.17g" % value, what format_cell gives a float:
    _g17_block certifies most cells and formats the rest with "%".
    """
    n_rows, n_cols = rows.shape
    cap = min(n_rows, CSV_BLOCK_ROWS) * n_cols
    work = np.empty((3, cap * _G17_WIDTH), np.uint8)
    ends_row = np.tile(np.arange(n_cols) == n_cols - 1, cap // n_cols).astype(np.intp)
    for start in range(0, n_rows, CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS].ravel()
        yield codecs.ascii_decode(_g17_block(block, ends_row[:block.size], work))[0]


def write_text(path: str, parts: Iterable[str]) -> str:
    """Write each part to `path` as it is made and return the file's text,
    the one join of the parts: the writer of every file the package writes,
    UTF-8 with LF line ends, its directory made first.  Each part is whole
    lines ending in "\\n", so the text is never copied to end or encode it."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    kept = []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for part in parts:
            fh.write(part)
            kept.append(part)
    return "".join(kept)


def write_csv(path: str, name: str, columns: Sequence[str], rows, meta: Optional[dict] = None) -> str:
    """Write a versioned CSV a row or block at a time and return its text;
    deterministic formatting, byte-stable.  `rows` is an iterable of rows, or
    a 2-D float64 array, whose body is formatted in blocks of CSV_BLOCK_ROWS
    rows by a vectorised kernel with the same bytes as "%.17g" per cell.  The
    kernel keeps a cell's 17 digits only where the two roundings of its
    long-double scaling, together at most 2 epsneg 1e17 ~ 0.011, cannot change
    them (_g17_decimal); NaN, +-inf, near-ties and decade edges fall back to
    "%" (_g17_block)."""
    meta_str = "".join(f" {k}={format_cell(v)}" for k, v in (meta or {}).items())
    head = f"# {CSV_FORMAT_VERSION} table={name}{meta_str}\n{','.join(columns)}\n"
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64 and rows.shape[1]:
        body = _float_body(rows)
    else:
        body = (",".join(format_cell(v) for v in row) + "\n" for row in rows)
    return write_text(path, itertools.chain([head], body))


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
    check_counts(reps=reps)
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
