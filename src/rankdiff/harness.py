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

from .core import BLOCK_CELLS, ParameterError, SeedSpec, check_counts, check_time_start, scalar_or_array
from .tails import special


# ---------------------------------------------------------------------------
# reports and configuration
# ---------------------------------------------------------------------------

GOF_COLUMNS = ("kind", "name", "statistic", "tolerance", "mode", "n", "p_value", "passed", "note")


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

    def row(self) -> list:
        """The report's cells in the order of GOF_COLUMNS."""
        return [self.kind, self.name, self.statistic, self.tolerance, self.mode, self.n,
                float("nan") if self.p_value is None else self.p_value, int(self.passed), self.note]


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
    return float(special().chdtrc(dof, stat)) if dof >= 1 else math.nan


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
CSV_BLOCK_CELLS = 2**15  # and cells, so that a wide table keeps them as small


def format_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


# The "%.17g" kernel.  A finite nonzero double x prints as the 17 digits of
# N = round(|x| 10**(16 - E)), 10**16 <= N < 10**17, with decimal exponent E:
# in fixed notation for -4 <= E < 17, else as d.ddd e±XX; trailing zeros and
# a bare point are dropped.  N comes from y = |x| 10**(16 - E) in float64
# double-double: 10**(16 - E) is a table pair hi + lo, x hi is split exactly
# into p + e1 (Dekker's TwoProduct), and l = e1 + x lo.  For y < 10**17 three
# roundings remain: of lo and of x lo, each moving l by less than 1.24e-15,
# and of the sum, less than 1.78e-15.  So p + l is within 5e-15 of y, and
# N = p + rint(l) is certain wherever l is farther than that from a tie
# (_g17_decimal).  A cell's bytes are assembled
# in a scratch row of _G17_WIDTH bytes: 0-7 the right-aligned prefix ("-",
# "0.00", ...), 8-31 the digits of N, into which the point and, in fixed
# notation, the separator are then inserted; in exponent notation the
# digits end by byte 25 and the exponent and separator, right-aligned, take
# bytes 26-31.  One boolean mask per block keeps each cell's bytes.  The
# layout depends only on a key (ends a row, sign, class, index of the last
# significant digit), where the class is E + 4 for fixed notation, 21-24 for
# two- or three-digit negative or positive exponents, and 25 for a zero.
_G17_WIDTH = 32
_G17_E0 = 330  # offset of the decimal exponent in the tables indexed by it
_G17_CLASSES = 26
_G17_KEYS = 2 * 2 * _G17_CLASSES * 17
_G17_RANGE = 1e-250, 1e250  # |x| the double-double stage takes; the rest go to "%"
_G17_DD = 260  # offset of E in the power table; |E| <= 251 in that range
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """(p10, quad, zeros, expo, classes, prefix, blend, keep), built on first use.

    p10 is two tables indexed by E + _G17_DD: hi, the double nearest
    10**(16 - E), and lo, the double nearest 10**(16 - E) - hi.  quad[g] is
    the four digits of g, zeros[g] their trailing zeros.
    expo[2 (E + _G17_E0) + ends_row] is the exponent word.  By key: prefix
    is the prefix word, blend[w] the masks of the w-th digit word (digits
    in place, digits shifted one byte right, the point and separator), keep
    the cell's mask.
    """
    p10 = []
    for e in range(-_G17_DD, _G17_DD + 1):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den  # int / int rounds correctly, as does each division below
        a, b = hi.as_integer_ratio()
        p10.append((hi, (num * b - a * den) / (den * b)))
    p10 = tuple(np.array(t) for t in zip(*p10))
    quad = np.frombuffer("".join(f"{g:04d}" for g in range(10_000)).encode(), np.uint32)
    zeros = np.array([4 - len(f"{g:04d}".rstrip("0")) for g in range(10_000)], np.intp)
    exps = range(-_G17_E0, _G17_E0)
    expo = np.frombuffer("".join(f"e{e:+03d}{s}".rjust(8, "\0") for e in exps for s in ",\n").encode(),
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
    return (p10, quad, zeros, expo, classes, np.frombuffer(prefix, np.uint64), blend,
            np.frombuffer(keep, np.uint64).reshape(_G17_KEYS, _G17_WIDTH // 8))


def _veltkamp(a: np.ndarray):
    """(high, low): a split exactly into two halves of at most 26 bits each."""
    c = a * _SPLIT
    high = c - a
    np.subtract(c, high, out=high)
    return high, np.subtract(a, high, out=c)


def _g17_scaled(x: np.ndarray, e: np.ndarray, p10):
    """(N, d) for y = x 10**(16 - E): N = p + rint(l) as int64 and d = l - rint(l),
    where p + l is y in double-double (Dekker's TwoProduct, Veltkamp split)."""
    i = e + _G17_DD
    hi, lo = np.take(p10[0], i), np.take(p10[1], i)
    p = x * hi                  # an integer wherever y >= 2**53
    xh, xl = _veltkamp(x)
    hh, hl = _veltkamp(hi)
    l = xh * hh - p             # with the next three lines exactly x hi - p (Dekker)
    l += xh * hl
    l += xl * hh
    l += xl * hl
    l += x * lo
    r = np.rint(l)
    l -= r                      # exact: l and rint(l) are within 1/2
    return p.astype(np.int64) + r.astype(np.int64), l


def _g17_decimal(ax: np.ndarray):
    """(e, big, ok) for |x| = ax: decimal exponent E, N as uint64, and
    whether N is certain to be the digits "%.17g" prints.

    Exactness.  Let t = 10**(16 - E) = hi + lo + dt, u = 2**-53, and y = x t,
    so y < 10**17 for every certified cell.  TwoProduct gives x hi = p + e1
    exactly, and l = fl(e1 + fl(x lo)) misses y - p by at most
      |x dt|                 <= u**2 y < 1.24e-15, as dt, the rounding of lo,
                                is at most u |t - hi| <= u**2 t;
      |fl(x lo) - x lo|      <= u |x lo| <= u**2 y (1 + u) < 1.24e-15;
      |fl(e1 + fl(x lo)) - (e1 + fl(x lo))| <= 2**-49 < 1.78e-15, half an ulp
                                in [16, 32), as |e1| <= 8 (p < 2**57) and |x lo| < 12;
    together less than bound = 5e-15.  So N = p + rint(l) is the correctly
    rounded round(y) wherever |l - rint(l)| < 1/2 - bound, and those cells
    with 10**16 <= N < 10**17 are certified.  At N = 10**16 the true y may
    lie just below the decade, where "%.17g" takes the lower exponent; it
    rounds 10 y up to 10**17 there, the same bytes, whenever l - rint(l) >
    -0.05 + bound, so only those cells are.  Zeros are certified; NaN,
    +-inf and |x| outside _G17_RANGE, where the split could overflow or a
    partial product lose bits, are not.
    """
    bound, p10 = 5e-15, _g17_tables()[0]
    ok = (ax >= _G17_RANGE[0]) & (ax <= _G17_RANGE[1])
    x = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)  # may be one off next to a power of ten
    big, d = _g17_scaled(x, e, p10)
    off = (big >= 10**17).astype(np.intp) - (big < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        big[fix], d[fix] = _g17_scaled(x[fix], e[fix], p10)
    ok &= np.abs(d) < 0.5 - bound
    ok &= (big < 10**17) & (big >= 10**16)
    ok &= (big > 10**16) | (d > bound - 0.05)
    ok |= ax == 0
    return e, big.view(np.uint64), ok


def _g17_block(cells: np.ndarray, ends_row: np.ndarray, work: np.ndarray):
    """The "%.17g" of each cell, each followed by "," or, where ends_row,
    "\\n", as a uint8 array of the kept bytes.

    `work` is (2, at least n _G17_WIDTH) uint8 scratch for the cell rows
    and their mask, allocated once per table: allocating these per block
    fragments the heap between the blocks' text and raised the peak memory
    of a CLI run by about 5%.  The cells _g17_decimal does not certify --
    NaN, +-inf, near-ties and |x| outside _G17_RANGE, none in the tables the
    CLI writes -- are formatted by one batched "%.17g" % call and spliced in.
    """
    _, quad, zeros, expo, classes, prefix, blend, keep_t = _g17_tables()
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
    groups = []
    for j, part in ((0, mid), (2, lo)):
        q = part // 10_000
        groups += [q, part - q * 10_000]
        quads[:, j] = quad[q]
        quads[:, j + 1] = quad[groups[-1]]
    # index of the last significant digit: 16 less the trailing zeros of N,
    # taken four digits at a time; D0 is never 0
    last = 16 - np.take(zeros, groups[3])
    r = np.flatnonzero(groups[3] == 0)
    for g in groups[2::-1]:
        g = g[r]
        last[r] -= zeros[g]
        r = r[g == 0]
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
    ex = np.flatnonzero((c >= 21) & (c <= 24))  # the exponent after D15 and D16, at bytes 24-25
    words[ex, 3] = (words[ex, 3] & np.uint64(0xFFFF)) | expo[(e[ex] + _G17_E0) * 2 + ends_row[ex]]
    keep = np.take(keep_t, key, axis=0, out=work[1, :out.size].view(np.uint64).reshape(n, -1))
    keep = keep.view(bool)
    fb = np.flatnonzero(~ok)
    if fb.size:
        text = (("%.17g\0" * fb.size) % tuple(cells[fb].tolist())).split("\0")[:-1]
        out[fb, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        length = np.fromiter(map(len, text), np.intp, fb.size)
        out[fb, length] = np.where(ends_row[fb], 10, 44)
        keep[fb] = np.arange(_G17_WIDTH) <= length[:, None]
    return out.ravel()[keep.ravel()]


def _float_body(rows: np.ndarray):
    """The body of a 2-D float64 table with at least one column, yielded as
    one string per block of rows, each ending in "\\n".  A block is
    CSV_BLOCK_ROWS rows, or fewer where that would pass CSV_BLOCK_CELLS.

    Each cell is exactly "%.17g" % value, what format_cell gives a float:
    _g17_block certifies most cells and formats the rest with "%".
    """
    n_rows, n_cols = rows.shape
    step = max(1, min(CSV_BLOCK_ROWS, CSV_BLOCK_CELLS // n_cols))
    cap = min(n_rows, step) * n_cols
    work = np.empty((2, cap * _G17_WIDTH), np.uint8)
    ends_row = np.tile(np.arange(n_cols) == n_cols - 1, cap // n_cols).astype(np.intp)
    for start in range(0, n_rows, step):
        block = rows[start:start + step].ravel()
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
    a 2-D float64 array, whose body is formatted in blocks of rows by a
    vectorised kernel with the same bytes as "%.17g" per cell.  The kernel
    keeps a cell's 17 digits only where the error of its double-double
    scaling, less than 5e-15, cannot change them (_g17_decimal); NaN, +-inf,
    near-ties and |x| outside [1e-250, 1e250] fall back to "%" (_g17_block)."""
    meta_str = "".join(f" {k}={format_cell(v)}" for k, v in (meta or {}).items())
    head = f"# {CSV_FORMAT_VERSION} table={name}{meta_str}\n{','.join(columns)}\n"
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64 and rows.shape[1]:
        body = _float_body(rows)
    else:
        body = (",".join(format_cell(v) for v in row) + "\n" for row in rows)
    return write_text(path, itertools.chain([head], body))


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
    Either kind maps -inf and +inf to its end values; a NaN argument raises.
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
        vars(self).update(_knots=knots, _values=values)  # frozen; read by every call

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():  # searchsorted would put NaN past the last knot
            raise ParameterError("a piecewise function's argument must not be NaN")
        if self.kind == "constant":
            out = self._values[np.searchsorted(self._knots, x, side="left")]
        else:
            out = np.interp(x, self._knots, self._values)
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
    check_time_start(T, z0)
    if not 0 <= q_ratio < math.inf:
        raise ParameterError(f"q_ratio must be finite and >= 0, got {q_ratio!r}")
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
