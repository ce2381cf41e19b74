"""The one-dimensional gap diffusion dY = -lam*sign(Y) dt + dW.

Provides Euler path simulation, the closed-form transition density, two local
time estimators, the exact joint law of (sign of Y(t), |Y(t)|, twice the local
time), and an exact sampler for that law, which also draws Y(t) itself.

Conventions fixed here and used everywhere downstream:

* sign(0) = -1 (core.sides, and core.sign for a checked point), applied to
  every indicator evaluation;
* local time is the symmetric semimartingale local time at 0, normalized as
  the limit of (1/(4 eps)) * occupation time of (-eps, eps);
* the closed-form laws are stated for a start y >= 0; a start y < 0 is
  evaluated through the mirror map (y, xi) -> (-y, -xi), which is exact for
  the law even though it is not what the y >= 0 formulas give verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BLOCK_CELLS, ModelParams, ParameterError, as_generator, check_counts,
                   check_time_start, points, scalar_or_array, sides)
from .tails import gauss_tail, log_norm_sf, norm_cdf, norm_ppf


@dataclass(frozen=True)
class YPath:
    """A discretized gap-process trajectory on a uniform grid."""

    times: np.ndarray
    y_values: np.ndarray
    w_increments: np.ndarray
    l_values: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if len(self.y_values) != n or len(self.l_values) != n or len(self.w_increments) != n - 1:
            raise ValueError("YPath arrays have inconsistent lengths")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("YPath time grid must be strictly increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------

def transition_density(p: ModelParams, t: float, y, xi):
    """Density of Y(t) at xi, for Y(0) = y; y and xi broadcast.

    One closed form for a start y >= 0, in a = |xi| with the side s =
    sign(xi) (sign(0) = -1) in front of y and the factor exp(2 lam y) on the
    far side of the origin; a start y < 0 is its mirror image (-y, -xi),
    elementwise.
    """
    check_time_start(t, y)
    lam, t = p.lam, float(t)
    y_arr, xi_arr = np.asarray(y, dtype=float), points(xi)  # y: a start, checked above
    flip = np.where(y_arr < 0, -1.0, 1.0)  # multiplying by +-1 is exact
    y_m, a = flip * y_arr, np.abs(xi_arr)
    s = sides(flip * xi_arr)
    out = (
        np.exp((1.0 - s) * lam * y_m - ((a - s * y_m + lam * t) ** 2) / (2.0 * t))
        + lam * np.exp(-2.0 * lam * a) * gauss_tail(y_m + a, lam * t, t)
    )
    return scalar_or_array(out / np.sqrt(2.0 * np.pi * t), y, xi)


def invariant_density(p: ModelParams, xi):
    """Stationary density lam * exp(-2 lam |xi|)."""
    return scalar_or_array(p.lam * np.exp(-2.0 * p.lam * np.abs(points(xi))), xi)


def sample_terminal_exact(p: ModelParams, t: float, y: float, n: int, rng) -> np.ndarray:
    """n exact draws of Y(t), for Y(0) = y: side * a from the triple law, with
    a start y < 0 drawn as the mirror image of the start -y."""
    flip = -1.0 if y < 0 else 1.0
    trip = sample_triples(p, flip * y, t, n, rng)
    return flip * trip.sides * trip.a


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def euler_gap_path(lam: float, y0: float, T: float, n_steps: int, seed=None, *, increments=None) -> YPath:
    """Euler scheme for dY = -lam*sign(Y) dt + dW on a uniform grid.

    `increments` overrides the driving Brownian increments (length n_steps);
    the zero array gives the deterministic drift skeleton.  lam = 0 gives a
    plain Brownian path, used as a calibration case by the local-time tests.
    """
    _check_batch(y0, T, n_steps, 1)
    dt = T / n_steps
    if increments is None:
        rng = as_generator(seed)
        increments = rng.standard_normal(n_steps) * np.sqrt(dt)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ParameterError("increments must have shape (n_steps,)")
    lam_dt = lam * dt  # lam (+-1.0) dt is exactly +-lam_dt, so each step rounds as gap_euler_step
    y = float(y0)
    ys = [y]
    for dw in increments.tolist():  # Python floats: cheaper per step than numpy scalars
        y = (y - lam_dt if y > 0 else y + lam_dt) + dw
        ys.append(y)
    y_values = np.array(ys)
    times = np.linspace(0.0, T, n_steps + 1)
    return YPath(times, y_values, increments, tanaka_residual_series(y_values))


def simulate_y(p: ModelParams, y0: float, T: float, n_steps: int, seed=None, *, increments=None) -> YPath:
    """Euler path of the gap process under validated parameters."""
    return euler_gap_path(p.lam, y0, T, n_steps, seed, increments=increments)


def _check_batch(y0, T, n_steps, n_paths):
    check_time_start(T, y0)
    check_counts(n_steps=n_steps, n_paths=n_paths)


def gap_euler_step(y: np.ndarray, lam: float, dt: float, dw: np.ndarray) -> None:
    """One Euler step of dY = -lam*sign(Y) dt + dW for every path of y, in place,
    with increments dw, rounded as euler_gap_path: y <- (y - lam sign(y) dt) + dw."""
    y -= sides(y) * (lam * dt)
    y += dw


def euler_gap_terminal(lam: float, y0, T: float, n_steps: int, n_paths: int, rng) -> np.ndarray:
    """Terminal values Y(T) of n_paths Euler paths (nothing else stored): the
    last row of euler_gap_paths_batch with the same rng."""
    _check_batch(y0, T, n_steps, n_paths)
    rng = as_generator(rng)
    dt = T / n_steps
    y = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths,)).copy()
    for _ in range(n_steps):
        gap_euler_step(y, lam, dt, rng.standard_normal(n_paths) * np.sqrt(dt))
    return y


def euler_gap_paths_batch(lam: float, y0, T: float, n_steps: int, n_paths: int, rng):
    """Full Euler trajectories for a batch of paths.

    Returns (times, Y, dW) with Y of shape (n_steps + 1, n_paths) and dW of
    shape (n_steps, n_paths).  Its peak memory is these outputs: dW is
    scaled in place and each step updates one row.  Column j is the
    euler_gap_path of the same draws.
    """
    _check_batch(y0, T, n_steps, n_paths)
    rng = as_generator(rng)
    dt = T / n_steps
    y = np.empty((n_steps + 1, n_paths))
    y[0] = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths,))
    dw = rng.standard_normal((n_steps, n_paths))
    dw *= np.sqrt(dt)
    for k in range(n_steps):
        y[k + 1] = y[k]
        gap_euler_step(y[k + 1], lam, dt, dw[k])
    return np.linspace(0.0, T, n_steps + 1), y, dw


# ---------------------------------------------------------------------------
# local time estimators
# ---------------------------------------------------------------------------

def _signed_scan(y, dw, finish, last=False) -> np.ndarray:
    """Running max along axis 0 of finish(rows, c), where c_k = sum_{j<k}
    sign(y_j) dw_j (c_0 = 0; dw None means the increments of y itself),
    taken over row blocks of about BLOCK_CELLS cells; only its last row if
    `last`.

    Exact: cumsum along axis 0 adds each column in order, so adding the
    carried last row of c into the next block's first term gives the
    whole-array sums, and max is exact in any order.  The running max is
    carried the same way, so the last row alone costs a block, not the array.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0] - 1
    out = None if last else np.empty(y.shape)
    peak = finish(slice(0, 1), np.zeros((1,) + y.shape[1:]))
    if not last:
        out[0] = peak[0]
    rows = max(1, BLOCK_CELLS // max(1, y[0].size))
    for i in range(0, n, rows):
        j = min(i + rows, n)
        c = sides(y[i:j]) * (y[i + 1:j + 1] - y[i:j] if dw is None else dw[i:j])
        if i:
            c[0] += carry
        carry = np.cumsum(c, axis=0, out=c)[-1]
        v = finish(slice(i + 1, j + 1), c)
        np.maximum(v[:1], peak, out=v[:1])
        peak = np.maximum.accumulate(v, axis=0, out=v if last else out[i + 1:j + 1])[-1:]
    return peak[0] if last else out


def tanaka_residual_series(y_values: np.ndarray, last: bool = False) -> np.ndarray:
    """Local-time series from the pathwise residual of |Y|, along axis 0;
    only its last row, in a block's memory, if `last`.

    L(t_k) = (|Y_k| - |Y_0| - sum_{j<k} sign(Y_j) dY_j) / 2, clipped below at
    its running maximum.  y_values is one path (n_steps + 1,) or a batch
    (n_steps + 1, n_paths).  With left-endpoint sign evaluation every
    increment of the raw residual is already >= 0, so the clip is a safety
    net, not a correction.
    """
    y = np.asarray(y_values, dtype=float)
    y0 = np.abs(y[0])
    return _signed_scan(y, None, lambda rows, c: 0.5 * (np.abs(y[rows]) - y0 - c), last)


tanaka_residual_matrix = tanaka_residual_series  # the batch name the benchmark calls


def tanaka_residual_local_time(path: YPath) -> np.ndarray:
    return tanaka_residual_series(path.y_values)


def occupation_local_time(path: YPath, eps: float) -> np.ndarray:
    """Occupation-time estimator (1/(4 eps)) * sum 1{|Y| < eps} dt."""
    if not eps > 0:
        raise ParameterError("occupation_local_time requires eps > 0")
    y = path.y_values
    dt = np.diff(path.times)
    inside = (np.abs(y[:-1]) < eps).astype(float)
    return np.concatenate([[0.0], np.cumsum(inside * dt)]) / (4.0 * eps)


def skorokhod_local_time_series(y: np.ndarray, dw: np.ndarray, times: np.ndarray, lam: float,
                                last: bool = False) -> np.ndarray:
    """2*L(t) via the running-max reflection formula, along axis 0; only its
    last row if `last`, as in tanaka_residual_series.

    y holds the gap path(s) on the grid `times` (shape (n_steps + 1,) or
    (n_steps + 1, n_paths)), dw their driving increments; the driver
    V_flat(t) = int sign(Y) dW is rebuilt from them.  Returns 2*L, not L.
    """
    grid = np.reshape(times, (-1,) + (1,) * (np.ndim(y) - 1))
    y0 = np.abs(y[0])
    return _signed_scan(y, dw, lambda rows, c: np.maximum(-(y0 + c - lam * grid[rows]), 0.0), last)


# ---------------------------------------------------------------------------
# joint law of (side, |Y(t)|, 2 L(t))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleDraw:
    """One exact draw of (side, a, b) = (sign of Y(t), |Y(t)|, 2 L(t))."""

    side: str  # "plus" or "minus"
    a: float
    b: float
    atom: bool

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be nonnegative")
        if self.atom != (self.b == 0.0):
            raise ValueError("atom flag must mark exactly b == 0")


def _check_triple_domain(y, t):
    check_time_start(t, y)
    if y < 0:
        raise ParameterError("joint gap/local-time laws require y >= 0 (mirror y < 0 upstream)")


def _triple_kernel(coef, lam, t, a, s, c):
    """coef exp(-2 lam a) s / sqrt(2 pi t^3) exp(-c^2 / (2t)), the one closed
    form of the triple law, with s = a + b + y and c = s - lam t as each
    caller rounds them: triple_density is coef 1, and the degenerate planar
    wedges and front jump of densities are its images under the skew map."""
    return coef * np.exp(-2.0 * lam * a) * s / np.sqrt(2.0 * np.pi * t**3) * np.exp(-(c**2) / (2.0 * t))


def _atom_bracket(lam, y, t, a):
    """exp(-(a - y + lam t)^2 / (2t)) - exp(-2 lam a - (a + y - lam t)^2 / (2t)),
    the atom law of |Y(t)| times sqrt(2 pi t), for y >= 0 and a > 0."""
    return (np.exp(-((a - y + lam * t) ** 2) / (2.0 * t))
            - np.exp(-2.0 * lam * a - ((a + y - lam * t) ** 2) / (2.0 * t)))


def triple_density(p: ModelParams, y: float, t: float, a, b):
    """Joint density of (Y(t) on one fixed side in da, 2 L(t) in db), y >= 0.

    The value is the same for the positive and the negative side; the total
    continuous mass is therefore twice the integral of this function.
    """
    _check_triple_domain(y, t)
    a_pt, b_pt = points(a), points(b)
    if np.any(a_pt <= 0) or np.any(b_pt <= 0):
        raise ParameterError("triple_density requires a > 0 and b > 0")
    s = a_pt + b_pt + y
    return scalar_or_array(_triple_kernel(1.0, p.lam, t, a_pt, s, s - p.lam * t), a, b)


def atom_density(p: ModelParams, y: float, t: float, a):
    """Density of Y(t) in da on the no-sign-change event {2 L(t) = 0}.

    Identically zero when y = 0: the gap process starting at the origin
    accumulates local time immediately.
    """
    _check_triple_domain(y, t)
    a_pt = points(a)
    if np.any(a_pt <= 0):
        raise ParameterError("atom_density requires a > 0")
    out = _atom_bracket(p.lam, y, t, a_pt) / np.sqrt(2.0 * np.pi * t)
    if y == 0:
        out = np.zeros_like(out)
    return scalar_or_array(out, a)


def atom_mass(p: ModelParams, y: float, t: float) -> float:
    """P(no sign change by t) = total mass of atom_density, in closed form."""
    _check_triple_domain(y, t)
    if y == 0:
        return 0.0
    st = np.sqrt(t)
    lam = p.lam
    growth = 2.0 * lam * y
    if growth <= 700.0:
        reflected = np.exp(growth) * norm_cdf(-(y + lam * t) / st)
    else:  # exp(2 lam y) overflows near 709: take the product in log space
        reflected = np.exp(growth + log_norm_sf((y + lam * t) / st))
    return float(norm_cdf((y - lam * t) / st) - reflected)


@dataclass(frozen=True)
class TripleBatch:
    """Vectorized exact draws from the (side, a, b) law."""

    sides: np.ndarray  # +1.0 / -1.0
    a: np.ndarray
    b: np.ndarray
    atom: np.ndarray  # boolean

    def __len__(self):
        return len(self.a)


_MAX_REJECTION_ROUNDS = 10_000
_MAX_ROUND = 1 << 20  # proposals in one round, so that memory stays bounded
_ENVELOPE_MARGIN = 1e-6


def _envelope(lam: float, t: float, y: float):
    """(d, log env): the peak s* = y + d of the ratio f of _sample_s_marginal,
    and the log of env = f(s*) * (1 + 1e-6), a true bound on f.

    f is strictly log-concave on s > y, so d is the one root of the convex,
    decreasing slope of log f, 2 lam / expm1(2 lam d) + 1/s - (s - lam t)/(2t).
    Newton steps find it, kept in a bracket by bisection (doubling while the
    bracket is open).  They start at the root of the last two terms when it
    lies above y (left of s*, from where they rise to it monotonically), and
    else at the root d = 2 / (A + sqrt(A^2 + 2/t)) of 1/d - A - d/(2t),
    A = (y - lam t)/(2t) - 1/y >= 0, which bounds the slope from above
    (2 lam / expm1(2 lam d) <= 1/d and 1/s <= 1/y), so it lies right of the
    root.  d is solved for directly, so s* - y keeps its digits, and log f(s*)
    is taken term by term, so env does not underflow where f does.
    """
    lt, two_lam = lam * t, 2.0 * lam
    s_gauss = 0.5 * (lt + math.sqrt(lt * lt + 8.0 * t))
    if s_gauss > y:
        d = s_gauss - y
    else:
        big_a = (y - lt) / (2.0 * t) - 1.0 / y
        d = 2.0 / (big_a + math.sqrt(big_a * big_a + 2.0 / t))
    lo, hi = 0.0, math.inf
    for _ in range(200):
        s, q = y + d, two_lam / math.expm1(min(two_lam * d, 700.0))
        g = q + 1.0 / s - (s - lt) / (2.0 * t)
        step = g / (q * (q + two_lam) + 1.0 / (s * s) + 0.5 / t)  # -g / (dg/dd)
        if abs(step) <= 1e-12 * d:
            break
        lo, hi = (d, hi) if g > 0.0 else (lo, d)
        d = d + step if lo < d + step < hi else (0.5 * (lo + hi) if hi < math.inf else 2.0 * d)
    else:
        raise RuntimeError(f"envelope search did not converge at lam={lam}, t={t}, y={y}")
    s = y + d
    log_f = math.log(-math.expm1(-two_lam * d)) + math.log(s) - (s - lt) ** 2 / (4.0 * t)
    return d, log_f + math.log1p(_ENVELOPE_MARGIN)


def _rejection(n: int, p: float, loc: float, scale: float, log_sf_lo: float, accept, rng) -> np.ndarray:
    """n draws by rejection: proposals z ~ N(loc, scale^2) on (loc + scale x,
    inf), log_sf_lo = log Phi_bar(x), each kept with probability accept(z).

    z is drawn from the upper tail in log space (Robert, Stat. Comput. 1995),
    so it does not quantise when Phi_bar(x) is small.  A round draws enough
    proposals for what is left at the acceptance rate p, with three standard
    deviations and 8 to spare (at most _MAX_ROUND), and keeps the first
    acceptances in proposal order: the first n acceptances of iid proposals
    are iid draws of the target.
    """
    out = np.empty(n)
    done = 0
    q = min(p, 1.0)
    for _ in range(_MAX_REJECTION_ROUNDS):
        need = n - done
        if need == 0:
            break
        m = _MAX_ROUND
        if q * _MAX_ROUND > 1.0:
            m = min(math.ceil((need + 3.0 * math.sqrt(need * (1.0 - q))) / q) + 8, m)
        r = rng.random((2, m))
        z = loc - scale * norm_ppf(log_sf_lo + np.log1p(-r[0]))
        kept = z[r[1] < accept(z)][:need]
        out[done:done + kept.size] = kept
        done += kept.size
    if done < n:
        raise RuntimeError("rejection sampler failed to converge")
    return out


def _sample_s_marginal(lam: float, t: float, y: float, n: int, rng) -> np.ndarray:
    """Draw s = a + b + y from its marginal on (y, inf) by rejection.

    Target: (1 - exp(-2 lam (s-y))) * s * exp(-(s - lam t)^2 / (2t)).
    Proposal: N(lam t, 2t) truncated to (y, inf) -- the doubled variance
    dominates the linear factor, so the ratio
    f(s) = (1 - exp(-2 lam (s-y))) * s * exp(-(s - lam t)^2 / (4t))
    has a finite maximum (see _envelope).  A proposal z is kept with
    probability f(z) / env, taken as f(z) / f(s*) / (1 + 1e-6), which does
    not underflow near the peak.  The acceptance rate is c lam t / (sqrt(2)
    env Phi_bar((y - lam t)/sqrt(2t))), with the continuous mass
    c = Phi_bar((y - lam t)/sqrt t) + exp(2 lam y) Phi_bar((y + lam t)/sqrt t).
    """
    d, log_env = _envelope(lam, t, y)
    lt, st = lam * t, math.sqrt(t)
    s_pk, em_pk = y + d, math.expm1(-2.0 * lam * d)
    log_sf_lo = float(log_norm_sf((y - lt) / (math.sqrt(2.0) * st)))
    log_c = float(np.logaddexp(log_norm_sf((y - lt) / st), 2.0 * lam * y + log_norm_sf((y + lt) / st)))
    p = math.exp(log_c + math.log(lt / math.sqrt(2.0)) - log_env - log_sf_lo)

    def accept(z):
        return (np.expm1(-2.0 * lam * (z - y)) / em_pk * (z / s_pk)
                * np.exp((z - s_pk) * (z + s_pk - 2.0 * lt) / (-4.0 * t)) / (1.0 + _ENVELOPE_MARGIN))

    return _rejection(n, p, lt, math.sqrt(2.0) * st, log_sf_lo, accept, rng)


def _sample_atom_values(lam: float, t: float, y: float, n: int, rng, m_atom: float) -> np.ndarray:
    """Draw |Y(t)| on the no-sign-change event, whose mass is m_atom:
    truncated Gaussian endpoint N(y - lam t, t) on (0, inf), accepted with
    the bridge no-hit probability 1 - exp(-2 a y / t)."""
    mu, st = y - lam * t, math.sqrt(t)
    log_sf_lo = float(log_norm_sf(-mu / st))
    p = math.exp(math.log(m_atom) - log_sf_lo)
    return _rejection(n, p, mu, st, log_sf_lo, lambda z: -np.expm1(-2.0 * z * y / t), rng)


def sample_triples(p: ModelParams, y: float, t: float, n: int, seed=None) -> TripleBatch:
    """n exact draws of (side, a, b); y >= 0.

    Atom-vs-continuous is decided by the closed-form atom mass; on the
    continuous part the side is a fair coin and (a, b) is drawn via the
    change of variables s = a + b + y (rejection in s, exact truncated
    exponential for a | s).  Atoms force side = plus.  Each rejection
    sampler almost always finishes in one round (see _rejection).
    """
    _check_triple_domain(y, t)
    if n < 0:
        raise ParameterError("n must be >= 0")
    rng = as_generator(seed)
    lam = p.lam
    m_atom = atom_mass(p, y, t)
    is_atom = rng.random(n) < m_atom
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)  # a fair coin, not the sign rule
    side[is_atom] = 1.0
    a = np.empty(n)
    b = np.zeros(n)
    n_atom = int(is_atom.sum())
    if n_atom:
        a[is_atom] = _sample_atom_values(lam, t, y, n_atom, rng, m_atom)
    n_cont = n - n_atom
    if n_cont:
        s = _sample_s_marginal(lam, t, y, n_cont, rng)
        w = rng.random(n_cont)
        a_cont = -np.log1p(w * np.expm1(-2.0 * lam * (s - y))) / (2.0 * lam)
        cont = ~is_atom
        a[cont] = a_cont
        b[cont] = s - a_cont - y
    return TripleBatch(side, a, b, is_atom)


def sample_triple(p: ModelParams, y: float, t: float, seed=None) -> TripleDraw:
    """One exact draw from the (side, a, b) law."""
    batch = sample_triples(p, y, t, 1, seed)
    return TripleDraw(
        side="plus" if batch.sides[0] > 0 else "minus",
        a=float(batch.a[0]),
        b=float(batch.b[0]),
        atom=bool(batch.atom[0]),
    )
