"""The one-dimensional gap diffusion dY = -lam*sign(Y) dt + dW.

Provides Euler path simulation, the closed-form transition density, two local
time estimators, the exact joint law of (sign of Y(t), |Y(t)|, twice the local
time), and an exact sampler for that law.

Conventions fixed here and used everywhere downstream:

* sign(0) = -1 (core.sign), applied to every indicator evaluation;
* local time is the symmetric semimartingale local time at 0, normalized as
  the limit of (1/(4 eps)) * occupation time of (-eps, eps);
* the closed-form laws are stated for a start y >= 0; a start y < 0 is
  evaluated through the mirror map (y, xi) -> (-y, -xi), which is exact for
  the law even though it is not what the y >= 0 formulas give verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModelParams, ParameterError, as_generator
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

    def reversed(self) -> "YPath":
        """Time-reversed trajectory on the same grid (local time recomputed)."""
        y_rev = self.y_values[::-1].copy()
        w_rev = -self.w_increments[::-1].copy()
        l_rev = tanaka_residual_series(y_rev)
        return YPath(self.times.copy(), y_rev, w_rev, l_rev)


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------

def _density_pairs(lam: float, t: float, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Closed-form density for starts y >= 0, elementwise over (y, xi)."""
    out = np.empty_like(xi)
    pos = xi > 0
    xp, yp = xi[pos], y[pos]
    out[pos] = (
        np.exp(-((xp - yp + lam * t) ** 2) / (2.0 * t))
        + lam * np.exp(-2.0 * lam * xp) * gauss_tail(yp + xp, lam * t, t)
    )
    xn, yn = xi[~pos], y[~pos]
    out[~pos] = (
        np.exp(2.0 * lam * yn - ((yn - xn + lam * t) ** 2) / (2.0 * t))
        + lam * np.exp(2.0 * lam * xn) * gauss_tail(yn - xn, lam * t, t)
    )
    return out / np.sqrt(2.0 * np.pi * t)


def transition_density(p: ModelParams, t: float, y: float, xi):
    """Density of Y(t) at xi, for Y(0) = y.

    Vectorized over xi.  Starts y < 0 are evaluated as the mirror image of the
    corresponding y > 0 problem.
    """
    if not t > 0:
        raise ParameterError("transition_density requires t > 0")
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if y >= 0:
        out = _density_pairs(p.lam, float(t), np.full_like(xi_arr, float(y)), xi_arr)
    else:
        out = _density_pairs(p.lam, float(t), np.full_like(xi_arr, -float(y)), -xi_arr)
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return float(out[0])
    return out


def transition_density_from(p: ModelParams, t: float, y, xi):
    """Density of Y(t) at xi with the starting point vectorized.

    y and xi broadcast against each other; negative starts go through the
    mirror map elementwise.
    """
    if not t > 0:
        raise ParameterError("transition_density_from requires t > 0")
    y_arr, xi_arr = np.broadcast_arrays(np.atleast_1d(np.asarray(y, dtype=float)),
                                        np.atleast_1d(np.asarray(xi, dtype=float)))
    neg = y_arr < 0
    y_eff = np.where(neg, -y_arr, y_arr)
    xi_eff = np.where(neg, -xi_arr, xi_arr)
    out = _density_pairs(p.lam, float(t), y_eff, xi_eff)
    if np.ndim(y) == 0 and np.ndim(xi) == 0:
        return float(out[0])
    return out


def invariant_density(p: ModelParams, xi):
    """Stationary density lam * exp(-2 lam |xi|)."""
    xi = np.asarray(xi, dtype=float)
    out = p.lam * np.exp(-2.0 * p.lam * np.abs(xi))
    return float(out) if out.ndim == 0 else out


def transition_cdf_table(p: ModelParams, t: float, y: float, n: int = 8001, width: float = 10.0):
    """Tabulated CDF of Y(t): (grid, cdf), cdf strictly increasing to ~1.

    Used for KS tests against the closed form and for inverse-CDF sampling of
    the exact time-t marginal.
    """
    lo = -(abs(y) + p.lam * t + width * np.sqrt(t) + 2.0)
    hi = -lo
    grid = np.linspace(lo, hi, n)
    pdf = transition_density(p, t, y, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    return grid, cdf


def sample_terminal_exact(p: ModelParams, t: float, y: float, n: int, rng) -> np.ndarray:
    """Exact draws of Y(t) by inverse CDF of the closed-form density."""
    rng = as_generator(rng)
    grid, cdf = transition_cdf_table(p, t, y)
    u = rng.random(n) * cdf[-1]
    return np.interp(u, cdf, grid)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def euler_gap_path(lam: float, y0: float, T: float, n_steps: int, seed=None, *, increments=None) -> YPath:
    """Euler scheme for dY = -lam*sign(Y) dt + dW on a uniform grid.

    `increments` overrides the driving Brownian increments (length n_steps);
    the zero array gives the deterministic drift skeleton.  lam = 0 gives a
    plain Brownian path, used as a calibration case by the local-time tests.
    """
    if not T > 0 or n_steps < 1:
        raise ParameterError("require T > 0 and n_steps >= 1")
    dt = T / n_steps
    if increments is None:
        rng = as_generator(seed)
        increments = rng.standard_normal(n_steps) * np.sqrt(dt)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ParameterError("increments must have shape (n_steps,)")
    y = np.empty(n_steps + 1)
    y[0] = y0
    for k in range(n_steps):
        y[k + 1] = y[k] - lam * (1.0 if y[k] > 0 else -1.0) * dt + increments[k]
    times = np.linspace(0.0, T, n_steps + 1)
    return YPath(times, y, increments, tanaka_residual_series(y))


def simulate_y(p: ModelParams, y0: float, T: float, n_steps: int, seed=None, *, increments=None) -> YPath:
    """Euler path of the gap process under validated parameters."""
    return euler_gap_path(p.lam, y0, T, n_steps, seed, increments=increments)


def euler_gap_terminal(lam: float, y0, T: float, n_steps: int, n_paths: int, rng) -> np.ndarray:
    """Terminal values Y(T) of n_paths Euler paths (nothing else stored)."""
    rng = as_generator(rng)
    dt = T / n_steps
    sq = np.sqrt(dt)
    y = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths,)).copy()
    for _ in range(n_steps):
        y += -lam * np.where(y > 0, 1.0, -1.0) * dt + rng.standard_normal(n_paths) * sq
    return y


def euler_gap_paths_batch(lam: float, y0, T: float, n_steps: int, n_paths: int, rng):
    """Full Euler trajectories for a batch of paths.

    Returns (times, Y, dW) with Y of shape (n_steps + 1, n_paths) and dW of
    shape (n_steps, n_paths); memory-heavy, intended for estimator studies.
    """
    rng = as_generator(rng)
    dt = T / n_steps
    sq = np.sqrt(dt)
    y = np.empty((n_steps + 1, n_paths))
    y[0] = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths,))
    dw = rng.standard_normal((n_steps, n_paths)) * sq
    for k in range(n_steps):
        y[k + 1] = y[k] - lam * np.where(y[k] > 0, 1.0, -1.0) * dt + dw[k]
    return np.linspace(0.0, T, n_steps + 1), y, dw


def tanaka_residual_matrix(y: np.ndarray) -> np.ndarray:
    """Column-wise local-time series for a (n_steps+1, n_paths) batch."""
    s = np.where(y[:-1] > 0, 1.0, -1.0)
    stoch = np.vstack([np.zeros(y.shape[1]), np.cumsum(s * np.diff(y, axis=0), axis=0)])
    raw = 0.5 * (np.abs(y) - np.abs(y[0]) - stoch)
    return np.maximum.accumulate(raw, axis=0)


# ---------------------------------------------------------------------------
# local time estimators
# ---------------------------------------------------------------------------

def tanaka_residual_series(y_values: np.ndarray) -> np.ndarray:
    """Local-time series from the pathwise residual of |Y|.

    L(t_k) = (|Y_k| - |Y_0| - sum_{j<k} sign(Y_j) dY_j) / 2, clipped below at
    its running maximum.  With left-endpoint sign evaluation every increment
    of the raw residual is already >= 0, so the clip is a safety net, not a
    correction.
    """
    y = np.asarray(y_values, dtype=float)
    s = np.where(y[:-1] > 0, 1.0, -1.0)
    stoch = np.concatenate([[0.0], np.cumsum(s * np.diff(y))])
    raw = 0.5 * (np.abs(y) - abs(y[0]) - stoch)
    return np.maximum.accumulate(raw)


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


def skorokhod_local_time_series(path: YPath, lam: float) -> np.ndarray:
    """2*L(t) via the running-max reflection formula, from the path's noise.

    Uses the driver V_flat(t) = int sign(Y) dW reconstructed from the stored
    increments; returns the series of 2*L, not L.
    """
    s = np.where(path.y_values[:-1] > 0, 1.0, -1.0)
    v_flat = np.concatenate([[0.0], np.cumsum(s * path.w_increments)])
    slack = abs(path.y_values[0]) + v_flat - lam * path.times
    return np.maximum.accumulate(np.maximum(-slack, 0.0))


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
    if y < 0:
        raise ParameterError("joint gap/local-time laws require y >= 0 (mirror y < 0 upstream)")
    if not t > 0:
        raise ParameterError("require t > 0")


def triple_density(p: ModelParams, y: float, t: float, a, b):
    """Joint density of (Y(t) on one fixed side in da, 2 L(t) in db), y >= 0.

    The value is the same for the positive and the negative side; the total
    continuous mass is therefore twice the integral of this function.
    """
    _check_triple_domain(y, t)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ParameterError("triple_density requires a > 0 and b > 0")
    s = a + b + y
    out = np.exp(-2.0 * p.lam * a) * s / np.sqrt(2.0 * np.pi * t**3) * np.exp(-((s - p.lam * t) ** 2) / (2.0 * t))
    return float(out) if out.ndim == 0 else out


def atom_density(p: ModelParams, y: float, t: float, a):
    """Density of Y(t) in da on the no-sign-change event {2 L(t) = 0}.

    Identically zero when y = 0: the gap process starting at the origin
    accumulates local time immediately.
    """
    _check_triple_domain(y, t)
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ParameterError("atom_density requires a > 0")
    lam = p.lam
    out = (
        np.exp(-((a - y + lam * t) ** 2) / (2.0 * t))
        - np.exp(-2.0 * lam * a - ((a + y - lam * t) ** 2) / (2.0 * t))
    ) / np.sqrt(2.0 * np.pi * t)
    if y == 0:
        out = np.zeros_like(out)
    return float(out) if out.ndim == 0 else out


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


def _sample_s_marginal(lam: float, t: float, y: float, n: int, rng) -> np.ndarray:
    """Draw s = a + b + y from its marginal on (y, inf) by rejection.

    Target: (1 - exp(-2 lam (s-y))) * s * exp(-(s - lam t)^2 / (2t)).
    Proposal: N(lam t, 2t) truncated to (y, inf) -- the doubled variance
    dominates the linear factor, so the ratio has a finite maximum; the
    envelope constant is found by maximizing the ratio on a grid.
    """
    hi = y + lam * t + 14.0 * np.sqrt(t) + 10.0
    grid = np.linspace(max(y, 1e-12), hi, 40_001)
    ratio_grid = -np.expm1(-2.0 * lam * (grid - y)) * grid * np.exp(-((grid - lam * t) ** 2) / (4.0 * t))
    env = ratio_grid.max() * (1.0 + 1e-6)
    out = np.empty(n)
    idx = np.arange(n)
    lo_q = norm_cdf((y - lam * t) / np.sqrt(2.0 * t))
    for _ in range(_MAX_REJECTION_ROUNDS):
        if idx.size == 0:
            break
        u = lo_q + rng.random(idx.size) * (1.0 - lo_q)
        z = lam * t + np.sqrt(2.0 * t) * norm_ppf(u)
        r = -np.expm1(-2.0 * lam * (z - y)) * z * np.exp(-((z - lam * t) ** 2) / (4.0 * t))
        acc = rng.random(idx.size) * env < r
        out[idx[acc]] = z[acc]
        idx = idx[~acc]
    if idx.size:
        raise RuntimeError("rejection sampler failed to converge")
    return out


def _sample_atom_values(lam: float, t: float, y: float, n: int, rng) -> np.ndarray:
    """Draw |Y(t)| on the no-sign-change event: truncated Gaussian endpoint
    accepted with the bridge no-hit probability 1 - exp(-2 a y / t)."""
    out = np.empty(n)
    idx = np.arange(n)
    mu, st = y - lam * t, np.sqrt(t)
    lo_q = norm_cdf(-mu / st)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if idx.size == 0:
            break
        u = lo_q + rng.random(idx.size) * (1.0 - lo_q)
        z = mu + st * norm_ppf(u)
        acc = rng.random(idx.size) < -np.expm1(-2.0 * z * y / t)
        out[idx[acc]] = z[acc]
        idx = idx[~acc]
    if idx.size:
        raise RuntimeError("atom rejection sampler failed to converge")
    return out


def sample_triples(p: ModelParams, y: float, t: float, n: int, seed=None) -> TripleBatch:
    """n exact draws of (side, a, b); y >= 0.

    Atom-vs-continuous is decided by the closed-form atom mass; on the
    continuous part the side is a fair coin and (a, b) is drawn via the
    change of variables s = a + b + y (rejection in s, exact truncated
    exponential for a | s).  Atoms force side = plus.
    """
    _check_triple_domain(y, t)
    rng = as_generator(seed)
    lam = p.lam
    m_atom = atom_mass(p, y, t)
    is_atom = rng.random(n) < m_atom
    sides = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    sides[is_atom] = 1.0
    a = np.empty(n)
    b = np.zeros(n)
    n_atom = int(is_atom.sum())
    if n_atom:
        a[is_atom] = _sample_atom_values(lam, t, y, n_atom, rng)
    n_cont = n - n_atom
    if n_cont:
        s = _sample_s_marginal(lam, t, y, n_cont, rng)
        w = rng.random(n_cont)
        a_cont = -np.log1p(w * np.expm1(-2.0 * lam * (s - y))) / (2.0 * lam)
        cont = ~is_atom
        a[cont] = a_cont
        b[cont] = s - a_cont - y
    return TripleBatch(sides, a, b, is_atom)


def sample_triple(p: ModelParams, y: float, t: float, seed=None) -> TripleDraw:
    """One exact draw from the (side, a, b) law."""
    batch = sample_triples(p, y, t, 1, seed)
    return TripleDraw(
        side="plus" if batch.sides[0] > 0 else "minus",
        a=float(batch.a[0]),
        b=float(batch.b[0]),
        atom=bool(batch.atom[0]),
    )
