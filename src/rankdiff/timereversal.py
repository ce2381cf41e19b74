"""Time reversal of the gap diffusion: score function, backward drift,
backward simulation, its comparison with the forward law, and the
steady-state backward rank dynamics check.

The reversed process solves dYhat = bhat(T - s, Yhat) ds + dW# with
bhat(tau, xi) = lam*sign(xi) + d/dxi log p_tau(y0, xi).  The score q is the
analytic derivative of the closed-form transition density, evaluated in
log-space because its tail terms underflow long before q itself degenerates.
In steady state the backward drift collapses to -lam*sign(xi) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bangbang import gap_euler_step, sample_terminal_exact, tanaka_residual_series
from .core import (ModelParams, ParameterError, SeedSpec, as_generator, check_counts, check_time_start,
                   points, scalar_or_array, sides)
from .harness import ks_two_sample
from .planar import PlanarPath, noise_bundle, ranks
from .tails import log_gauss_tail, log_norm_sf, norm_sf

DRIFT_CLAMP = 10.0  # |bhat| <= DRIFT_CLAMP / dt on the final backward steps


def _origin_ratio(p: ModelParams, tau: float, xi):
    """(the points xi, num / den) of the two y0 = 0 displays, in a = |xi|:
    the plain form, and the same ratio in log space where a term of den is
    subnormal or zero (a subnormal term keeps few digits)."""
    check_time_start(tau)
    lam, xi = p.lam, points(xi)
    a = np.abs(xi)

    def terms(a, phi, expo, tail):
        return (2.0 * lam + a / tau) * phi + 2.0 * lam**2 * expo * tail, phi + lam * expo * tail

    phi = np.exp(-((a + lam * tau) ** 2) / (2.0 * tau)) / np.sqrt(2.0 * np.pi * tau)
    expo, tail = np.exp(-2.0 * lam * a), norm_sf((a - lam * tau) / np.sqrt(tau))
    num, den = terms(a, phi, expo, tail)
    under = np.minimum(phi, lam * expo * tail) < np.finfo(float).tiny
    if np.any(under):  # both terms scaled by sqrt(2 pi tau), then by their maximum
        au = a[under]
        log_phi = -((au + lam * tau) ** 2) / (2.0 * tau)
        log_tail = -2.0 * lam * au + log_gauss_tail(au, lam * tau, tau)
        top = np.maximum(log_phi, log_tail)
        num[under], den[under] = terms(au, np.exp(log_phi - top), 1.0, np.exp(log_tail - top))
    return xi, num / den


def q_closed_form_origin(p: ModelParams, tau: float, xi):
    """Score for a start at the origin, via the displayed closed form.

    Stated for xi <= 0 and extended to xi > 0 by oddness; intended as a
    cross-check on moderate |xi|.
    """
    x, ratio = _origin_ratio(p, tau, xi)
    return scalar_or_array(-sides(x) * ratio, xi)


def backward_drift_display_origin(p: ModelParams, tau: float, xi):
    """The explicit y0 = 0 backward-drift display, exactly as printed.

    Its sign placement is only consistent with the generic score for xi > 0;
    the reconciled drift for all xi is backward_drift(..., y0=0).
    """
    x, ratio = _origin_ratio(p, tau, xi)
    return scalar_or_array(sides(x) * p.lam - ratio, xi)


def q_function(p: ModelParams, y0: float, tau: float, xi):
    """Score q(tau, xi) = d/dxi log p_tau(y0, xi), vectorized over xi.

    One expression in a = |xi| with s = sign(xi) (sign(0) = -1) in front of y0,
    as in the density it differentiates, taken in log space with a shift for
    stability; a start y0 < 0 is the mirror image, q(y0, xi) = -q(-y0, -xi).
    At y0 = 0 it matches q_closed_form_origin to 1e-8 where |xi| <= lam tau + 20 sqrt(tau).
    """
    check_time_start(tau, y0)
    lam, tau = p.lam, float(tau)
    xi_arr = points(xi)
    flip = -1.0 if y0 < 0 else 1.0
    y, a = flip * float(y0), np.abs(xi_arr)
    s = sides(flip * xi_arr)
    # each shared term once and each temporary updated in place, in the
    # order of the plain expressions, so that every value rounds as they do
    u = s * y  # a - s y + lam tau: log_t1 and c1
    np.subtract(a, u, out=u)
    u += lam * tau
    d = y + a  # (y + a) - lam tau: the Gaussian tail and log_h
    d -= lam * tau
    log_h = np.log(lam) - 2.0 * lam * a  # also the head of log_t2
    log_t2 = log_norm_sf(d / np.sqrt(tau))  # log_t2 = head + log_gauss_tail(y + a, lam tau, tau)
    log_t2 += 0.5 * np.log(2.0 * np.pi * tau)
    log_t2 += log_h
    d **= 2
    d /= 2.0 * tau
    log_h -= d
    c1 = u / tau
    log_t1 = 1.0 - s  # (1 - s) lam y - u^2 / (2 tau)
    log_t1 *= lam
    log_t1 *= y
    u **= 2
    u /= 2.0 * tau
    log_t1 -= u
    m = np.maximum(log_t1, log_t2)
    t1, t2, hh = (np.exp(np.subtract(v, m, out=v), out=v) for v in (log_t1, log_t2, log_h))
    c1 *= t1  # c1 t1 + 2 lam t2 + hh over t1 + t2
    c1 += 2.0 * lam * t2
    c1 += hh
    t1 += t2
    return scalar_or_array(-flip * s * c1 / t1, xi)


def backward_drift(p: ModelParams, y0: float, tau: float, xi, mode: str = "transient"):
    """Drift of the time-reversed gap process.

    transient: lam*sign(xi) + q(tau, xi) for the horizon started at y0;
    steady_state: exactly -lam*sign(xi), independent of tau and y0.
    """
    sgn = sides(points(xi))
    if mode == "steady_state":
        return scalar_or_array(-p.lam * sgn, xi)
    if mode != "transient":
        raise ParameterError("mode must be 'transient' or 'steady_state'")
    return scalar_or_array(p.lam * sgn + q_function(p, y0, tau, xi), xi)


@dataclass(frozen=True)
class BackwardDriftSpec:
    """What to reverse: parameters, forward start, horizon, and mode."""

    params: ModelParams
    y0: float
    T: float
    mode: str = "transient"

    def __post_init__(self):
        check_time_start(self.T, self.y0)
        if self.mode not in ("transient", "steady_state"):
            raise ParameterError("mode must be 'transient' or 'steady_state'")


def simulate_backward(spec: BackwardDriftSpec, yT_draws, n_steps: int, seed=None,
                      record_times: Optional[Sequence[float]] = None):
    """Euler scheme for the reversed gap process from terminal draws.

    yT_draws must come from the forward time-T law (or the invariant law in
    steady-state mode).  The drift is evaluated at time-to-go tau = T - s and
    clamped at DRIFT_CLAMP/dt: near s = T the transient drift develops an
    integrable bridge-type singularity that a raw Euler step can overshoot.

    Returns (times, values) where values[k] holds all paths at times[k];
    record_times defaults to the full grid.  The scheme stops at the last
    recorded grid step: later steps would draw noise no row uses, so an
    empty record_times runs no step.
    """
    check_counts(n_steps=n_steps)
    rng = as_generator(seed)
    y = np.array(yT_draws, dtype=float, copy=True)
    check_time_start(spec.T, y)  # the terminal draws start the backward paths
    n_paths = y.shape[0]
    dt = spec.T / n_steps
    sq = np.sqrt(dt)
    clamp = DRIFT_CLAMP / dt
    if record_times is None:
        rec_idx = np.arange(n_steps + 1)
    else:
        idx = np.round(np.asarray(record_times, dtype=float) / dt)
        if not np.all((idx >= 0) & (idx <= n_steps)):  # NaN fails both
            raise ParameterError(f"record_times must be finite grid times in [0, {spec.T!r}]")
        rec_idx = np.unique(idx.astype(int))
    out = np.empty((len(rec_idx), n_paths))
    pos = {k: i for i, k in enumerate(rec_idx)}
    if 0 in pos:
        out[pos[0]] = y
    p = spec.params
    z = np.empty(n_paths)
    for k in range(rec_idx.max(initial=0)):  # in place, y <- (y + b dt) + z sqrt(dt)
        b = backward_drift(p, spec.y0, spec.T - k * dt, y, mode=spec.mode)
        np.clip(b, -clamp, clamp, out=b)
        y += np.multiply(b, dt, out=b)
        y += np.multiply(rng.standard_normal(out=z), sq, out=z)
        if (k + 1) in pos:
            out[pos[k + 1]] = y
    return rec_idx * dt, out


def reversal_ks(spec: BackwardDriftSpec, n_steps: int, n_paths: int, seed: SeedSpec):
    """(t_check, ks): KS distance between the forward gap law and the law of
    the reversed simulation, both read at grid time t_check.

    The forward paths take k = n_steps // 2 Euler steps of T / n_steps on
    stream 0 of seed, from the invariant Laplace law in steady state and
    from y0 otherwise.  The reversed paths start from time-T draws on stream
    1 (the Laplace law again, or sample_terminal_exact), run on stream 2,
    and are read n_steps - k steps back from T, so t_check = k T / n_steps
    (T / 2 for even n_steps).
    """
    check_counts(n_steps=n_steps, n_paths=n_paths)
    p, T = spec.params, spec.T
    steady = spec.mode == "steady_state"
    rng = seed.stream(0).generator()
    y = rng.laplace(0.0, 1.0 / (2 * p.lam), n_paths) if steady else np.full(n_paths, spec.y0)
    k, dt = n_steps // 2, T / n_steps
    for _ in range(k):
        gap_euler_step(y, p.lam, dt, rng.standard_normal(n_paths) * np.sqrt(dt))
    if steady:
        y_term = seed.stream(1).generator().laplace(0.0, 1.0 / (2 * p.lam), n_paths)
    else:
        y_term = sample_terminal_exact(p, T, spec.y0, n_paths, seed.stream(1))
    _, rec = simulate_backward(spec, y_term, n_steps, seed.stream(2),
                               record_times=[(n_steps - k) * T / n_steps])
    t_check = T / 2 if n_steps % 2 == 0 else k * T / n_steps
    return t_check, ks_two_sample(y, rec[-1])


# ---------------------------------------------------------------------------
# steady-state backward rank dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankReversalReport:
    """Residual statistics of the steady-state backward rank dynamics."""

    drift1: float        # h - 2 (g+h) rho^2
    drift2: float        # 2 (g+h) sigma^2 - g
    lt_coeff1: float     # (4 rho^2 - 1) / 2, applied to the rank-gap local time
    lt_coeff2: float     # (4 sigma^2 - 1) / 2
    rms1: float
    rms2: float
    n_paths: int
    dt: float


def backward_rank_drift_report(p: ModelParams, paths: Sequence[PlanarPath]) -> RankReversalReport:
    """Check the displayed steady-state backward rank dynamics pathwise.

    For each forward path (started from the invariant gap law), reverse time,
    reconstruct the backward rank noises from the stored increments with the
    steady-state score -2 lam sign, and measure the terminal residuals of

      Rhat1 - Rhat1(0) = drift1 * t + rho * V1# + lt_coeff1 * L^{rank gap}
      Rhat2 - Rhat2(0) = drift2 * t + sigma * V2# - lt_coeff2 * L^{rank gap}.
    """
    lam = p.lam
    drift1 = p.h - 2.0 * lam * p.rho**2
    drift2 = 2.0 * lam * p.sigma**2 - p.g
    c1 = (4.0 * p.rho**2 - 1.0) / 2.0
    c2 = (4.0 * p.sigma**2 - 1.0) / 2.0
    sq1 = sq2 = 0.0
    n = 0
    dt = None
    for path in paths:
        dt = path.dt
        t = path.times
        b = noise_bundle(path)
        dw = b.increments("W")
        dq = b.increments("Q")
        y = path.y_values
        el = tanaka_residual_series(y)
        r1, r2 = ranks(path)
        # reversed series; backward-left endpoints are forward-right ones
        y_rev = y[::-1]
        s_rev = sides(y_rev[:-1])
        dv_sharp = s_rev * (-dw[::-1]) + 2.0 * lam * dt
        v_sharp = np.concatenate([[0.0], np.cumsum(dv_sharp)])
        q_tilde = np.concatenate([[0.0], np.cumsum(-dq[::-1])])
        v1_sharp = p.rho * v_sharp + p.sigma * q_tilde
        v2_sharp = p.rho * q_tilde - p.sigma * v_sharp
        el_rev = el[-1] - el[::-1]
        rank_gap_lt = 2.0 * el_rev      # local time of |Yhat| = Rhat1 - Rhat2
        r1h, r2h = r1[::-1], r2[::-1]
        res1 = (r1h - r1h[0]) - (drift1 * t + p.rho * v1_sharp + c1 * rank_gap_lt)
        res2 = (r2h - r2h[0]) - (drift2 * t + p.sigma * v2_sharp - c2 * rank_gap_lt)
        sq1 += res1[-1] ** 2
        sq2 += res2[-1] ** 2
        n += 1
    if n == 0:
        raise ParameterError("need at least one path")
    return RankReversalReport(drift1, drift2, c1, c2,
                              float(np.sqrt(sq1 / n)), float(np.sqrt(sq2 / n)), n, dt)
