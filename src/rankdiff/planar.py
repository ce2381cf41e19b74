"""The planar diffusion (X1, X2): Euler schemes for every driving system,
exact construction from the gap process, exact terminal sampling, and ranks.

Four systems of SDEs share the generator: the name-noise system "B", the two
intertwined systems "W" and "V", and an arbitrary square-root configuration
of the covariance matrix.  Each is read from one description, its per-state
unit blocks U[s] (the names from classifier.SYSTEMS), and both Euler kernels
step every system by one noise rule, m[s, i, 0] dz0 + m[s, i, 1] dz1 with
m[s] = volatilities x U[s].  All of them keep their raw driving increments
so any derived Brownian motion can be reconstructed after the fact; that is
the mechanism behind every path-identity test in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bangbang import YPath, TripleBatch, sample_triples, tanaka_residual_series
from .classifier import SYSTEMS, SqrtConfig, unit_blocks, volatilities
from .core import (InitialState, ModelParams, ParameterError, as_generator, check_counts, check_time_start,
                   sides)

SystemKind = Union[str, SqrtConfig]  # "B" | "W" | "V" | square-root config


# the named systems do not depend on the parameters: their unit blocks, built once
_NAMED = {name: unit_blocks(*angles) for name, angles in SYSTEMS.items()}


@dataclass(frozen=True)
class PlanarPath:
    """A planar trajectory with its raw driving increments."""

    params: ModelParams
    times: np.ndarray
    x1_values: np.ndarray
    x2_values: np.ndarray
    kind: str                      # "B", "W", "V", "custom", "skew"
    raw_increments: np.ndarray     # shape (n_steps, 2)
    unit: Optional[np.ndarray] = None  # the system's unit blocks U[s]; None for skew

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def y_values(self) -> np.ndarray:
        return self.x1_values - self.x2_values

    @property
    def v_values(self) -> np.ndarray:
        """Sum-noise path V(t) = X1 + X2 - (z + nu t)."""
        z = self.x1_values[0] + self.x2_values[0]
        return self.x1_values + self.x2_values - z - self.params.nu * self.times

    @property
    def up(self) -> np.ndarray:
        """Indicator of {X1 > X2} at the left grid points (ties count as down)."""
        return self.y_values[:-1] > 0

    def local_time(self) -> np.ndarray:
        return tanaka_residual_series(self.y_values)


@dataclass(frozen=True)
class NoiseBundle:
    """Reconstructed driving-noise increments of a planar path.

    dw1/dw2 are the increments of the difference-facing planar Brownian pair,
    dv1/dv2 those of the rank-facing pair.  Every other named Brownian motion
    is a fixed (rho, sigma) combination of these.
    """

    params: ModelParams
    times: np.ndarray
    dw1: np.ndarray
    dw2: np.ndarray
    dv1: np.ndarray
    dv2: np.ndarray

    def increments(self, name: str) -> np.ndarray:
        p = self.params
        table = {
            "W1": (self.dw1, 1.0, self.dw2, 0.0),
            "W2": (self.dw1, 0.0, self.dw2, 1.0),
            "V1": (self.dv1, 1.0, self.dv2, 0.0),
            "V2": (self.dv1, 0.0, self.dv2, 1.0),
            "W": (self.dw1, p.rho, self.dw2, p.sigma),
            "Wflat": (self.dw1, p.rho, self.dw2, -p.sigma),
            "U": (self.dw1, p.sigma, self.dw2, p.rho),
            "Uflat": (self.dw1, p.sigma, self.dw2, -p.rho),
            "V": (self.dv1, p.rho, self.dv2, p.sigma),
            "Vflat": (self.dv1, p.rho, self.dv2, -p.sigma),
            "Q": (self.dv1, p.sigma, self.dv2, p.rho),
            "Qflat": (self.dv1, p.sigma, self.dv2, -p.rho),
        }
        if name not in table:
            raise KeyError(f"unknown noise name {name!r}")
        a, ca, b, cb = table[name]
        return ca * a + cb * b

    def path(self, name: str) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.increments(name))])


def _system(kind: SystemKind) -> np.ndarray:
    """The unit blocks U[s] of a system."""
    if isinstance(kind, SqrtConfig):
        return kind.unit
    if isinstance(kind, str) and kind in _NAMED:
        return _NAMED[kind]
    raise ParameterError(f"system kind must be one of {tuple(_NAMED)} or a SqrtConfig, got {kind!r}")


def _step_units(path: PlanarPath) -> np.ndarray:
    """The unit block in force at each step, shape (n_steps, 2, 2)."""
    if path.unit is None:
        raise ParameterError(f"driving noise undefined for kind {path.kind!r}")
    return path.unit[path.up.astype(np.intp)]


def noise_bundle(path: PlanarPath) -> NoiseBundle:
    """Rebuild (W1, W2) and (V1, V2) increments of a B, W, V or custom path.

    Every system is system B driven by u = U[s] dz, its unit block in state s
    applied to the raw increments: dW1 = u0 up, -u1 down; dW2 = -u1 up, u0
    down; dV = (s dW1, -s dW2) with s = +1 up, -1 down.
    """
    up = path.up
    u = (_step_units(path) * path.raw_increments[:, None, :]).sum(axis=-1)
    dw1 = np.where(up, u[:, 0], -u[:, 1])
    dw2 = np.where(up, -u[:, 1], u[:, 0])
    s = sides(path.y_values[:-1])
    return NoiseBundle(path.params, path.times, dw1, dw2, s * dw1, -s * dw2)


def _projected_increments(path: PlanarPath, sign: float) -> np.ndarray:
    """Increments of the noise driving X1 + sign * X2, from the raw increments."""
    vol = volatilities(path.params.rho, path.params.sigma)[path.up.astype(np.intp)]
    m = vol[..., None] * _step_units(path)
    return ((m[:, 0] + sign * m[:, 1]) * path.raw_increments).sum(axis=1)


def gap_driver_increments(path: PlanarPath) -> np.ndarray:
    """Increments of the Brownian motion driving the difference X1 - X2.

    Feeding these into the one-dimensional Euler scheme reproduces the
    difference path exactly, step for step, for every system kind.
    """
    if path.kind == "skew":
        return path.raw_increments[:, 0]
    return _projected_increments(path, -1.0)


def sum_driver_increments(path: PlanarPath) -> np.ndarray:
    """Increments of the Brownian motion V driving the sum X1 + X2
    (X1 + X2 = z + nu t + V) of a B, W, V or custom path."""
    return _projected_increments(path, 1.0)


def gap_path_of(path: PlanarPath) -> YPath:
    """The difference process as a YPath (with its own local-time series)."""
    y = path.y_values
    return YPath(path.times.copy(), y.copy(), gap_driver_increments(path), tanaka_residual_series(y))


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------

def _step_table(kind: SystemKind, p: ModelParams, dt: float):
    """Per-state Euler step of a system: (drift, m).

    State s is 0 = down (x1 <= x2, ties included) or 1 = up.  A step is
    x_i + drift[i, s] + noise_i, with noise_i = m[s, i, 0] dz0 + m[s, i, 1] dz1
    and m[s] = volatilities x unit block U[s], the square root in state s.
    """
    drift = np.array([[p.g * dt, -p.h * dt], [-p.h * dt, p.g * dt]])
    return drift, volatilities(p.rho, p.sigma)[..., None] * _system(kind)


def euler_simulate(kind: SystemKind, p: ModelParams, s0: InitialState, T: float,
                   n_steps: int, seed=None, *, increments=None) -> PlanarPath:
    """Euler path of the chosen system; coefficients held constant per step.

    The indicator of {X1 > X2} is evaluated with the tie convention
    sign(0) = -1, so the diagonal belongs to the down state.  `increments`
    (shape (n_steps, 2)) overrides the raw driving noise.
    """
    check_time_start(T)
    check_counts(n_steps=n_steps)
    dt = T / n_steps
    drift, m = _step_table(kind, p, dt)
    if increments is None:
        rng = as_generator(seed)
        increments = rng.standard_normal((n_steps, 2)) * np.sqrt(dt)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, 2):
            raise ParameterError("increments must have shape (n_steps, 2)")
    # each coordinate's noise in each state at every step, noise[s, i, k]; as in
    # the batch, a state without noise adds -0.0, the identity of +
    (n1_dn, n2_dn), (n1_up, n2_up) = np.where(
        m.any(axis=-1)[..., None],
        m[..., 0, None] * increments[:, 0] + m[..., 1, None] * increments[:, 1], -0.0).tolist()
    (d1_dn, d1_up), (d2_dn, d2_up) = drift.tolist()
    x1, x2 = float(s0.x1), float(s0.x2)
    xs1, xs2 = [x1], [x2]
    for a_dn, a_up, b_dn, b_up in zip(n1_dn, n1_up, n2_dn, n2_up):
        if x1 > x2:
            x1, x2 = x1 + d1_up + a_up, x2 + d2_up + b_up
        else:
            x1, x2 = x1 + d1_dn + a_dn, x2 + d2_dn + b_dn
        xs1.append(x1)
        xs2.append(x2)
    times = np.linspace(0.0, T, n_steps + 1)
    tag = "custom" if isinstance(kind, SqrtConfig) else kind
    return PlanarPath(p, times, np.array(xs1), np.array(xs2), tag, increments, _system(kind))


def euler_terminal_batch(kind: SystemKind, p: ModelParams, s0: InitialState, t: float,
                         n_steps: int, n_paths: int, seed=None):
    """Terminal draws (X1(t), X2(t)) of n_paths Euler paths, vectorized; for every
    system with n_paths = 1, the end of the path euler_simulate draws from the same seed."""
    check_time_start(t)
    check_counts(n_steps=n_steps, n_paths=n_paths)
    rng = as_generator(seed)
    dt = t / n_steps
    sq = np.sqrt(dt)
    drift, m = _step_table(kind, p, dt)
    # noise[i, s], coordinate i's noise in state s, sums the products m[s, i, j] dz_j
    # with a nonzero coefficient: one with an exact zero coefficient adds an exact
    # +-0 to the other, so B, W and V keep one multiply per state, and a state
    # without noise keeps -0.0, the identity of +
    terms = [[[(m[s, i, j], j) for j in (0, 1) if m[s, i, j] != 0] for s in (0, 1)] for i in (0, 1)]
    x1, x2 = np.full(n_paths, float(s0.x1)), np.full(n_paths, float(s0.x2))
    dz, noise = np.empty((2, n_paths)), np.full((2, 2, n_paths), -0.0)
    s, pick = np.empty(n_paths, dtype=np.intp), np.empty(n_paths, dtype=np.intp)
    buf, lanes = np.empty(n_paths), np.arange(n_paths)
    for _ in range(n_steps):
        rng.standard_normal(out=dz)  # row-major fill: the same stream as dz1 then dz2
        dz *= sq
        np.greater(x1, x2, out=s)
        np.multiply(s, n_paths, out=pick)
        pick += lanes
        for i, x in enumerate((x1, x2)):
            # mode="clip" is np.take's fast path; every index here is in range
            x += np.take(drift[i], s, out=buf, mode="clip")
            for row, products in zip(noise[i], terms[i]):
                for k, (c, j) in enumerate(products):
                    if k:
                        row += np.multiply(c, dz[j], out=buf)
                    else:
                        np.multiply(c, dz[j], out=row)
            x += np.take(noise[i], pick, out=buf, mode="clip")
    return x1, x2


# ---------------------------------------------------------------------------
# exact construction and exact sampling
# ---------------------------------------------------------------------------

def _skew(p: ModelParams, s0: InitialState, t, yp, ym, el, q):
    """The skew formula: (X1, X2) at times t from the gap's positive and
    negative parts yp, ym, its local time el and the independent noise q."""
    yp0, ym0 = max(s0.y, 0.0), max(-s0.y, 0.0)
    r2, s2 = p.rho**2, p.sigma**2
    common = p.mu * t - p.gamma * el + p.rho * p.sigma * q
    x1 = s0.x1 + common + r2 * (yp - yp0) - s2 * (ym - ym0)
    x2 = s0.x2 + common - s2 * (yp - yp0) + r2 * (ym - ym0)
    return x1, x2


def skew_construct(p: ModelParams, s0: InitialState, ypath: YPath, q_increments) -> PlanarPath:
    """Assemble (X1, X2) from a gap path, its local time, and independent noise.

    X1 = x1 + mu t + rho^2 (Y+ - y+) - sigma^2 (Y- - y-) - gamma L + rho sigma Q
    and the mirrored expression for X2.  In the isotropic case the local-time
    coefficient vanishes; with sigma = 0 the Q term vanishes.
    """
    q_increments = np.asarray(q_increments, dtype=float)
    if q_increments.shape != ypath.w_increments.shape:
        raise ParameterError("q_increments must match the gap path's step count")
    if abs(ypath.y_values[0] - s0.y) > 1e-12:
        raise ParameterError("gap path initial value does not match the initial state")
    t = ypath.times
    y = ypath.y_values
    q = np.concatenate([[0.0], np.cumsum(q_increments)])
    x1, x2 = _skew(p, s0, t, np.maximum(y, 0.0), np.maximum(-y, 0.0), ypath.l_values, q)
    raw = np.column_stack([ypath.w_increments, q_increments])
    return PlanarPath(p, t.copy(), x1, x2, "skew", raw)


@dataclass(frozen=True)
class TerminalSample:
    """Exact draws of (X1(t), X2(t)) with the generating triple attached."""

    x1: np.ndarray
    x2: np.ndarray
    triples: TripleBatch

    @property
    def atom_fraction(self) -> float:
        return float(self.triples.atom.mean())


def exact_sample_terminal(p: ModelParams, s0: InitialState, t: float, n_draws: int, seed=None) -> TerminalSample:
    """Exact-in-distribution draws of (X1(t), X2(t)); no time-stepping error.

    A start with x1 < x2 is handled by relabeling the particles before
    sampling and swapping the outputs back, which is a symmetry of the model.
    """
    if s0.y < 0:
        flipped = exact_sample_terminal(p, s0.swapped(), t, n_draws, seed)
        return TerminalSample(flipped.x2, flipped.x1, flipped.triples)
    rng = as_generator(seed)
    trip = sample_triples(p, s0.y, t, n_draws, rng)
    theta = rng.standard_normal(n_draws) * np.sqrt(t)
    plus = trip.sides > 0
    x1, x2 = _skew(p, s0, t, np.where(plus, trip.a, 0.0), np.where(plus, 0.0, trip.a),
                   trip.b / 2.0, theta)
    return TerminalSample(x1, x2, trip)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def ranks(path: PlanarPath):
    """Pointwise (max, min) of the two coordinates."""
    return np.maximum(path.x1_values, path.x2_values), np.minimum(path.x1_values, path.x2_values)


def rank_residuals(path: PlanarPath):
    """Residuals of the rank dynamics against the reconstructed noises.

    res1 = R1 - (r1 - h t + rho V1 + L),  res2 = R2 - (r2 + g t + sigma V2 - L),
    with V1, V2 rebuilt from the stored increments and L the pathwise
    local-time estimate of the difference.  In this discretization the
    identities are exact up to float roundoff.
    """
    p = path.params
    r1_series, r2_series = ranks(path)
    b = noise_bundle(path)
    v1, v2 = b.path("V1"), b.path("V2")
    el = path.local_time()
    t = path.times
    r1_0 = max(path.x1_values[0], path.x2_values[0])
    r2_0 = min(path.x1_values[0], path.x2_values[0])
    res1 = r1_series - (r1_0 - p.h * t + p.rho * v1 + el)
    res2 = r2_series - (r2_0 + p.g * t + p.sigma * v2 - el)
    return res1, res2
