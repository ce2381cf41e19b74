"""The planar diffusion (X1, X2): Euler schemes for every driving system,
exact construction from the gap process, exact terminal sampling, and ranks.

Four systems of SDEs share the generator: the name-noise system "B", the two
intertwined systems "W" and "V", and an arbitrary square-root configuration
of the covariance matrix.  All of them keep their raw driving increments so
any derived Brownian motion can be reconstructed after the fact; that is the
mechanism behind every path-identity test in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bangbang import YPath, TripleBatch, sample_triples, tanaka_residual_series
from .classifier import SqrtConfig
from .core import InitialState, ModelParams, ParameterError, as_generator

SystemKind = Union[str, SqrtConfig]  # "B" | "W" | "V" | square-root config

_NAMED_KINDS = ("B", "W", "V")


@dataclass(frozen=True)
class PlanarPath:
    """A planar trajectory with its raw driving increments."""

    params: ModelParams
    times: np.ndarray
    x1_values: np.ndarray
    x2_values: np.ndarray
    kind: str                      # "B", "W", "V", "custom", "skew"
    raw_increments: np.ndarray     # shape (n_steps, 2)
    config: Optional[SqrtConfig] = None

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


def noise_bundle(path: PlanarPath) -> NoiseBundle:
    """Rebuild (W1, W2) and (V1, V2) increments from a named-system path."""
    up = path.up
    r1, r2 = path.raw_increments[:, 0], path.raw_increments[:, 1]
    if path.kind == "B":
        dw1 = np.where(up, r1, -r2)
        dw2 = np.where(up, -r2, r1)
        dv1 = np.where(up, r1, r2)
        dv2 = np.where(up, r2, r1)
    elif path.kind == "W":
        dw1, dw2 = r1, r2
        s = np.where(up, 1.0, -1.0)
        dv1, dv2 = s * r1, -s * r2
    elif path.kind == "V":
        dv1, dv2 = r1, r2
        s = np.where(up, 1.0, -1.0)
        dw1, dw2 = s * r1, -s * r2
    else:
        raise ParameterError(f"noise bundle undefined for kind {path.kind!r}")
    return NoiseBundle(path.params, path.times, dw1, dw2, dv1, dv2)


def gap_driver_increments(path: PlanarPath) -> np.ndarray:
    """Increments of the Brownian motion driving the difference X1 - X2.

    Feeding these into the one-dimensional Euler scheme reproduces the
    difference path exactly, step for step, for every system kind.
    """
    if path.kind in _NAMED_KINDS:
        b = noise_bundle(path)
        return b.increments("W")
    if path.kind == "custom":
        cfg = path.config
        e_plus = cfg.sigma_plus[0] - cfg.sigma_plus[1]
        e_minus = cfg.sigma_minus[0] - cfg.sigma_minus[1]
        coeff = np.where(path.up[:, None], e_plus[None, :], e_minus[None, :])
        return (coeff * path.raw_increments).sum(axis=1)
    if path.kind == "skew":
        return path.raw_increments[:, 0]
    raise ParameterError(f"no gap driver for kind {path.kind!r}")


def gap_path_of(path: PlanarPath) -> YPath:
    """The difference process as a YPath (with its own local-time series)."""
    y = path.y_values
    return YPath(path.times.copy(), y.copy(), gap_driver_increments(path), tanaka_residual_series(y))


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------

def _step_table(kind: SystemKind, p: ModelParams, dt: float):
    """Per-state Euler step of a system: (drift, coef, src), row i for X_{i+1}.

    Column s is the state: 0 = down (x1 <= x2, ties included), 1 = up.  A step
    is x_i + drift[i, s] + noise_i.  B, W and V are signed permutations,
    noise_i = coef[i, s] * dz[src[i, s]]; a custom square root has two terms,
    noise_i = coef[i, 0, s] * dz[0] + coef[i, 1, s] * dz[1], and src is None.
    """
    g, h, rho, sg = p.g, p.h, p.rho, p.sigma
    drift = np.array([[g * dt, -h * dt], [-h * dt, g * dt]])
    if isinstance(kind, SqrtConfig):
        return drift, np.stack([kind.sigma_minus, kind.sigma_plus], axis=-1), None
    if kind not in _NAMED_KINDS:
        raise ParameterError(f"system kind must be one of {_NAMED_KINDS} or a SqrtConfig, got {kind!r}")
    coef = [[sg, rho], [-rho, -sg] if kind == "W" else [rho, sg]]
    src = [[0, 0], [1, 1]] if kind == "B" else [[1, 0], [0, 1]]
    return drift, np.array(coef), np.array(src, dtype=np.intp)


def euler_simulate(kind: SystemKind, p: ModelParams, s0: InitialState, T: float,
                   n_steps: int, seed=None, *, increments=None) -> PlanarPath:
    """Euler path of the chosen system; coefficients held constant per step.

    The indicator of {X1 > X2} is evaluated with the tie convention
    sign(0) = -1, so the diagonal belongs to the down state.  `increments`
    (shape (n_steps, 2)) overrides the raw driving noise.
    """
    if not T > 0 or n_steps < 1:
        raise ParameterError("require T > 0 and n_steps >= 1")
    dt = T / n_steps
    drift, coef, src = _step_table(kind, p, dt)
    if increments is None:
        rng = as_generator(seed)
        increments = rng.standard_normal((n_steps, 2)) * np.sqrt(dt)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps, 2):
            raise ParameterError("increments must have shape (n_steps, 2)")
    d1, d2 = drift.tolist()
    if src is None:  # a 2x2 matmul rounds differently from two products and a sum
        sig = (kind.sigma_minus, kind.sigma_plus)
    else:
        (c1, c2), (j1, j2) = coef.tolist(), src.tolist()
    x1, x2 = float(s0.x1), float(s0.x2)
    xs1, xs2 = [x1], [x2]
    for k, dz in enumerate(increments.tolist()):
        s = x1 > x2
        if src is None:
            n1, n2 = (sig[s] @ increments[k]).tolist()
        else:
            n1, n2 = c1[s] * dz[j1[s]], c2[s] * dz[j2[s]]
        x1, x2 = x1 + d1[s] + n1, x2 + d2[s] + n2
        xs1.append(x1)
        xs2.append(x2)
    times = np.linspace(0.0, T, n_steps + 1)
    tag, cfg = ("custom", kind) if src is None else (kind, None)
    return PlanarPath(p, times, np.array(xs1), np.array(xs2), tag, increments, cfg)


def euler_terminal_batch(kind: SystemKind, p: ModelParams, s0: InitialState, t: float,
                         n_steps: int, n_paths: int, seed=None):
    """Terminal draws (X1(t), X2(t)) of n_paths Euler paths, vectorized; for B, W
    and V with n_paths = 1, the end of the path euler_simulate draws from the same seed."""
    if not t > 0 or n_steps < 1 or n_paths < 1:
        raise ParameterError("require t > 0, n_steps >= 1 and n_paths >= 1")
    rng = as_generator(seed)
    dt = t / n_steps
    sq = np.sqrt(dt)
    drift, coef, src = _step_table(kind, p, dt)
    x1, x2 = np.full(n_paths, float(s0.x1)), np.full(n_paths, float(s0.x2))
    dz, noise = np.empty((2, n_paths)), np.empty((2, n_paths))  # noise[s]: noise in state s
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
            for state in (0, 1):
                if src is None:
                    np.multiply(coef[i, 0, state], dz[0], out=noise[state])
                    noise[state] += np.multiply(coef[i, 1, state], dz[1], out=buf)
                else:
                    np.multiply(coef[i, state], dz[src[i, state]], out=noise[state])
            x += np.take(noise, pick, out=buf, mode="clip")
    return x1, x2


# ---------------------------------------------------------------------------
# exact construction and exact sampling
# ---------------------------------------------------------------------------

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
    el = ypath.l_values
    q = np.concatenate([[0.0], np.cumsum(q_increments)])
    yp, ym = np.maximum(y, 0.0), np.maximum(-y, 0.0)
    yp0, ym0 = max(s0.y, 0.0), max(-s0.y, 0.0)
    r2, s2 = p.rho**2, p.sigma**2
    common = p.mu * t - p.gamma * el + p.rho * p.sigma * q
    x1 = s0.x1 + common + r2 * (yp - yp0) - s2 * (ym - ym0)
    x2 = s0.x2 + common - s2 * (yp - yp0) + r2 * (ym - ym0)
    raw = np.column_stack([ypath.w_increments, q_increments])
    return PlanarPath(p, t.copy(), x1, x2, "skew", raw)


@dataclass(frozen=True)
class TerminalSample:
    """Exact draws of (X1(t), X2(t)) with the generating triple attached."""

    x1: np.ndarray
    x2: np.ndarray
    triples: TripleBatch

    def __len__(self):
        return len(self.x1)

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
    yp = np.where(plus, trip.a, 0.0)
    ym = np.where(plus, 0.0, trip.a)
    yp0, ym0 = max(s0.y, 0.0), max(-s0.y, 0.0)
    r2, s2 = p.rho**2, p.sigma**2
    common = p.mu * t - p.gamma * (trip.b / 2.0) + p.rho * p.sigma * theta
    x1 = s0.x1 + common + r2 * (yp - yp0) - s2 * (ym - ym0)
    x2 = s0.x2 + common - s2 * (yp - yp0) + r2 * (ym - ym0)
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


def skorokhod_gap_local_time(path: PlanarPath) -> np.ndarray:
    """2 L(t) of the difference via the reflection running-max formula,
    driven by V_flat reconstructed from the stored noise."""
    p = path.params
    b = noise_bundle(path)
    v_flat = b.path("Vflat")
    slack = abs(path.y_values[0]) + v_flat - p.lam * path.times
    return np.maximum.accumulate(np.maximum(-slack, 0.0))
