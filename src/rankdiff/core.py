"""Model parameters, derived constants, initial states, and seeding.

Everything downstream is parametrized by four nonnegative rates/volatilities
(g, h, rho, sigma) normalized so that rho^2 + sigma^2 = 1, with g + h > 0.
The leader of the two particles gets drift -h and volatility rho, the laggard
gets drift +g and volatility sigma.  All value types here are immutable and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-12
BLOCK_CELLS = 1 << 16  # cells per row block of the blocked grids and scans: 512 KB of float64


class ParameterError(ValueError):
    """A model parameter violates one of its declared constraints."""


def sign(x):
    """Signum with the tie convention sign(0) = -1.

    Accepts scalars or arrays; returns +1.0 where x > 0 and -1.0 where x <= 0.
    Never returns 0.  Non-finite input is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("sign: input must be finite")
    return scalar_or_array(np.where(arr > 0.0, 1.0, -1.0), x)


def check_time_start(t, *starts) -> None:
    """Entry check of every time-t law and path kernel: a finite time (or
    horizon) t > 0 and finite starts, each a scalar or an array."""
    if not (math.isfinite(t) and t > 0):
        raise ParameterError("require a finite t > 0")
    check_finite("the start", *starts)


def check_finite(what: str, *xs) -> None:
    """Raise ParameterError naming `what` unless each x, a scalar or an
    array, is finite: one test per argument, not per point."""
    for x in xs:  # math.isfinite on floats: np.isfinite costs microseconds per scalar
        if not (math.isfinite(x) if isinstance(x, (int, float)) else np.all(np.isfinite(x))):
            raise ParameterError(f"{what} must be finite")


def check_counts(**counts) -> None:
    """Entry check of every kernel that takes step, path or repetition counts: each >= 1."""
    if any(n < 1 for n in counts.values()):
        raise ParameterError("require " + " and ".join(f"{name} >= 1" for name in counts))


def scalar_or_array(out, *args):
    """The package's return rule: a Python float when every array argument
    in args is 0-d, else out, the ndarray."""
    if all(np.ndim(a) == 0 for a in args):
        return float(np.asarray(out).item())
    return out


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set with all derived constants.

    lam = g + h           total drift intensity of the gap process
    nu = g - h            drift of the sum process
    gamma = rho^2-sigma^2 variance asymmetry; 0 in the isotropic case
    mixing_delta = 2*rho*sigma
    mu = g*rho^2 - h*sigma^2
    """

    g: float
    h: float
    rho: float
    sigma: float
    lam: float = field(init=False)
    nu: float = field(init=False)
    gamma: float = field(init=False)
    mixing_delta: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", self.g + self.h)
        object.__setattr__(self, "nu", self.g - self.h)
        object.__setattr__(self, "gamma", self.rho * self.rho - self.sigma * self.sigma)
        object.__setattr__(self, "mixing_delta", 2.0 * self.rho * self.sigma)
        object.__setattr__(self, "mu", self.g * (self.rho * self.rho) - self.h * (self.sigma * self.sigma))

    @property
    def is_isotropic(self) -> bool:
        return abs(self.gamma) <= NORMALIZATION_TOL

    @property
    def is_degenerate(self) -> bool:
        return self.rho * self.sigma == 0.0

    def swapped(self) -> "ModelParams":
        """Parameters of the spatially flipped model (g<->h, rho<->sigma)."""
        return validate_params(self.h, self.g, self.sigma, self.rho)


def validate_params(g, h, rho, sigma, renormalize: bool = False) -> ModelParams:
    """Validate raw inputs and build a ModelParams.

    Rejects non-finite values, negative rates, g + h = 0, and any violation of
    rho^2 + sigma^2 = 1 beyond 1e-12.  Inputs are never silently rescaled;
    pass renormalize=True to divide (rho, sigma) by their Euclidean norm.
    """
    vals = [float(g), float(h), float(rho), float(sigma)]
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError("parameters must be finite")
    g, h, rho, sigma = vals
    if g < 0 or h < 0:
        raise ParameterError("rates must be nonnegative: g >= 0, h >= 0")
    if g + h <= 0:
        raise ParameterError("g+h>0 violated")
    if rho < 0 or sigma < 0:
        raise ParameterError("volatilities must be nonnegative: rho >= 0, sigma >= 0")
    norm2 = rho * rho + sigma * sigma  # x * x, as the classifier's array sweep squares
    if renormalize:
        if norm2 <= 0:
            raise ParameterError("cannot renormalize rho = sigma = 0")
        r = math.sqrt(norm2)
        rho, sigma = rho / r, sigma / r
        norm2 = rho * rho + sigma * sigma
    if abs(norm2 - 1.0) > NORMALIZATION_TOL:
        raise ParameterError(
            f"normalization rho^2+sigma^2=1 violated (got {norm2!r}); "
            "pass renormalize=True to rescale explicitly"
        )
    return ModelParams(g, h, rho, sigma)


@dataclass(frozen=True)
class InitialState:
    """Initial positions of the two particles, with derived coordinates."""

    x1: float
    x2: float
    y: float = field(init=False)
    z: float = field(init=False)
    r1: float = field(init=False)
    r2: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ParameterError("initial positions must be finite")
        object.__setattr__(self, "y", self.x1 - self.x2)
        object.__setattr__(self, "z", self.x1 + self.x2)
        object.__setattr__(self, "r1", max(self.x1, self.x2))
        object.__setattr__(self, "r2", min(self.x1, self.x2))

    def swapped(self) -> "InitialState":
        return InitialState(self.x2, self.x1)


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based RNG key: (master_seed, stream_id) -> independent stream.

    Streams are Philox-keyed directly, so draw k of stream s under master seed
    m is the same number no matter how work is scheduled across workers.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ParameterError("master_seed must fit in 64 bits")
        if int(self.stream_id) < 0:
            raise ParameterError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def stream(self, offset: int) -> "SeedSpec":
        """Sub-stream for worker/batch `offset`; independent of scheduling."""
        return SeedSpec(self.master_seed, self.stream_id + offset)


def as_generator(seed) -> np.random.Generator:
    """Accept a SeedSpec, an int master seed, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.generator()
    if seed is None:
        return SeedSpec(np.random.SeedSequence().generate_state(1, np.uint64)[0].item()).generator()
    return SeedSpec(int(seed)).generator()
