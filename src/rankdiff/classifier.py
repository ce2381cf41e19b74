"""Square roots of the rank-based covariance matrix and the strength test.

The local covariance is diag(rho^2, sigma^2) on {x1 > x2} and
diag(sigma^2, rho^2) on {x1 <= x2}.  Its real square roots form a continuum
parametrized by two signs and two rotation angles.  A configuration yields a
strongly solvable system unless its two half-plane diffusion vectors for the
difference point in exactly opposite directions; that one condition is
evaluated in three equivalent forms and the verdicts are required to agree.
Each formula is written once, elementwise: build_config and strength are
its one-configuration case, enumerate_diagonal_roots the 64-configuration
case and the acceptance battery's sweep one array of 10,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, ParameterError

SCALAR_TOL = 1e-12     # |weak_scalar + 1| below this -> not strong
# The criteria read one angle defect d: |s+ + s-| = 2 sin(d/2) ~ d (the
# verdict maker), the wrapped |pi + vartheta - phi - psi| is d, and
# |weak_scalar + 1| = 1 - cos d ~ d^2/2; so the cut-off on d matches it.
IP_TOL = ANGLE_TOL = math.sqrt(2.0 * SCALAR_TOL)
SQRT_RESIDUAL_TOL = 1e-10

TWO_PI = 2.0 * math.pi
_EYE = np.eye(2)


def _elementwise(array_fn, float_fn):
    """One primitive: math on a float, numpy on arrays; the two round alike."""
    return lambda x, *args: float_fn(x, *args) if isinstance(x, float) else array_fn(x, *args)


_fmod, _cos, _sin = (_elementwise(np.fmod, math.fmod), _elementwise(np.cos, math.cos),
                     _elementwise(np.sin, math.sin))
# np.arctan2 rounds differently from math.atan2, so arrays map the latter
_atan2 = _elementwise(lambda y, x: np.asarray(np.frompyfunc(math.atan2, 2, 1)(y, x), dtype=float),
                      math.atan2)


def _wrap_angle(x):
    """Reduce to (-pi, pi], elementwise.  The offset subtracted is -2 pi,
    2 pi or +0.0, so a zero keeps its sign."""
    out = _fmod(x, TWO_PI)
    return out - (TWO_PI * (out > math.pi) - TWO_PI * (out <= -math.pi))


def _cos_sin(angle):
    """(cos, sin), elementwise, with the exact 0 and +-1 at the quarter turns,
    so blocks built there are signed permutations with no trig residue."""
    turn = _wrap_angle(angle)
    q0, q1, q2, q3 = turn == 0.0, turn == math.pi / 2, turn == math.pi, turn == -math.pi / 2
    other = 1.0 - (q0 | q1 | q2 | q3)
    return _cos(angle) * other + (1.0 * q0 - 1.0 * q2), _sin(angle) * other + (1.0 * q1 - 1.0 * q3)


def _last(a, k):
    """a with its first k axes moved last, C-contiguous."""
    return a if a.ndim == k else np.ascontiguousarray(a.transpose(*range(k, a.ndim), *range(k)))


def unit_blocks(eps, dlt, phi, vartheta) -> np.ndarray:
    """The per-state orthogonal unit blocks U[..., s] of configurations, s = 0
    (down, x1 <= x2) or 1 (up): a reflection sign times a rotation.  The
    arguments are scalars or arrays of one shape, the leading axes."""
    (cp, sp), (ct, st) = _cos_sin(phi), _cos_sin(vartheta)
    return _last(np.array([[[ct, -st], [dlt * st, dlt * ct]], [[cp, -sp], [eps * sp, eps * cp]]]), 3)


def volatilities(rho, sigma) -> np.ndarray:
    """vol[..., s, i], the volatility of X_{i+1} in state s: (sigma, rho) down
    and (rho, sigma) up.  The square root in state s is vol[..., s, :, None]
    * U[..., s]."""
    return _last(np.array([[sigma, rho], [rho, sigma]], dtype=float), 2)


def square_roots(rho, sigma, eps, dlt, phi, vartheta):
    """Square-root configurations, elementwise over scalars or arrays of one
    shape: (phi, vartheta, U, m, psi), angles in (-pi, pi] and m[..., s] =
    vol[..., s, :, None] U[..., s].  Raises if any m[s] m[s]' misses
    diag(vol[s]^2) by more than SQRT_RESIDUAL_TOL."""
    phi, vartheta = _wrap_angle(phi), _wrap_angle(vartheta)
    unit = unit_blocks(eps, dlt, phi, vartheta)
    vol = volatilities(rho, sigma)
    m = vol[..., None] * unit
    psi = _atan2(sigma * sigma * eps - rho * rho * dlt, rho * sigma * (1 + eps * dlt))  # (sin psi, cos psi)
    res = abs(np.matmul(m, m.swapaxes(-1, -2)) - np.square(vol)[..., None] * _EYE).max()
    if res > SQRT_RESIDUAL_TOL:
        raise RuntimeError(f"square-root residual {res:.3e} exceeds {SQRT_RESIDUAL_TOL}")
    return phi, vartheta, unit, m, psi


def criteria(rho, sigma, eps, dlt, phi, vartheta, psi, sigma_minus, sigma_plus):
    """The strength condition in its three forms, elementwise: (ip_sum_norm,
    weak_scalar, geom_defect, weak), weak the three "not strong" verdicts."""
    v = (sigma_plus[..., 0, :] - sigma_plus[..., 1, :]) + (sigma_minus[..., 0, :] - sigma_minus[..., 1, :])
    ip_sum_norm = np.sqrt(np.vecdot(v, v))  # np.linalg.norm's bits, per row
    dang = vartheta - phi
    weak_scalar = (sigma * sigma * eps - rho * rho * dlt) * _sin(dang) + rho * sigma * (1 + eps * dlt) * _cos(dang)
    geom_defect = abs(_wrap_angle(math.pi + vartheta - phi - psi))
    weak = (ip_sum_norm <= IP_TOL, abs(weak_scalar + 1.0) <= SCALAR_TOL, geom_defect <= ANGLE_TOL)
    return ip_sum_norm, weak_scalar, geom_defect, weak


@dataclass(frozen=True)
class SqrtConfig:
    """One square-root configuration (eps, root_sign_minus, phi, vartheta).

    root_sign_plus (eps) and root_sign_minus are the +-1 reflection signs of
    the two half-plane blocks; phi and vartheta their rotation angles.  The
    derived 2x2 blocks satisfy sigma_plus sigma_plus' = diag(rho^2, sigma^2)
    and sigma_minus sigma_minus' = diag(sigma^2, rho^2).
    """

    rho: float
    sigma: float
    root_sign_plus: int
    root_sign_minus: int
    phi: float
    vartheta: float
    unit: np.ndarray = field(init=False, compare=False, repr=False)
    sigma_plus: np.ndarray = field(init=False, compare=False, repr=False)
    sigma_minus: np.ndarray = field(init=False, compare=False, repr=False)
    psi: float = field(init=False)

    def __post_init__(self):
        """Check the signs and angles, reduce the angles to (-pi, pi], derive
        the blocks and psi, and check the square-root property (square_roots)."""
        if self.root_sign_plus not in (-1, 1) or self.root_sign_minus not in (-1, 1):
            raise ParameterError("root signs must be +1 or -1")
        if not (math.isfinite(self.phi) and math.isfinite(self.vartheta)):
            raise ParameterError(f"root angles must be finite, got {self.phi!r}, {self.vartheta!r}")
        phi, vartheta, unit, m, psi = square_roots(self.rho, self.sigma, self.root_sign_plus,
                                                   self.root_sign_minus, float(self.phi), float(self.vartheta))
        vars(self).update(phi=float(phi), vartheta=float(vartheta), unit=unit, sigma_minus=m[0],
                          sigma_plus=m[1], psi=float(psi))  # frozen


def build_config(p: ModelParams, eps: int, root_sign_minus: int, phi: float, vartheta: float) -> SqrtConfig:
    """Materialize a configuration and verify the square-root property."""
    return SqrtConfig(p.rho, p.sigma, int(eps), int(root_sign_minus), float(phi), float(vartheta))


@dataclass(frozen=True)
class StrengthVerdict:
    """Outcome of the three equivalent strength criteria for one config."""

    strong: bool
    ip_sum_norm: float      # |(e1-e2)' (Sigma_+ + Sigma_-)|
    weak_scalar: float      # the trigonometric criterion value; -1 <=> weak
    geom_holds: bool        # angle identity pi + vartheta = phi + psi (mod 2pi)
    geom_defect: float      # wrapped angle defect, radians


def _verdict(ip_sum_norm, weak_scalar, geom_defect, weak) -> StrengthVerdict:
    by_ip, by_scalar, by_geom = weak
    if not (by_ip == by_scalar == by_geom):
        raise RuntimeError(
            "strength criteria disagree: "
            f"ip={ip_sum_norm:.3e} scalar={weak_scalar + 1.0:.3e} geom={geom_defect:.3e}"
        )
    return StrengthVerdict(strong=not by_ip, ip_sum_norm=float(ip_sum_norm), weak_scalar=float(weak_scalar),
                           geom_holds=bool(by_geom), geom_defect=float(geom_defect))


def strength(cfg: SqrtConfig) -> StrengthVerdict:
    """Classify a configuration; raises if the three criteria disagree."""
    return _verdict(*criteria(cfg.rho, cfg.sigma, cfg.root_sign_plus, cfg.root_sign_minus, cfg.phi,
                              cfg.vartheta, cfg.psi, cfg.sigma_minus, cfg.sigma_plus))


# the three systems discussed in the text, as (eps, delta, phi, vartheta):
# the name-noise system B and the intertwined systems W and V.  This table is
# their only definition; planar reads its Euler steps and noises from it.
SYSTEMS = {"B": (1, 1, 0.0, 0.0), "W": (-1, 1, 0.0, -math.pi / 2), "V": (1, -1, 0.0, -math.pi / 2)}


# (sign, angle) of the 8 diagonal and antidiagonal sign patterns of a block,
# in enumeration order: each reflection sign at each quarter turn.  In the plus
# block 0 and pi give diag(+-rho, +-sigma), pi/2 and 3 pi/2 give
# [[0, +-rho], [+-sigma, 0]]; the minus block swaps rho and sigma.
_AXIS_CONFIGS = [(1, 0.0), (-1, 0.0), (-1, math.pi), (1, math.pi),
                 (-1, 3 * math.pi / 2), (1, 3 * math.pi / 2), (1, math.pi / 2), (-1, math.pi / 2)]


def enumerate_diagonal_roots(p: ModelParams):
    """All 64 diagonal/antidiagonal sign-pattern square roots, classified.

    Returns (configs, verdicts, strong_count).  The count is 48 in the
    isotropic and degenerate cases and 56 otherwise.
    """
    signs, angles = np.array(_AXIS_CONFIGS).T
    eps, dlt = np.repeat(signs, 8).astype(int), np.tile(signs, 8).astype(int)
    phi, theta, _, m, psi = square_roots(p.rho, p.sigma, eps, dlt, np.repeat(angles, 8), np.tile(angles, 8))
    ip_sum_norm, weak_scalar, geom_defect, weak = criteria(p.rho, p.sigma, eps, dlt, phi, theta, psi,
                                                           m[:, 0], m[:, 1])
    configs = [SqrtConfig(p.rho, p.sigma, int(eps[k]), int(dlt[k]), float(phi[k]), float(theta[k]))
               for k in range(64)]
    verdicts = [_verdict(ip_sum_norm[k], weak_scalar[k], geom_defect[k], [w[k] for w in weak])
                for k in range(64)]
    strong_count = sum(v.strong for v in verdicts)
    return configs, verdicts, strong_count
