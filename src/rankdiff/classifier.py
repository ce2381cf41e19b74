"""Square roots of the rank-based covariance matrix and the strength test.

The local covariance is diag(rho^2, sigma^2) on {x1 > x2} and
diag(sigma^2, rho^2) on {x1 <= x2}.  Its real square roots form a continuum
parametrized by two signs and two rotation angles.  A configuration yields a
strongly solvable system unless its two half-plane diffusion vectors for the
difference point in exactly opposite directions; that one condition is
evaluated in three equivalent forms and the verdicts are required to agree.
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


def _wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    out = math.fmod(x, TWO_PI)
    if out > math.pi:
        out -= TWO_PI
    elif out <= -math.pi:
        out += TWO_PI
    return out


# (cos, sin) at the quarter turns, exact, so blocks built there are signed
# permutations with no trig residue
_QUARTER_TURNS = {0.0: (1.0, 0.0), math.pi / 2: (0.0, 1.0), math.pi: (-1.0, 0.0),
                  -math.pi / 2: (0.0, -1.0)}


def _cos_sin(angle: float):
    return _QUARTER_TURNS.get(_wrap_angle(angle)) or (math.cos(angle), math.sin(angle))


def unit_blocks(eps: int, dlt: int, phi: float, vartheta: float) -> np.ndarray:
    """The per-state orthogonal unit blocks U[s] of a configuration, s = 0
    (down, x1 <= x2) or 1 (up): a reflection sign times a rotation."""
    cp, sp = _cos_sin(phi)
    ct, st = _cos_sin(vartheta)
    return np.array([[[ct, -st], [dlt * st, dlt * ct]], [[cp, -sp], [eps * sp, eps * cp]]])


def volatilities(rho: float, sigma: float) -> np.ndarray:
    """vol[s, i], the volatility of X_{i+1} in state s: (sigma, rho) down and
    (rho, sigma) up.  The square root in state s is vol[s, :, None] * U[s]."""
    return np.array([[sigma, rho], [rho, sigma]])


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
        eps, dlt = self.root_sign_plus, self.root_sign_minus
        if eps not in (-1, 1) or dlt not in (-1, 1):
            raise ParameterError("root signs must be +1 or -1")
        rho, sg = self.rho, self.sigma
        unit = unit_blocks(eps, dlt, self.phi, self.vartheta)
        s_minus, s_plus = volatilities(rho, sg)[..., None] * unit
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "sigma_plus", s_plus)
        object.__setattr__(self, "sigma_minus", s_minus)
        # psi in (-pi, pi] with cos psi = rho sigma (1 + eps delta),
        # sin psi = sigma^2 eps - rho^2 delta
        psi = math.atan2(sg**2 * eps - rho**2 * dlt, rho * sg * (1 + eps * dlt))
        object.__setattr__(self, "psi", psi)


def build_config(p: ModelParams, eps: int, root_sign_minus: int, phi: float, vartheta: float) -> SqrtConfig:
    """Materialize a configuration and verify the square-root property."""
    cfg = SqrtConfig(p.rho, p.sigma, int(eps), int(root_sign_minus),
                     _wrap_angle(float(phi)), _wrap_angle(float(vartheta)))
    a_plus = np.diag([p.rho**2, p.sigma**2])
    a_minus = np.diag([p.sigma**2, p.rho**2])
    res = max(
        np.abs(cfg.sigma_plus @ cfg.sigma_plus.T - a_plus).max(),
        np.abs(cfg.sigma_minus @ cfg.sigma_minus.T - a_minus).max(),
    )
    if res > SQRT_RESIDUAL_TOL:
        raise RuntimeError(f"square-root residual {res:.3e} exceeds {SQRT_RESIDUAL_TOL}")
    return cfg


@dataclass(frozen=True)
class StrengthVerdict:
    """Outcome of the three equivalent strength criteria for one config."""

    strong: bool
    ip_sum_norm: float      # |(e1-e2)' (Sigma_+ + Sigma_-)|
    weak_scalar: float      # the trigonometric criterion value; -1 <=> weak
    geom_holds: bool        # angle identity pi + vartheta = phi + psi (mod 2pi)
    geom_defect: float      # wrapped angle defect, radians


def strength(cfg: SqrtConfig) -> StrengthVerdict:
    """Classify a configuration; raises if the three criteria disagree."""
    d = np.array([1.0, -1.0])
    s_plus = d @ cfg.sigma_plus
    s_minus = d @ cfg.sigma_minus
    ip_sum_norm = float(np.linalg.norm(s_plus + s_minus))
    eps, dlt = cfg.root_sign_plus, cfg.root_sign_minus
    rho, sg = cfg.rho, cfg.sigma
    dang = cfg.vartheta - cfg.phi
    weak_scalar = (sg**2 * eps - rho**2 * dlt) * math.sin(dang) + rho * sg * (1 + eps * dlt) * math.cos(dang)
    geom_defect = abs(_wrap_angle(math.pi + cfg.vartheta - cfg.phi - cfg.psi))
    weak_by_ip = ip_sum_norm <= IP_TOL
    weak_by_scalar = abs(weak_scalar + 1.0) <= SCALAR_TOL
    weak_by_geom = geom_defect <= ANGLE_TOL
    if not (weak_by_ip == weak_by_scalar == weak_by_geom):
        raise RuntimeError(
            "strength criteria disagree: "
            f"ip={ip_sum_norm:.3e} scalar={weak_scalar + 1.0:.3e} geom={geom_defect:.3e}"
        )
    return StrengthVerdict(
        strong=not weak_by_ip,
        ip_sum_norm=ip_sum_norm,
        weak_scalar=weak_scalar,
        geom_holds=weak_by_geom,
        geom_defect=geom_defect,
    )


# the three systems discussed in the text, as (eps, delta, phi, vartheta):
# the name-noise system B and the intertwined systems W and V.  This table is
# their only definition; planar reads its Euler steps and noises from it.
SYSTEMS = {"B": (1, 1, 0.0, 0.0), "W": (-1, 1, 0.0, -math.pi / 2), "V": (1, -1, 0.0, -math.pi / 2)}


def config_system_b(p: ModelParams) -> SqrtConfig:
    return build_config(p, *SYSTEMS["B"])


def config_system_w(p: ModelParams) -> SqrtConfig:
    return build_config(p, *SYSTEMS["W"])


def config_system_v(p: ModelParams) -> SqrtConfig:
    return build_config(p, *SYSTEMS["V"])


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
    configs, verdicts = [], []
    for eps, phi in _AXIS_CONFIGS:
        for dlt, theta in _AXIS_CONFIGS:
            cfg = build_config(p, eps, dlt, phi, theta)
            configs.append(cfg)
            verdicts.append(strength(cfg))
    strong_count = sum(v.strong for v in verdicts)
    return configs, verdicts, strong_count
