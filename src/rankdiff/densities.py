"""Closed-form time-t laws of the planar diffusion.

Covers the equal-variance case, the degenerate case with its singular line
component, the rank law, the quadrivariate law of (gap side, gap size, local
time, independent noise), and the general unequal-variance density.  A
dispatcher reduces arbitrary parameter/start combinations to the covered
branch by the two exact model symmetries (relabel the particles, flip space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .bangbang import (_atom_bracket, _check_triple_domain, _triple_kernel, atom_density, atom_mass,
                       transition_density, triple_density)
from .core import InitialState, ModelParams, ParameterError, check_finite, check_time_start, scalar_or_array
from .tails import norm_sf


# ---------------------------------------------------------------------------
# isotropic case
# ---------------------------------------------------------------------------

def joint_density_isotropic(p: ModelParams, s0: InitialState, t: float, xi1, xi2):
    """Joint density of (X1(t), X2(t)) for equal variances rho = sigma.

    The pair is the affine image of the independent gap value and sum noise;
    the change of variables contributes the constant 2/sqrt(2 pi t), pinned
    here by the normalization and Monte Carlo checks in the test suite.
    """
    check_time_start(t)
    if not p.is_isotropic:
        raise ParameterError("joint_density_isotropic requires rho^2 = sigma^2 = 1/2")
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    check_finite("the point", xi1, xi2)
    gap = transition_density(p, t, s0.y, xi1 - xi2)
    out = 2.0 * gap / np.sqrt(2.0 * np.pi * t) * np.exp(-((xi1 + xi2 - s0.z - p.nu * t) ** 2) / (2.0 * t))
    return scalar_or_array(out, xi1, xi2)


# ---------------------------------------------------------------------------
# degenerate case (sigma = 0, rho = 1, y >= 0)
# ---------------------------------------------------------------------------

def _check_degenerate(p: ModelParams, s0: InitialState):
    if p.sigma != 0.0:
        raise ParameterError("degenerate-case laws require sigma = 0 (and rho = 1)")
    if s0.y < 0:
        raise ParameterError("degenerate-case laws require x1 >= x2 (relabel upstream)")


def front_location(p: ModelParams, s0: InitialState, t: float) -> float:
    """The laggard's deterministic position x2 + g t carrying the atom."""
    return s0.x2 + p.g * t


def joint_density_degenerate(p: ModelParams, s0: InitialState, t: float, xi1, xi2):
    """Continuous part of the degenerate-case law, supported on two wedges.

    The law lives on {xi1 > xi2, xi2 <= front} union {xi1 < xi2, xi1 < front}
    plus an atom on the line {xi2 = front, xi1 > front} (see atom_line_density).
    On the wedge edges the interior one-sided limit is returned.
    """
    check_time_start(t)
    _check_degenerate(p, s0)
    args = xi1, xi2
    check_finite("the point", xi1, xi2)  # a NaN point is in no wedge and would read 0
    xi1, xi2 = np.broadcast_arrays(np.atleast_1d(np.asarray(xi1, dtype=float)),
                                   np.atleast_1d(np.asarray(xi2, dtype=float)))
    front = front_location(p, s0, t)

    def wedge(lo, hi):
        # density for the ordered pair (hi, lo): hi - lo > 0 on this wedge
        u = hi - 3.0 * lo + s0.z
        return _triple_kernel(2.0, p.lam, t, hi - lo, u + 2.0 * p.g * t, u + p.nu * t)

    in1 = (xi1 > xi2) & (xi2 <= front)
    in2 = (xi1 < xi2) & (xi1 <= front)
    out = np.zeros(xi1.shape)
    out[in1] = wedge(xi2[in1], xi1[in1])
    out[in2] = wedge(xi1[in2], xi2[in2])
    return scalar_or_array(out, *args)


def atom_line_density(p: ModelParams, s0: InitialState, t: float, xi1):
    """Density in xi1 on the singular line {X2(t) = x2 + g t}, degenerate case.

    Identically zero when y = 0; zero for xi1 at or below the front.
    """
    check_time_start(t)
    _check_degenerate(p, s0)
    out = _atom_vals(p, s0.y, t, np.asarray(xi1, dtype=float) - front_location(p, s0, t))
    return scalar_or_array(out, xi1)


def front_jump(p: ModelParams, s0: InitialState, t: float, gap):
    """Size of the density discontinuity along the front for a start y = 0,
    as a function of the gap xi1 - xi2 at the front."""
    if s0.y != 0:
        raise ParameterError("front_jump is stated for y = 0")
    check_time_start(t)
    d = np.abs(np.asarray(gap, dtype=float))
    return scalar_or_array(_triple_kernel(2.0, p.lam, t, d, d, d - p.lam * t), gap)


def rank_density_degenerate(p: ModelParams, s0: InitialState, t: float, rho1, rho2):
    """Continuous joint density of the ranks (max, min), degenerate case."""
    check_time_start(t)
    _check_degenerate(p, s0)
    rho1 = np.asarray(rho1, dtype=float)
    rho2 = np.asarray(rho2, dtype=float)
    if np.any(rho1 <= rho2):
        raise ParameterError("rank density requires rho1 > rho2")
    rho1, rho2 = np.broadcast_arrays(rho1, rho2)
    front = front_location(p, s0, t)
    u = rho1 - 3.0 * rho2 + s0.z
    vals = (
        4.0
        * (u + 2.0 * p.g * t)
        / np.sqrt(2.0 * np.pi * t**3)
        * np.exp(-2.0 * p.lam * (rho1 - rho2) - ((u + p.nu * t) ** 2) / (2.0 * t))
    )
    return scalar_or_array(np.where(rho2 <= front, vals, 0.0), rho1, rho2)


# ---------------------------------------------------------------------------
# quadrivariate law
# ---------------------------------------------------------------------------

def quadrivariate_density(p: ModelParams, y: float, t: float, side: str, a, b, theta):
    """f1(a, b, theta): joint density of (gap size, twice local time, noise).

    The value does not depend on which side carries the gap; it factors as
    the triple density times the centered Gaussian density of the noise.
    """
    if side not in ("plus", "minus"):
        raise ParameterError("side must be 'plus' or 'minus'")
    theta = np.asarray(theta, dtype=float)
    out = triple_density(p, y, t, a, b) * (np.exp(-(theta**2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t))
    return scalar_or_array(out, a, b, theta)


def quadrivariate_atom_density(p: ModelParams, y: float, t: float, a, theta):
    """f2(a, theta): the no-local-time companion of f1; vanishes at y = 0."""
    _check_triple_domain(y, t)
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(a <= 0):
        raise ParameterError("f2 requires a > 0")
    out = np.exp(-(theta**2) / (2.0 * t)) / (2.0 * np.pi * t) * _atom_bracket(p.lam, y, t, a)
    if y == 0:
        out = np.zeros_like(out)
    return scalar_or_array(out, a, theta)


# ---------------------------------------------------------------------------
# general unequal-variance density (gamma > 0, y >= 0)
# ---------------------------------------------------------------------------

def _psi_side_term(lam, t, y, gam, delta, a, theta_star):
    """Closed form of the one-sided noise integral of f1 along the fiber
    b(theta) = (2/gamma) (rho sigma theta - ...), for fixed gap size a > 0.

    Exact Gaussian algebra.  With B = (gamma/delta) theta* + alpha - lam t and
    C = theta*^2 + (alpha - lam t)^2, the exponent C - delta^2 B^2 is written
    as the square it equals, since gamma^2 + delta^2 = 1:
    (delta theta* - gamma (alpha - lam t))^2.  Formed by subtraction it
    cancels to a negative number when rho sigma is tiny (theta* then runs to
    about 1e10) and exp overflows; the square cannot.
    """
    alpha = a + y
    B = gam / delta * theta_star + alpha - lam * t
    C = theta_star**2 + (alpha - lam * t) ** 2
    term1 = delta * t * np.exp(-C / (2.0 * t))
    term2 = (
        (alpha - delta**2 * B)
        * np.sqrt(2.0 * np.pi * t)
        * np.exp(-((delta * theta_star - gam * (alpha - lam * t)) ** 2) / (2.0 * t))
        * norm_sf(delta * B / np.sqrt(t))
    )
    return np.exp(-2.0 * lam * a) / (np.pi * t**2) * (term1 + term2)


def psi_density(p: ModelParams, y: float, t: float, psi1, psi2):
    """Joint density of the centered coordinates (Psi1, Psi2), gamma > 0, y >= 0.

    Psi_i = X_i - x_i - mu t.  The law is absolutely continuous here: the
    no-local-time component is smoothed by the independent noise and enters
    as an explicit extra term on the upper wedge.
    """
    _check_triple_domain(y, t)
    if p.gamma <= 0 or p.rho <= 0 or p.sigma <= 0:
        raise ParameterError("psi_density requires rho > sigma > 0 (gamma > 0); reduce by symmetry first")
    args = psi1, psi2
    check_finite("the point", psi1, psi2)  # a NaN point is on no side and would read 0
    psi1, psi2 = np.broadcast_arrays(np.atleast_1d(np.asarray(psi1, dtype=float)),
                                     np.atleast_1d(np.asarray(psi2, dtype=float)))
    lam, gam = p.lam, p.gamma
    rs = p.rho * p.sigma
    r2, s2 = p.rho**2, p.sigma**2
    delta = p.mixing_delta
    out = np.zeros(psi1.shape, dtype=float)

    a_plus = y + psi1 - psi2
    m = a_plus > 0
    if np.any(m):
        th = (s2 * psi1[m] + r2 * psi2[m]) / rs
        out[m] += _psi_side_term(lam, t, y, gam, delta, a_plus[m], th)
        if y > 0:
            out[m] += quadrivariate_atom_density(p, y, t, a_plus[m], th) / rs

    a_minus = psi2 - psi1 - y
    m = a_minus > 0
    if np.any(m):
        th = (r2 * psi1[m] + s2 * psi2[m] + gam * y) / rs
        out[m] += _psi_side_term(lam, t, y, gam, delta, a_minus[m], th)
    return scalar_or_array(out, *args)


# ---------------------------------------------------------------------------
# dispatcher and grids
# ---------------------------------------------------------------------------

def planar_density(p: ModelParams, s0: InitialState, t: float, xi1, xi2):
    """Continuous part of the time-t density for any valid parameters/start.

    Reduces to the stated branches by the two exact symmetries: relabeling
    the particles maps a start with x1 < x2 to x1 > x2, and flipping space
    swaps (g, rho) with (h, sigma), turning gamma < 0 into gamma > 0.
    """
    if s0.y < 0:
        return planar_density(p, s0.swapped(), t, xi2, xi1)
    if p.gamma < 0 and not p.is_isotropic:
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        return planar_density(p.swapped(), InitialState(-s0.x1, -s0.x2), t, -xi1, -xi2)
    if p.is_isotropic:
        return joint_density_isotropic(p, s0, t, xi1, xi2)
    if p.is_degenerate:
        return joint_density_degenerate(p, s0, t, xi1, xi2)
    shift = p.mu * t  # psi_density in the name coordinates (X1, X2)
    return psi_density(p, s0.y, t, np.asarray(xi1, dtype=float) - s0.x1 - shift,
                       np.asarray(xi2, dtype=float) - s0.x2 - shift)


@dataclass(frozen=True)
class AtomLine:
    """Singular line component of a degenerate-case law.

    `axis` names the pinned coordinate; the free coordinate runs over values
    `side`-ward of `location` (+1: above, -1: below).  `density` evaluates the
    line density as a function of the free coordinate.
    """

    axis: str            # "x1" or "x2"
    location: float
    side: int            # +1 or -1
    mass: float
    density: Callable[[np.ndarray], np.ndarray]


def planar_atom(p: ModelParams, s0: InitialState, t: float) -> Optional[AtomLine]:
    """The singular component of the law, or None when absolutely continuous.

    Present exactly when one volatility vanishes and the particles start
    apart: the zero-volatility particle then travels deterministically on the
    no-overtake event.  Built for sigma = 0 and x1 > x2, where x2 rides its
    front; the other cases follow by relabeling and by flipping space.
    """
    check_time_start(t)
    if not p.is_degenerate or s0.y == 0:
        return None
    if p.sigma != 0.0:  # rho = 0: flip space; location, side and free coordinate change sign
        a = planar_atom(p.swapped(), InitialState(-s0.x1, -s0.x2), t)
        # 0.0 - v, not -v: an exact tie x = h t gives +0.0, as x - h t does
        return replace(a, location=0.0 - a.location, side=-a.side,
                       density=lambda u: a.density(-np.asarray(u, dtype=float)))
    if s0.y < 0:  # relabel the particles: the other coordinate is pinned
        a = planar_atom(p, s0.swapped(), t)
        return replace(a, axis="x1" if a.axis == "x2" else "x2")
    loc = front_location(p, s0, t)
    return AtomLine("x2", loc, +1, atom_mass(p, s0.y, t),
                    lambda u: _atom_vals(p, s0.y, t, np.asarray(u) - loc))


def _atom_vals(p, y, t, a):
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    ok = a > 0
    if np.any(ok):
        out[ok] = atom_density(p, y, t, a[ok])
    return out


@dataclass(frozen=True)
class DensityGrid:
    """Rectangular evaluation of a planar law plus its singular component."""

    xi1: np.ndarray
    xi2: np.ndarray
    values: np.ndarray           # shape (len(xi1), len(xi2))
    atom: Optional[AtomLine]
    atom_line_values: Optional[np.ndarray]   # atom density on the free axis grid

    def __post_init__(self):
        if self.values.shape != (len(self.xi1), len(self.xi2)):
            raise ValueError("values shape does not match the grids")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("density values must be finite and nonnegative")

    def continuous_mass(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.xi2, axis=1), self.xi1))

    def total_mass(self) -> float:
        return self.continuous_mass() + (self.atom.mass if self.atom else 0.0)


def density_grid(p: ModelParams, s0: InitialState, t: float, xi1, xi2) -> DensityGrid:
    """Evaluate the continuous density on a product grid, with the atom."""
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    check_finite("the point", xi1, xi2)  # NaN passes the order test: a NaN difference is not <= 0
    if np.any(np.diff(xi1) <= 0) or np.any(np.diff(xi2) <= 0):
        raise ParameterError("grids must be strictly increasing")
    values = planar_density(p, s0, t, xi1[:, None], xi2[None, :])
    atom = planar_atom(p, s0, t)
    line_vals = None
    if atom is not None:
        free = xi1 if atom.axis == "x2" else xi2
        line_vals = atom.density(free)
    return DensityGrid(xi1, xi2, values, atom, line_vals)
