"""Numerically stable Gaussian tail primitives shared by all density code.

Every Gaussian tail integral in the closed-form laws is rewritten as

    int_c^inf exp(-(u - m)^2 / (2 t)) du = sqrt(2 pi t) * Phi_bar((c - m)/sqrt(t))

and Phi_bar is evaluated through erfc/log-erfc, never by quadrature: direct
quadrature of these tails cancels catastrophically for large |c|.
"""

from __future__ import annotations

import functools

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


@functools.cache
def special():
    """scipy.special, imported on first use: it is about half of the
    package's start-up, and simulate, classify and tanaka never need it.
    The import lock makes a first use from several threads safe."""
    import scipy.special
    return scipy.special


def norm_cdf(x):
    return special().ndtr(x)


def norm_sf(x):
    """Phi_bar(x) = P(N(0,1) > x), stable in both tails."""
    return special().ndtr(-np.asarray(x, dtype=float))


def log_norm_sf(x):
    """log Phi_bar(x) without underflow for large x."""
    return special().log_ndtr(-np.asarray(x, dtype=float))


def norm_ppf(log_q):
    """Phi^-1(exp(log_q)): the quantile of a probability given by its log,
    which keeps its digits far below 1e-308 and close to 1."""
    return special().ndtri_exp(log_q)


def gauss_tail(c, m, t):
    """int_c^inf exp(-(u-m)^2/(2t)) du, for t > 0."""
    st = np.sqrt(t)
    return SQRT_2PI * st * norm_sf((np.asarray(c, dtype=float) - m) / st)


def log_gauss_tail(c, m, t):
    """log of gauss_tail, stable far into the tail."""
    st = np.sqrt(t)
    return 0.5 * np.log(2.0 * np.pi * t) + log_norm_sf((np.asarray(c, dtype=float) - m) / st)
