"""Property tests of the gap process over its valid domain.

Each law of Y(t) must return finite values or raise ParameterError, and
must not warn, for lam in [1e-3, 50], t in [1e-5, 100], |y| <= 30 (both
signed zeros included) and |xi| <= 50.  The examples are derandomized, so
the run is the same every time.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import bangbang, timereversal
from rankdiff.core import ParameterError, SeedSpec, validate_params

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def log_uniform(lo, hi):
    """Floats in [lo, hi], spread over its decades as well as over its length."""
    return st.one_of(st.floats(lo, hi),
                     st.floats(np.log(lo), np.log(hi)).map(lambda u: min(max(np.exp(u), lo), hi)))


LAM = log_uniform(1e-3, 50.0)
TIME = log_uniform(1e-5, 100.0)
START = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-30.0, 30.0))
XI = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8).map(np.array)


def finite_or_parameter_error(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(*args, **kwargs)
        except ParameterError:
            return
    assert np.all(np.isfinite(out))


def params(lam):
    return validate_params(lam / 2, lam / 2, 1.0, 0.0)


@PROPERTY
@given(LAM, TIME, START, XI)
def test_transition_density_is_finite(lam, t, y, xi):
    finite_or_parameter_error(bangbang.transition_density, params(lam), t, y, xi)


@PROPERTY
@given(LAM, TIME, START, XI)
def test_q_function_is_finite(lam, tau, y0, xi):
    finite_or_parameter_error(timereversal.q_function, params(lam), y0, tau, xi)


@PROPERTY
@given(LAM, TIME, START, XI, st.sampled_from(["transient", "steady_state"]))
def test_backward_drift_is_finite(lam, tau, y0, xi, mode):
    finite_or_parameter_error(timereversal.backward_drift, params(lam), y0, tau, xi, mode=mode)


@PROPERTY
@given(LAM, TIME, START, st.integers(0, 64), st.integers(0, 2**32))
def test_terminal_sampler_is_finite(lam, t, y, n, seed):
    finite_or_parameter_error(bangbang.sample_terminal_exact, params(lam), t, y, n, SeedSpec(seed))
