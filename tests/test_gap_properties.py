"""Property tests of the gap process over its valid domain.

Each law of Y(t) must return finite values or raise ParameterError, and
must not warn, for lam in [1e-3, 50], t in [1e-5, 100], |y| <= 30 (both
signed zeros included) and |xi| <= 50.  The exact sampler's envelope must
bound the peak of its ratio, and its rejection rounds must almost always
be one per sampler.  The examples are derandomized, so the run is the same
every time.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdiff import bangbang, tails, timereversal
from rankdiff.core import ParameterError, SeedSpec, validate_params

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def log_uniform(lo, hi):
    """Floats in [lo, hi], spread over its decades as well as over its length."""
    return st.one_of(st.floats(lo, hi),
                     st.floats(np.log(lo), np.log(hi)).map(lambda u: min(max(np.exp(u), lo), hi)))


LAM = log_uniform(1e-3, 50.0)
TIME = log_uniform(1e-5, 100.0)
START = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-30.0, 30.0))
TRIPLE_START = st.one_of(st.just(0.0), st.floats(0.0, 30.0), log_uniform(1e-6, 30.0))
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


def _log_ratio(s, lam, t, y):
    """log f(s), f the target-over-proposal ratio of the s-marginal sampler."""
    with np.errstate(divide="ignore"):  # log f(y) = -inf when y > 0
        return np.log(-np.expm1(-2.0 * lam * (s - y))) + np.log(s) - (s - lam * t) ** 2 / (4.0 * t)


def _fine_log_peak(lam, t, y):
    """The peak of log f by search: the maximum on a 40,001-point grid, then
    on 200,001 points between the grid neighbours of that maximum."""
    grid = np.linspace(max(y, 1e-12), y + lam * t + 14.0 * np.sqrt(t) + 10.0, 40_001)
    k = int(np.argmax(_log_ratio(grid, lam, t, y)))
    fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 200_001)
    return _log_ratio(fine[fine > y], lam, t, y).max()


def _envelope_cases():
    rng = np.random.default_rng(20240601)
    n = 300
    lam = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), n))
    t = np.exp(rng.uniform(np.log(1e-5), np.log(100.0), n))
    y = np.where(rng.random(n) < 0.2, 0.0, np.exp(rng.uniform(np.log(1e-6), np.log(30.0), n)))
    yield from zip(lam.tolist(), t.tolist(), y.tolist())
    # the maximum of f on a fixed 40,001-point grid fell below its peak by
    # more than the 1e-6 margin here
    yield from ((0.5508, 1.91e-5, 0.2089), (0.0027, 3e-4, 0.27), (5.0, 1e-5, 0.01))
    # y equals the root (lam t + sqrt(lam^2 t^2 + 8t)) / 2 of the ratio's
    # Gaussian part, where the Newton start once overflowed
    yield from ((1.0, 1.0, 2.0), (1.5, 2.0, 4.0))
    for lam_ in (1e-3, 0.2, 5.0, 50.0):
        for y_ in (0.0, 1e-6, 0.3, 4.0, 30.0):
            yield lam_, 1e-5, y_  # tiny t: f underflows to 0 away from its peak
        for t_ in (3.0, 100.0):
            yield lam_, t_, 0.0
            yield lam_, t_, 1e-3 * lam_ * t_  # lam t >> y


def test_envelope_bounds_the_peak_of_the_ratio():
    for lam, t, y in _envelope_cases():
        _, log_env = bangbang._envelope(lam, t, y)
        assert log_env >= _fine_log_peak(lam, t, y), (lam, t, y)


def test_sample_triples_at_the_gaussian_root_of_the_ratio():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = bangbang.sample_triples(params(1.0), 2.0, 1.0, 1000, SeedSpec(20240601))
    assert len(batch) == 1000
    assert np.all(np.isfinite(batch.a)) and np.all(np.isfinite(batch.b))


@settings(PROPERTY, max_examples=100)
@given(LAM, TIME, TRIPLE_START)
def test_envelope_bounds_the_fine_search_peak(lam, t, y):
    _, log_env = bangbang._envelope(lam, t, y)
    assert log_env >= _fine_log_peak(lam, t, y)


@PROPERTY
@given(LAM, TIME, TRIPLE_START, st.integers(0, 300), st.integers(0, 2**32))
def test_sample_triples_returns_n_finite_draws(lam, t, y, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = bangbang.sample_triples(params(lam), y, t, n, SeedSpec(seed))
    assert len(batch) == n
    assert np.all(np.isfinite(batch.a)) and np.all(np.isfinite(batch.b))


def test_sample_triples_takes_one_round_per_sampler(monkeypatch):
    rounds = []

    def counted(*args, **kwargs):  # one inverse-normal call per round
        rounds.append(1)
        return tails.norm_ppf(*args, **kwargs)

    monkeypatch.setattr(bangbang, "norm_ppf", counted)
    rng = np.random.default_rng(20240601)
    one_round = 0
    for i in range(500):
        lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
        t = float(np.exp(rng.uniform(np.log(1e-5), np.log(100.0))))
        y = 0.0 if rng.random() < 0.2 else float(np.exp(rng.uniform(np.log(1e-6), np.log(30.0))))
        n = int(rng.integers(1, 1025))
        rounds.clear()
        batch = bangbang.sample_triples(params(lam), y, t, n, SeedSpec(20240601, i))
        n_atom = int(batch.atom.sum())
        one_round += len(rounds) == (n_atom > 0) + (n_atom < n)
    assert one_round >= 0.99 * 500
