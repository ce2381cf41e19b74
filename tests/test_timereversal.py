import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from rankdiff import bangbang, classifier, planar, timereversal
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params
from rankdiff.harness import ks_two_sample


def params(lam):
    return validate_params(lam / 2, lam / 2, 1.0, 0.0)


P2 = params(2.0)


# ---------------------------------------------------------------------------
# the score function
# ---------------------------------------------------------------------------

def test_score_odd_at_origin_exact():
    xi = np.linspace(0.05, 5.0, 150)
    left = timereversal.q_function(P2, 0.0, 0.8, -xi)
    right = timereversal.q_function(P2, 0.0, 0.8, xi)
    np.testing.assert_array_equal(left, -right)


def test_score_equals_its_plain_expressions_bit_for_bit():
    # q_function forms its shared terms once and in place; each value must
    # round as the plain one-line expressions below do
    from rankdiff.tails import log_gauss_tail

    rng = np.random.default_rng(20240601)
    for k in range(60):
        p, tau = params(rng.uniform(0.05, 6.0)), rng.uniform(0.01, 4.0)
        lam = p.lam
        y0 = 0.0 if k % 10 == 0 else rng.uniform(-3.0, 3.0)
        xi = np.concatenate([[0.0, -0.0, 40.0, -40.0], rng.uniform(-8.0, 8.0, 61)])
        flip = -1.0 if y0 < 0 else 1.0
        y, a = flip * y0, np.abs(xi)
        s = np.where(flip * xi > 0, 1.0, -1.0)
        log_t1 = (1.0 - s) * lam * y - ((a - s * y + lam * tau) ** 2) / (2.0 * tau)
        log_t2 = np.log(lam) - 2.0 * lam * a + log_gauss_tail(y + a, lam * tau, tau)
        log_h = np.log(lam) - 2.0 * lam * a - ((y + a - lam * tau) ** 2) / (2.0 * tau)
        c1 = (a - s * y + lam * tau) / tau
        m = np.maximum(log_t1, log_t2)
        t1, t2, hh = np.exp(log_t1 - m), np.exp(log_t2 - m), np.exp(log_h - m)
        plain = -flip * s * (c1 * t1 + 2.0 * lam * t2 + hh) / (t1 + t2)
        got = timereversal.q_function(p, y0, tau, xi)
        assert got.tobytes() == plain.tobytes()


def fd_log_density(p, y0, tau, xi, h):
    f = [math.log(bangbang.transition_density(p, tau, y0, xi + k * h)) for k in (-2, -1, 1, 2)]
    return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)


@pytest.mark.parametrize("y0", [0.0, 0.7, -0.4])
@pytest.mark.parametrize("tau", [0.5, 2.0])
@pytest.mark.parametrize("xi", [-1.5, -0.3, 0.3, 1.5])
def test_score_matches_finite_differences(y0, tau, xi):
    q = timereversal.q_function(P2, y0, tau, xi)
    fd = fd_log_density(P2, y0, tau, xi, 1e-3 * max(1.0, abs(xi)))
    assert abs(q - fd) <= 1e-6 * max(abs(fd), 1e-6)


def test_score_long_time_limit_is_stationary_score():
    tau = 60.0
    for xi in (0.5, 1.5, -2.0):
        q = timereversal.q_function(P2, 0.0, tau, xi)
        assert abs(q - (-2 * P2.lam * np.sign(xi))) <= 1e-3


def test_score_stable_far_in_the_tail():
    # plain evaluation underflows out here; the log-space form keeps the
    # Gaussian-dominated asymptote q ~ -xi/tau - lam sign(xi)
    q = timereversal.q_function(P2, 0.0, 1.0, np.array([-60.0, 60.0]))
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q, [60.0 + P2.lam, -(60.0 + P2.lam)], rtol=1e-3)


def test_origin_closed_form_agrees_with_analytic_derivative():
    xi = np.concatenate([-np.linspace(0.05, 4, 60), np.linspace(0.05, 4, 60)])
    for tau in (0.3, 1.0, 4.0):
        closed = timereversal.q_closed_form_origin(P2, tau, xi)
        generic = timereversal.q_function(P2, 0.0, tau, xi)
        np.testing.assert_allclose(closed, generic, rtol=1e-8)


def test_exp_log_consistency():
    # q is a true logarithmic derivative: density ratios equal exp of its integral
    tau, y0 = 0.8, 0.5
    pairs = [(-1.2, -0.3), (0.2, 1.4), (-0.6, 0.9)]
    for x1, x2 in pairs:
        integral, _ = quad(lambda u: timereversal.q_function(P2, y0, tau, u),
                           x1, x2, points=[0.0] if x1 < 0 < x2 else None, limit=300,
                           epsabs=1e-12)
        ratio = (bangbang.transition_density(P2, tau, y0, x2)
                 / bangbang.transition_density(P2, tau, y0, x1))
        assert abs(math.exp(integral) - ratio) <= 1e-8 * ratio


# ---------------------------------------------------------------------------
# backward drift
# ---------------------------------------------------------------------------

def test_steady_state_drift_is_exact_negation():
    xi = np.linspace(-3, 3, 601)
    b = timereversal.backward_drift(P2, 0.0, 1.0, xi, mode="steady_state")
    forward = -P2.lam * np.where(xi > 0, 1.0, -1.0)
    np.testing.assert_array_equal(b, forward)


def test_origin_closed_forms_finite_where_plain_terms_underflow():
    # at xi = 20, tau = 0.1 both terms of the plain ratio underflow to 0
    xi = np.array([-40.0, -20.0, 20.0, 40.0])
    closed = timereversal.q_closed_form_origin(P2, 0.1, xi)
    generic = timereversal.q_function(P2, 0.0, 0.1, xi)
    np.testing.assert_allclose(closed, generic, rtol=1e-10)
    disp = timereversal.backward_drift_display_origin(P2, 0.1, xi[2:])
    np.testing.assert_allclose(disp, timereversal.backward_drift(P2, 0.0, 0.1, xi[2:]), rtol=1e-10)
    assert math.isfinite(timereversal.backward_drift_display_origin(P2, 0.1, -20.0))


def test_origin_check_holds_where_a_plain_term_is_subnormal():
    # at lam = 36.27, tau = 0.5365, xi = -10.24, exp(-2 lam a) = 2.5e-323 keeps
    # about one digit; the plain ratio then disagreed with the score by 1.9e-3
    q = timereversal.q_function(params(36.27), 0.0, 0.5365, -10.24)
    assert abs(q / (2 * 36.27) - 1.0) <= 1e-6
    worst = 0.0
    for lam in np.geomspace(1e-3, 50.0, 40):
        p = params(lam)
        for tau in np.geomspace(1e-5, 100.0, 40):
            hw = lam * tau + 20.0 * math.sqrt(tau)  # the window where the plain display is well-scaled
            xi = np.linspace(-hw, hw, 401)
            q = timereversal.q_function(p, 0.0, tau, xi)
            ref = timereversal.q_closed_form_origin(p, tau, xi)
            assert np.all(np.isfinite(q))
            worst = max(worst, np.max(np.abs(q - ref) / np.maximum(np.abs(ref), 1e-300)))
    assert worst <= 1e-8


def test_origin_display_matches_generic_on_positive_side_only():
    xi = np.linspace(0.05, 5.0, 200)
    for tau in (0.5, 1.5):
        disp = timereversal.backward_drift_display_origin(P2, tau, xi)
        generic = timereversal.backward_drift(P2, 0.0, tau, xi)
        np.testing.assert_allclose(disp, generic, rtol=1e-8)
        # as printed, the negative side disagrees; the generic derivative is
        # the ground truth and the reconciled drift is odd
        neg = timereversal.backward_drift_display_origin(P2, tau, -xi)
        assert np.abs(neg - timereversal.backward_drift(P2, 0.0, tau, -xi)).max() > 1.0
        np.testing.assert_allclose(timereversal.backward_drift(P2, 0.0, tau, -xi),
                                   -generic, rtol=1e-12)


def test_bridge_singularity_rate():
    # time-to-go tau -> 0 with xi fixed: drift ~ -xi/tau
    xi = 0.8
    for tau in (1e-3, 1e-4):
        b = timereversal.backward_drift(P2, 0.0, tau, xi)
        assert abs(b * tau / xi + 1.0) <= 0.05


def test_q_requires_positive_tau():
    with pytest.raises(ParameterError):
        timereversal.q_function(P2, 0.0, 0.0, 0.5)


@pytest.mark.parametrize("y0,tau", [(math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.inf), (0.3, math.inf), (0.3, math.nan)])
def test_q_rejects_non_finite_start_or_tau(y0, tau):
    with pytest.raises(ParameterError):
        timereversal.q_function(P2, y0, tau, np.array([-0.5, 0.5]))
    with pytest.raises(ParameterError):
        timereversal.backward_drift(P2, y0, tau, 0.5)
    with pytest.raises(ParameterError):
        timereversal.BackwardDriftSpec(P2, y0, tau)


@pytest.mark.parametrize("law", [timereversal.q_closed_form_origin,
                                 timereversal.backward_drift_display_origin])
def test_origin_displays_reject_infinite_tau(law):
    with pytest.raises(ParameterError):
        law(P2, math.inf, 0.5)


# ---------------------------------------------------------------------------
# backward simulation
# ---------------------------------------------------------------------------

def test_backward_steady_state_matches_forward_law():
    lam = P2.lam
    n = 60_000
    T, steps = 1.0, 500
    rng = SeedSpec(3).generator()
    y = rng.laplace(0.0, 1 / (2 * lam), n)
    for _ in range(steps // 2):
        bangbang.gap_euler_step(y, lam, T / steps, rng.standard_normal(n) * np.sqrt(T / steps))
    spec = timereversal.BackwardDriftSpec(P2, 0.0, T, mode="steady_state")
    y_term = SeedSpec(5).generator().laplace(0.0, 1 / (2 * lam), n)
    _, rec = timereversal.simulate_backward(spec, y_term, steps, SeedSpec(7), record_times=[T / 2])
    assert ks_two_sample(y, rec[-1]) <= 0.015


def test_backward_transient_pins_to_start():
    # reversed bridge collapses onto the forward initial condition
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0, mode="transient")
    n = 2000
    y_term = bangbang.sample_terminal_exact(P2, 1.0, 0.0, n, SeedSpec(11))
    _, rec = timereversal.simulate_backward(spec, y_term, 10_000, SeedSpec(13), record_times=[1.0])
    frac = np.mean(np.abs(rec[-1]) < 0.05)
    assert frac > 0.99


def test_backward_transient_marginal_matches_forward():
    y0, T, steps = 0.4, 1.0, 500
    n = 30_000
    fwd = bangbang.euler_gap_terminal(P2.lam, y0, T / 2, steps // 2, n, SeedSpec(17).generator())
    y_term = bangbang.sample_terminal_exact(P2, T, y0, n, SeedSpec(19))
    spec = timereversal.BackwardDriftSpec(P2, y0, T, mode="transient")
    _, rec = timereversal.simulate_backward(spec, y_term, steps, SeedSpec(23), record_times=[T / 2])
    assert ks_two_sample(fwd, rec[-1]) <= 0.015


def test_backward_records_requested_times_and_is_clamped():
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0, mode="transient")
    y_term = np.array([3.0, -2.0, 0.5])
    times, rec = timereversal.simulate_backward(spec, y_term, 100, SeedSpec(29),
                                                record_times=[0.0, 0.5, 1.0])
    assert times.tolist() == [0.0, 0.5, 1.0]
    assert rec.shape == (3, 3)
    np.testing.assert_array_equal(rec[0], y_term)
    assert np.all(np.isfinite(rec))


@pytest.mark.parametrize("mode", ["transient", "steady_state"])
@pytest.mark.parametrize("n_steps", [9, 10])
def test_backward_stops_at_last_recorded_step_with_the_same_rows(mode, n_steps):
    spec = timereversal.BackwardDriftSpec(P2, 0.3, 0.7, mode=mode)
    y_term = np.linspace(-1.5, 1.5, 64)
    times, full = timereversal.simulate_backward(spec, y_term, n_steps, SeedSpec(31))
    for picks in ([0], [3], [1, 4], [n_steps // 2], [2, n_steps]):
        t_rec, rec = timereversal.simulate_backward(spec, y_term, n_steps, SeedSpec(31),
                                                    record_times=times[picks])
        np.testing.assert_array_equal(t_rec, times[picks])
        np.testing.assert_array_equal(rec, full[picks])
    t_rec, rec = timereversal.simulate_backward(spec, y_term, n_steps, SeedSpec(31),
                                                record_times=[])
    assert t_rec.shape == (0,) and rec.shape == (0, y_term.size)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.1, 1.1, 1e300])
def test_backward_rejects_a_record_time_off_the_grid(t):
    # such a time was cast with a RuntimeWarning or clipped to an end of the grid
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0, mode="steady_state")
    with pytest.raises(ParameterError, match="record_times"):
        timereversal.simulate_backward(spec, np.zeros(3), 10, SeedSpec(1), record_times=[0.5, t])


@pytest.mark.parametrize("n_steps", [0, -2])
def test_backward_rejects_bad_step_count(n_steps):
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0, mode="steady_state")
    with pytest.raises(ParameterError):
        timereversal.simulate_backward(spec, np.zeros(3), n_steps, SeedSpec(1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_backward_rejects_non_finite_terminal_draws(bad):
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0, mode="transient")
    with pytest.raises(ParameterError):
        timereversal.simulate_backward(spec, [0.1, bad], 10, SeedSpec(1))


@pytest.mark.parametrize("mode", ["transient", "steady_state"])
@pytest.mark.parametrize("n_steps", [1, 4, 7])
def test_reversal_ks_reads_both_laws_at_one_grid_time(mode, n_steps):
    spec = timereversal.BackwardDriftSpec(P2, 0.3, 0.7, mode=mode)
    t_check, ks = timereversal.reversal_ks(spec, n_steps, 500, SeedSpec(37))
    k = n_steps // 2
    assert t_check == (0.35 if n_steps % 2 == 0 else k * 0.7 / n_steps)
    assert 0.0 <= ks <= 1.0
    assert timereversal.reversal_ks(spec, n_steps, 500, SeedSpec(37)) == (t_check, ks)


@pytest.mark.parametrize("n_steps,n_paths", [(0, 100), (4, 0)])
def test_reversal_ks_rejects_empty_runs(n_steps, n_paths):
    spec = timereversal.BackwardDriftSpec(P2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        timereversal.reversal_ks(spec, n_steps, n_paths, SeedSpec(1))


def test_local_time_reversal_identity_within_coarse_band():
    # pathwise reversal identity: L-reverse(t) ~ L(T) - L(T-t); the residual
    # estimator reproduces it within a few percent of the local-time scale
    _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.3, 1.0, 8000, 200, SeedSpec(31).generator())
    el = bangbang.tanaka_residual_matrix(y)
    el_rev = bangbang.tanaka_residual_matrix(y[::-1])
    k = 4000
    target = el[-1] - el[::-1]
    gap = np.sqrt(np.mean((el_rev[k] - target[k]) ** 2))
    scale = np.sqrt(np.mean(el[-1] ** 2))
    assert gap <= 0.12 * scale


def test_local_time_reversal_identity_observed_order_is_quarter():
    # refinement study: the RMS gap contracts by ~4^(-1/4) per dt quartering
    # (the sign-flip sum fluctuation), not by 4^(-1/2)
    rms = []
    for j, n_steps in enumerate([1000, 4000]):
        _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.3, 1.0, n_steps, 500,
                                                 SeedSpec(37, j).generator())
        el = bangbang.tanaka_residual_matrix(y)
        el_rev = bangbang.tanaka_residual_matrix(y[::-1])
        k = n_steps // 2
        target = el[-1] - el[::-1]
        rms.append(float(np.sqrt(np.mean((el_rev[k] - target[k]) ** 2))))
    ratio = rms[1] / rms[0]
    assert ratio < 0.85          # it does converge ...
    assert ratio > 0.60          # ... but demonstrably slower than sqrt(dt)


# ---------------------------------------------------------------------------
# backward rank dynamics
# ---------------------------------------------------------------------------

def test_rank_reversal_report_coefficients():
    p = validate_params(1.0, 1.0, 1 / math.sqrt(2), 1 / math.sqrt(2), renormalize=True)
    path = planar.euler_simulate("B", p, InitialState(0.0, 0.0), 1.0, 200, SeedSpec(41))
    rep = timereversal.backward_rank_drift_report(p, [path])
    assert abs(rep.lt_coeff1 - 0.5) < 1e-12
    assert abs(rep.lt_coeff2 - 0.5) < 1e-12
    assert abs(rep.drift1 - (p.h - 2 * p.lam * p.rho**2)) < 1e-12
    assert abs(rep.drift2 - (2 * p.lam * p.sigma**2 - p.g)) < 1e-12


def test_rank_reversal_report_reads_custom_paths():
    p = validate_params(1.0, 1.0, math.sqrt(0.73), math.sqrt(0.27), renormalize=True)
    cfg = classifier.build_config(p, -1, 1, 1.2, -0.4)
    path = planar.euler_simulate(cfg, p, InitialState(0.2, 0.0), 1.0, 300, SeedSpec(47))
    rep = timereversal.backward_rank_drift_report(p, [path])
    assert rep.n_paths == 1 and math.isfinite(rep.rms1) and math.isfinite(rep.rms2)


def _rank_rms(n_steps, n_paths, seed):
    p = validate_params(1.0, 1.0, math.sqrt(0.73), math.sqrt(0.27), renormalize=True)
    rng = SeedSpec(seed).generator()
    paths = []
    for i in range(n_paths):
        y0 = rng.laplace(0.0, 1 / (2 * p.lam))
        path = planar.euler_simulate("B", p, InitialState(y0, 0.0), 1.0, n_steps,
                                     SeedSpec(seed, 100 + i))
        paths.append(path)
    rep = timereversal.backward_rank_drift_report(p, paths)
    return rep.rms1, rep.rms2


def test_rank_reversal_residuals_decay_with_refinement():
    coarse = _rank_rms(500, 150, 43)
    fine = _rank_rms(2000, 150, 44)
    # empirical order is ~dt^(1/4)..dt^(1/3): demand clear decay but do not
    # pretend sqrt(dt)
    assert fine[0] / coarse[0] <= 0.85
    assert fine[1] / coarse[1] <= 0.85
    # residuals are small against the O(1) scale of the rank increments
    assert fine[0] < 0.45 and fine[1] < 0.45


# ---------------------------------------------------------------------------
# golden digests of the score and the backward drift
# ---------------------------------------------------------------------------

PIN_XI = np.linspace(-4.0, 4.0, 81)
# a Python float, a numpy scalar, a 0-d array, a signed zero, then a list
PIN_SCALARS = (-1.1, np.float64(0.7), np.array(0.0), -0.0, [0.4])


def typed_digest(values):
    """sha256 over values with the type of each: a float, a numpy scalar or
    an ndarray (dtype, shape, bytes) each hash apart."""
    h = hashlib.sha256()
    for v in values:
        h.update(type(v).__name__.encode())
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode() + v.tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def _score_values(fn):
    for lam in (0.5, 2.0, 3.7):
        p = params(lam)
        for y0 in (-0.6, 0.0, 0.4):
            for tau in (0.3, 1.0, 2.5):
                yield fn(p, y0, tau, PIN_XI)
                for xi in PIN_SCALARS:
                    yield fn(p, y0, tau, xi)


SCORE_LAWS = {
    "q_function": timereversal.q_function,
    "backward_drift-transient": timereversal.backward_drift,
    "backward_drift-steady_state":
        lambda p, y0, tau, xi: timereversal.backward_drift(p, y0, tau, xi, mode="steady_state"),
}

# recorded before the two halves of the score were written as one expression
# and the scalar/array return rule was given one home
SCORE_GOLDEN = {
    "q_function": "3c0ba8f2e6e19146561bc331150678e0388a99f5fc5da30c08b6da757e1c2a1c",
    "backward_drift-transient": "59c20720f24c28f0b8996532b3e42eada0f605e045363ed19bf0d44f22c8b1e9",
    "backward_drift-steady_state": "575250330dd5ba9b2a2c3b8cb1aec4393e296f727b84aef62e4d073fcb36456e",
}


@pytest.mark.parametrize("law", sorted(SCORE_GOLDEN))
def test_score_and_drift_match_golden_digest(law):
    assert typed_digest(_score_values(SCORE_LAWS[law])) == SCORE_GOLDEN[law]
