import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from rankdiff import bangbang, planar
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params
from rankdiff.harness import ks_statistic, ks_two_sample


def tabulate_pdf(fn, lo, hi, n):
    """(grid, cdf) table of a 1D pdf by trapezoidal accumulation."""
    grid = np.linspace(lo, hi, n)
    pdf = fn(grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    return grid, cdf


def params(lam, rho=1.0, sigma=0.0):
    return validate_params(lam / 2, lam / 2, rho, sigma)


def cdf_table(p, t, y):
    """Trapezoid CDF of Y(t) on 8,001 points over +-(|y| + lam t + 10 sqrt(t) + 2)."""
    hi = abs(y) + p.lam * t + 10.0 * np.sqrt(t) + 2.0
    return tabulate_pdf(lambda xi: bangbang.transition_density(p, t, y, xi), -hi, hi, 8001)


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------

def test_density_even_at_origin_exact():
    p = params(2.0)
    xi = np.linspace(0.01, 6.0, 200)
    left = bangbang.transition_density(p, 1.0, 0.0, -xi)
    right = bangbang.transition_density(p, 1.0, 0.0, xi)
    np.testing.assert_array_equal(left, right)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("y", [-2.0, 0.0, 3.0])
def test_density_normalizes(lam, t, y):
    p = params(lam)
    hw = abs(y) + lam * t + 12 * math.sqrt(t) + 2
    mass, _ = quad(lambda xi: bangbang.transition_density(p, t, y, xi),
                   -hw, hw, points=[0.0], limit=400, epsabs=1e-11)
    assert abs(mass - 1.0) <= 1e-8


def test_chapman_kolmogorov_pointwise():
    # numerical-convolution oracle for the semigroup property
    p = params(1.0)
    y = 0.5
    for xi in (-1.0, 0.0, 0.4, 2.0):
        conv, _ = quad(
            lambda u: (bangbang.transition_density(p, 0.4, y, u)
                       * bangbang.transition_density(p, 0.6, u, xi)),
            -14, 14, points=[0.0], limit=400, epsabs=1e-11)
        direct = bangbang.transition_density(p, 1.0, y, xi)
        assert abs(conv - direct) <= 1e-6


def test_density_mirror_matches_monte_carlo_for_negative_start():
    # the displayed formulas alone are valid for y >= 0; the mirror map
    # handles y < 0 -- cross-check the code path against simulation
    p = params(1.0)
    rng = SeedSpec(5).generator()
    n = 60_000
    y = bangbang.euler_gap_terminal(p.lam, -1.0, 1.0, 2000, n, rng)
    grid, cdf = cdf_table(p, 1.0, -1.0)
    ks = ks_statistic(y, np.interp(y, grid, cdf / cdf[-1]))
    assert ks <= 0.015


def test_density_requires_positive_time():
    with pytest.raises(ParameterError):
        bangbang.transition_density(params(1.0), 0.0, 0.0, 0.5)


def test_invariant_density_values_and_mass():
    p = params(2.0)
    assert bangbang.invariant_density(p, 0.0) == 2.0
    assert abs(bangbang.invariant_density(p, 0.5) - 2.0 * math.exp(-2.0)) < 1e-15
    mass, _ = quad(lambda x: bangbang.invariant_density(p, x), -30, 30, points=[0.0])
    assert abs(mass - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_zero_noise_skeleton_decays_linearly():
    p = params(1.5)
    n = 1000
    path = bangbang.euler_gap_path(p.lam, 1.0, 1.0, n, increments=np.zeros(n))
    k = 400  # y stays positive until t = y0/lam = 2/3
    expected = 1.0 - 1.5 * path.times[:k]
    np.testing.assert_allclose(path.y_values[:k], expected, atol=1e-12)
    assert np.all(np.abs(path.y_values[700:]) <= 1.5 / n + 1e-12)


def test_simulate_reproducible_and_records_noise():
    p = params(2.0)
    a = bangbang.euler_gap_path(p.lam, 0.3, 1.0, 500, SeedSpec(9))
    b = bangbang.euler_gap_path(p.lam, 0.3, 1.0, 500, SeedSpec(9))
    np.testing.assert_array_equal(a.y_values, b.y_values)
    redone = bangbang.euler_gap_path(p.lam, 0.3, 1.0, 500, increments=a.w_increments)
    np.testing.assert_array_equal(a.y_values, redone.y_values)
    assert a.l_values[0] == 0.0
    assert np.all(np.diff(a.l_values) >= 0)


def test_terminal_law_matches_closed_form():
    p = params(2.0)
    rng = SeedSpec(11).generator()
    n = 100_000
    y = bangbang.euler_gap_terminal(p.lam, 0.0, 1.0, 1000, n, rng)
    grid, cdf = cdf_table(p, 1.0, 0.0)
    ks = ks_statistic(y, np.interp(y, grid, cdf / cdf[-1]))
    assert ks <= 0.01


def test_exact_terminal_sampler_matches_euler():
    p = params(2.0)
    exact = bangbang.sample_terminal_exact(p, 1.0, 0.5, 50_000, SeedSpec(13))
    euler = bangbang.euler_gap_terminal(p.lam, 0.5, 1.0, 1000, 50_000, SeedSpec(14).generator())
    assert ks_two_sample(exact, euler) <= 0.015


# ---------------------------------------------------------------------------
# local time
# ---------------------------------------------------------------------------

def test_no_sign_change_means_no_local_time():
    p = params(1.0)
    n = 500
    path = bangbang.euler_gap_path(p.lam, 5.0, 0.5, n, increments=np.full(n, 1e-4))
    assert np.all(path.y_values > 0)
    assert np.all(path.l_values == 0.0)


def test_tanaka_residual_on_hand_computed_sawtooth():
    # sawtooth of unit steps: 1, -1, 1, -1, ...; each flip step contributes
    # |Y_{k+1}| to the residual, so L grows by 1 per crossing
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    el = bangbang.tanaka_residual_series(y)
    # by hand:  sum sign(Y_k) dY_k = -2 -2 -2 -2 = -8; |Y_4| - |Y_0| = 0
    # L(t_4) = (0 - (-8))/2 = 4
    np.testing.assert_allclose(el, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_occupation_zero_when_path_stays_outside_band():
    p = params(1.0)
    n = 300
    path = bangbang.euler_gap_path(p.lam, 3.0, 0.2, n, increments=np.zeros(n))
    occ = bangbang.occupation_local_time(path.y_values, 0.2 / n, eps=0.5)
    assert occ.shape == (n + 1,) and np.all(occ == 0.0)


@pytest.mark.parametrize("dt,eps", [(0.01, 0.0), (0.01, -0.5), (0.01, math.nan), (0.0, 0.5), (-0.01, 0.5)])
def test_occupation_rejects_a_band_or_step_that_is_not_positive(dt, eps):
    with pytest.raises(ParameterError):
        bangbang.occupation_local_time(np.zeros((3, 2)), dt, eps)
    with pytest.raises(ParameterError):
        bangbang.occupation_local_time(np.zeros((3, 2)), dt, eps, last=True)


def test_occupation_estimator_brownian_mean():
    # lam = 0 hook: Brownian motion; E L(1) = E|W(1)|/2 = 1/sqrt(2 pi)
    oracle = quad(lambda w: abs(w) * math.exp(-w * w / 2) / math.sqrt(2 * math.pi), -12, 12)[0] / 2
    assert abs(oracle - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    n_paths, n_steps = 10_000, 2000
    dt = 1.0 / n_steps
    eps = dt**0.4
    _, y, _ = bangbang.euler_gap_paths_batch(0.0, 0.0, 1.0, n_steps, n_paths, SeedSpec(21).generator())
    occ = bangbang.occupation_local_time(y, dt, eps, last=True)
    se = occ.std() / math.sqrt(n_paths)
    assert abs(occ.mean() - oracle) <= 3 * se + 0.01 * oracle


def test_estimator_cross_check_at_fine_step():
    _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, 10_000, 64, SeedSpec(23).generator())
    el = bangbang.tanaka_residual_matrix(y)[-1]
    eps = (1e-4) ** 0.4
    occ = bangbang.occupation_local_time(y, 1e-4, eps, last=True)
    assert np.median(np.abs(occ - el) / el) <= 0.10


def test_estimators_converge_together_as_dt_shrinks():
    # with eps = dt^0.4 the observed contraction per dt quartering is ~0.67
    # (roughly dt^0.3), i.e. convergent but slower than strict halving
    gaps = []
    for j, n_steps in enumerate([2_500, 10_000]):
        dt = 1.0 / n_steps
        _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, n_steps, 256, SeedSpec(100 + j).generator())
        el = bangbang.tanaka_residual_matrix(y)[-1]
        occ = bangbang.occupation_local_time(y, dt, dt**0.4, last=True)
        ok = el > 0.05
        gaps.append(np.median(np.abs(occ[ok] - el[ok]) / el[ok]))
    assert gaps[1] / gaps[0] <= 0.8


def test_sampler_full_a_marginal_including_atom():
    # after mixing both sides and the no-crossing part, the gap-size marginal
    # is 2 * int triple db + atom density
    p = params(1.5)
    y, t = 0.5, 1.0
    n = 150_000
    batch = bangbang.sample_triples(p, y, t, n, SeedSpec(59))

    def full_marginal(av):
        out = []
        for x in np.atleast_1d(av):
            cont = 2 * quad(lambda bv: bangbang.triple_density(p, y, t, x, bv),
                            1e-12, 40, limit=200)[0]
            out.append(cont + bangbang.atom_density(p, y, t, x))
        return np.array(out)

    grid, cdf = tabulate_pdf(full_marginal, 1e-9, 8.0, 801)
    assert abs(cdf[-1] - 1.0) < 1e-4
    ks = ks_statistic(batch.a, np.interp(batch.a, grid, cdf / cdf[-1]))
    assert ks <= 0.01


# ---------------------------------------------------------------------------
# joint (side, a, b) law
# ---------------------------------------------------------------------------

def test_triple_density_mass_with_atom():
    for lam, t, y in [(1.5, 1.0, 0.5), (2.0, 1.0, 0.0), (0.5, 2.0, 1.5)]:
        p = params(lam)
        cont = dblquad(lambda b, a: bangbang.triple_density(p, y, t, a, b),
                       1e-12, 40, 1e-12, 60, epsabs=1e-10)[0]
        atom = quad(lambda a: bangbang.atom_density(p, y, t, a), 1e-12, 60)[0] if y > 0 else 0.0
        assert abs(2 * cont + atom - 1.0) <= 1e-6
        assert abs(atom - bangbang.atom_mass(p, y, t)) <= 1e-9


def test_triple_density_side_symmetric_by_contract():
    # one function serves both sides; the draw-level symmetry is exercised
    # by the sampler marginals below
    p = params(1.0)
    v = bangbang.triple_density(p, 0.3, 1.0, 0.7, 0.2)
    assert v > 0


def test_triple_density_small_lambda_reduces_to_reference_law():
    # at lam -> 0 the tilt disappears: density -> (a+b+y)/sqrt(2 pi t^3) *
    # exp(-(a+b+y)^2/(2t)), the driftless reference law
    p = params(1e-10)
    for a, b, y in [(0.5, 0.3, 0.2), (1.0, 1.5, 0.0)]:
        got = bangbang.triple_density(p, y, 1.0, a, b)
        s = a + b + y
        ref = s / math.sqrt(2 * math.pi) * math.exp(-s * s / 2)
        assert abs(got - ref) <= 1e-8 * ref


def test_atom_density_vanishes_at_zero_gap():
    p = params(2.0)
    a = np.linspace(0.1, 4.0, 50)
    np.testing.assert_array_equal(bangbang.atom_density(p, 0.0, 1.0, a), np.zeros(50))
    assert bangbang.atom_mass(p, 0.0, 1.0) == 0.0


def test_atom_density_small_lambda_is_reflection_formula():
    p = params(1e-10)
    y, t = 1.0, 1.0
    for a in (0.3, 1.0, 2.5):
        got = bangbang.atom_density(p, y, t, a)
        ref = (math.exp(-((a - y) ** 2) / (2 * t)) - math.exp(-((a + y) ** 2) / (2 * t))) / math.sqrt(2 * math.pi * t)
        assert abs(got - ref) <= 1e-8 * max(ref, 1e-12)


def test_atom_mass_matches_no_crossing_frequency():
    p = params(1.5)
    y0, t = 0.8, 1.0
    n_paths, n_steps = 40_000, 4000
    _, y, _ = bangbang.euler_gap_paths_batch(p.lam, y0, t, n_steps, n_paths, SeedSpec(31).generator())
    never_crossed = np.all(y > 0, axis=0)
    freq = never_crossed.mean()
    mass = bangbang.atom_mass(p, y0, t)
    se = math.sqrt(mass * (1 - mass) / n_paths)
    # Euler overestimates survival by O(sqrt(dt)) (no intra-step minimum)
    assert mass - 3 * se <= freq <= mass + 3 * se + 3 * math.sqrt(t / n_steps)


def test_atom_mass_far_start_is_finite_and_sampler_converges():
    # exp(2 lam y) alone overflows here; the mass is 1 to double precision
    p = params(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mass = bangbang.atom_mass(p, 200.0, 1.0)
        d = planar.exact_sample_terminal(p, InitialState(200.0, 0.0), 1.0, 2000, SeedSpec(3))
    assert math.isfinite(mass) and abs(mass - 1.0) <= 1e-12
    assert np.isfinite(d.x1).all() and np.isfinite(d.x2).all()
    assert d.atom_fraction >= 0.99


def test_atom_sampler_converges_at_a_tiny_acceptance_rate():
    # at y = 1e-4, t = 1 about 1 atom proposal in 9,000 is kept, so the
    # dozen atoms among 10^6 draws need about 10^5 proposals
    batch = bangbang.sample_triples(params(1.0), 1e-4, 1.0, 1_000_000, SeedSpec(1))
    assert 0 < batch.atom.sum() < 100
    assert np.all(np.isfinite(batch.a[batch.atom])) and np.all(batch.a[batch.atom] > 0)


def test_atom_mass_continuous_across_log_space_switch():
    # 2 lam y = 700 at y = 175; with y = lam t the reflected term is about 0.01
    p = params(2.0)
    below = bangbang.atom_mass(p, 175.0 - 1e-9, 87.5)
    above = bangbang.atom_mass(p, 175.0 + 1e-9, 87.5)
    assert 0.0 < below < 1.0
    assert abs(above - below) <= 1e-9


def test_domain_errors():
    p = params(1.0)
    with pytest.raises(ParameterError):
        bangbang.triple_density(p, -0.1, 1.0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        bangbang.triple_density(p, 0.1, 1.0, -0.5, 0.5)
    with pytest.raises(ParameterError):
        bangbang.atom_density(p, 0.1, -1.0, 0.5)
    with pytest.raises(ParameterError):
        bangbang.sample_triples(p, -0.2, 1.0, 10, SeedSpec(1))


# ---------------------------------------------------------------------------
# exact sampler for the triple law
# ---------------------------------------------------------------------------

def test_sampler_never_draws_atom_from_zero_start():
    p = params(2.0)
    batch = bangbang.sample_triples(p, 0.0, 1.0, 50_000, SeedSpec(41))
    assert not batch.atom.any()
    assert np.all(batch.b > 0)


def test_sampler_atom_frequency_and_side():
    p = params(1.5)
    y, t = 0.5, 1.0
    n = 200_000
    batch = bangbang.sample_triples(p, y, t, n, SeedSpec(43))
    mass = bangbang.atom_mass(p, y, t)
    se = math.sqrt(mass * (1 - mass) / n)
    assert abs(batch.atom.mean() - mass) <= 4 * se
    assert np.all(batch.sides[batch.atom] == 1.0)
    # continuous part splits sides evenly
    frac_plus = (batch.sides[~batch.atom] > 0).mean()
    assert abs(frac_plus - 0.5) <= 4 / math.sqrt(n)


def test_sampler_marginals_match_density():
    p = params(1.5)
    y, t = 0.5, 1.0
    n = 200_000
    batch = bangbang.sample_triples(p, y, t, n, SeedSpec(47))
    a, b = batch.a[~batch.atom], batch.b[~batch.atom]

    z_cont = 1.0 - bangbang.atom_mass(p, y, t)

    def a_marginal(av):
        return np.array([2 * quad(lambda bv: bangbang.triple_density(p, y, t, x, bv),
                                  1e-12, 40, limit=200)[0] / z_cont for x in np.atleast_1d(av)])

    grid, cdf = tabulate_pdf(a_marginal, 1e-9, 8.0, 801)
    assert abs(cdf[-1] - 1.0) < 1e-4
    ks_a = ks_statistic(a, np.interp(a, grid, cdf / cdf[-1]))
    assert ks_a <= 0.01

    def b_marginal(bv):
        return np.array([2 * quad(lambda av: bangbang.triple_density(p, y, t, av, x),
                                  1e-12, 40, limit=200)[0] / z_cont for x in np.atleast_1d(bv)])

    grid, cdf = tabulate_pdf(b_marginal, 1e-9, 10.0, 801)
    ks_b = ks_statistic(b, np.interp(b, grid, cdf / cdf[-1]))
    assert ks_b <= 0.01


def test_sampler_joint_chi2():
    p = params(1.5)
    y, t = 0.5, 1.0
    n = 200_000
    batch = bangbang.sample_triples(p, y, t, n, SeedSpec(53))
    a, b = batch.a[~batch.atom], batch.b[~batch.atom]
    from rankdiff.harness import chi2_against_density
    stat, pval, dof = chi2_against_density(
        a, b, lambda x, z: np.where((x > 0) & (z > 0),
                                    bangbang.triple_density(p, y, t, np.maximum(x, 1e-300),
                                                            np.maximum(z, 1e-300)), 0.0),
        n_bins=20)
    assert pval > 0.001


@pytest.mark.parametrize("y", [0.11, 0.12, 0.5])
def test_s_marginal_draws_do_not_quantise_far_in_the_tail(y):
    # the proposal's truncation point is 7.8-35 standard deviations out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = bangbang._sample_s_marginal(2.0, 1e-4, y, 2000, np.random.default_rng(20240601))
    assert np.all(np.isfinite(s)) and np.all(s > y)
    assert np.unique(s).size >= 0.99 * s.size


@pytest.mark.parametrize("y,t", [(0.3, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
def test_triple_laws_reject_non_finite_start_or_time(y, t):
    p = params(1.0)
    for call in (lambda: bangbang.sample_triples(p, y, t, 10, SeedSpec(1)),
                 lambda: bangbang.atom_mass(p, y, t)):
        with pytest.raises(ParameterError):
            call()
    if math.isfinite(y):
        with pytest.raises(ParameterError):
            planar.exact_sample_terminal(p, InitialState(y, 0.0), t, 10, SeedSpec(1))


def test_samplers_reject_negative_sizes_and_accept_zero():
    p = params(1.0)
    with pytest.raises(ParameterError):
        bangbang.sample_triples(p, 0.3, 1.0, -1, SeedSpec(1))
    with pytest.raises(ParameterError):
        planar.exact_sample_terminal(p, InitialState(0.3, 0.0), 1.0, -1, SeedSpec(1))
    batch = bangbang.sample_triples(p, 0.3, 1.0, 0, SeedSpec(1))
    assert len(batch) == 0 and batch.sides.shape == batch.b.shape == batch.atom.shape == (0,)
    draws = planar.exact_sample_terminal(p, InitialState(-0.3, 0.0), 1.0, 0, SeedSpec(1))
    assert draws.x1.shape == draws.x2.shape == (0,)


def test_single_draw_wrapper():
    p = params(1.0)
    d = bangbang.sample_triples(p, 0.4, 1.0, 1, SeedSpec(57))
    assert len(d) == 1 and d.sides[0] in (-1.0, 1.0)
    assert d.a[0] >= 0 and d.b[0] >= 0
    assert d.atom[0] == (d.b[0] == 0.0)


# ---------------------------------------------------------------------------
# input checks of the batched gap kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["euler_gap_terminal", "euler_gap_paths_batch"])
@pytest.mark.parametrize("T,n_steps,n_paths", [(0.0, 10, 5), (-1.0, 10, 5), (math.nan, 10, 5),
                                               (1.0, 0, 5), (1.0, -3, 5), (1.0, 10, 0),
                                               (1.0, 10, -1)])
def test_gap_batch_kernels_reject_bad_sizes(kernel, T, n_steps, n_paths):
    with pytest.raises(ParameterError):
        getattr(bangbang, kernel)(1.0, 0.0, T, n_steps, n_paths, SeedSpec(1).generator())


@pytest.mark.parametrize("kernel", ["euler_gap_path", "euler_gap_terminal", "euler_gap_paths_batch"])
@pytest.mark.parametrize("T,y0", [(math.inf, 0.3), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_gap_kernels_reject_non_finite_horizon_or_start(kernel, T, y0):
    with pytest.raises(ParameterError):
        if kernel == "euler_gap_path":
            bangbang.euler_gap_path(1.0, y0, T, 10, SeedSpec(1))
        else:
            getattr(bangbang, kernel)(1.0, y0, T, 10, 5, SeedSpec(1).generator())


@pytest.mark.parametrize("kernel", ["euler_gap_terminal", "euler_gap_paths_batch"])
def test_gap_batch_kernels_reject_a_non_finite_start_among_many(kernel):
    with pytest.raises(ParameterError):
        getattr(bangbang, kernel)(1.0, np.array([0.1, math.nan, 0.2]), 1.0, 10, 3, SeedSpec(1).generator())


# ---------------------------------------------------------------------------
# input checks of the transition density and the inverse-CDF Y(t) sampler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,y", [(math.inf, 0.3), (math.nan, 0.3), (-1.0, 0.3), (1.0, math.nan),
                                 (1.0, -math.inf), (1.0, np.array([0.2, math.nan]))])
def test_transition_density_rejects_non_finite_time_or_start(t, y):
    with pytest.raises(ParameterError):
        bangbang.transition_density(params(1.0), t, y, 0.5)


@pytest.mark.parametrize("t,y", [(-1.0, 0.3), (0.0, 0.3), (math.inf, 0.3), (math.nan, 0.3),
                                 (1.0, math.nan), (1.0, math.inf)])
def test_terminal_sampler_rejects_bad_time_or_start(t, y):
    with pytest.raises(ParameterError):
        bangbang.sample_terminal_exact(params(1.0), t, y, 10, SeedSpec(1))


def test_terminal_sampler_rejects_negative_size_and_accepts_zero():
    p = params(1.0)
    with pytest.raises(ParameterError):
        bangbang.sample_terminal_exact(p, 1.0, 0.3, -1, SeedSpec(1))
    out = bangbang.sample_terminal_exact(p, 1.0, 0.3, 0, SeedSpec(1))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("y", [0.0, -0.0, 0.3, 4.0, -0.3, -4.0])
def test_terminal_sampler_is_the_mirrored_triple_marginal(y):
    # Y(t) = side * a for y >= 0, and minus that of the start -y for y < 0,
    # bit for bit (np.array_equal would let -0.0 pass for +0.0)
    p = params(2.0)
    out = bangbang.sample_terminal_exact(p, 0.7, y, 2000, SeedSpec(41))
    trip = bangbang.sample_triples(p, -y if y < 0 else y, 0.7, 2000, SeedSpec(41))
    expected = trip.sides * trip.a if not y < 0 else -(trip.sides * trip.a)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("y,t", [(50.0, 1e-4), (0.0, 1e-6)])
def test_terminal_sampler_far_tail_spread(y, t):
    # sqrt(t) small next to |y| (or next to any fixed grid): the SD of the
    # draws must be that of the closed-form law
    p = params(2.0)
    c, st = (y - p.lam * t if y > 0 else 0.0), math.sqrt(t)  # the law's centre and scale
    m0, m1, m2 = (quad(lambda u, k=k: u**k * st * bangbang.transition_density(p, t, y, c + st * u),
                       -14.0, 14.0, points=[-c / st] if abs(c) < 14.0 * st else None, limit=400)[0]
                  for k in (0, 1, 2))
    law_sd = st * math.sqrt(m2 / m0 - (m1 / m0) ** 2)
    draws = bangbang.sample_terminal_exact(p, t, y, 20_000, SeedSpec(43))
    assert abs(draws.std() / law_sd - 1.0) <= 0.03


# ---------------------------------------------------------------------------
# golden digests of the gap kernels and the transition density
# ---------------------------------------------------------------------------

# (lam, y0, T, n_steps, n_paths): a vector start, lam = 0, odd step counts
GAP_CASES = [(2.0, 0.3, 1.0, 200, 64), (0.0, 0.0, 0.5, 51, 33),
             (5.0, np.linspace(-1.0, 1.0, 17), 2.0, 301, 17), (1.0, -0.4, 0.3, 7, 1)]
DENSITY_STARTS = (-0.7, 0.0, 1.3)


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype == np.float64
        h.update(a.tobytes())
    return h.hexdigest()


def _golden_arrays(kernel):
    if kernel in ("terminal", "batch"):
        for i, (lam, y0, T, n_steps, n_paths) in enumerate(GAP_CASES):
            rng = SeedSpec(20240601, i).generator()
            if kernel == "terminal":
                yield bangbang.euler_gap_terminal(lam, y0, T, n_steps, n_paths, rng)
            else:
                yield from bangbang.euler_gap_paths_batch(lam, y0, T, n_steps, n_paths, rng)
        return
    grid = np.linspace(-4.0, 4.0, 97)
    for lam in (0.5, 2.0):
        p = params(lam)
        for t in (0.2, 1.0, 3.0):
            if kernel == "vector-start":
                starts = np.linspace(-2.0, 2.0, 41)
                yield bangbang.transition_density(p, t, starts, 0.3)
                yield bangbang.transition_density(p, t, starts, -grid[:41])
                yield bangbang.transition_density(p, t, starts[:, None], grid[None, :])
                continue
            for y in DENSITY_STARTS:
                if kernel == "scalar":
                    yield [bangbang.transition_density(p, t, y, xi) for xi in (-1.1, 0.0, 0.4)]
                else:
                    yield bangbang.transition_density(p, t, y, grid)


# sha256 of the float64 outputs, recorded before the gap step, the Skorokhod
# formula and the two transition densities were each given a single home;
# "terminal" re-pinned when its step came to round as the batch's,
# (y - lam sign(y) dt) + dw
GOLDEN = {
    "terminal": "52aa599bfed648142e3c5139ea0f59802c76ca3fa4b428c0b8bcfc377f72b93b",
    "batch": "e2b1edf19b6ad5432ff9c17275d5dcd06b4bc1763467399019edc4118ff2c01a",
    "scalar": "156dbb17b1eed641f1d66aaf2e148f3dc210cf92f47275107dfd4512512b6021",
    "array": "60093f9f6c785a477f5c34eccdf5fb23fd6f5ad2f574dbfee0ddb5e9e00375a4",
    "vector-start": "eff844273410e0534e02c9062d2026daa89a0ea547668afeb5a07b3b4820752b",
}


@pytest.mark.parametrize("kernel", sorted(GOLDEN))
def test_gap_kernels_and_density_match_golden_digest(kernel):
    assert _sha256(_golden_arrays(kernel)) == GOLDEN[kernel]


@pytest.mark.parametrize("case", range(len(GAP_CASES)))
def test_gap_kernels_take_one_step(case):
    # every gap Euler kernel steps Y by the same rounding: the terminal kernel
    # ends on the batch's last row, and each single path is the batch column
    # drawn from the same stream
    lam, y0, T, n_steps, n_paths = GAP_CASES[case]
    seed = SeedSpec(20240601, case)
    end = bangbang.euler_gap_terminal(lam, y0, T, n_steps, n_paths, seed.generator())
    _, y, dw = bangbang.euler_gap_paths_batch(lam, y0, T, n_steps, n_paths, seed.generator())
    assert end.tobytes() == y[-1].tobytes()
    for start in np.broadcast_to(y0, (n_paths,))[:3]:
        _, col, _ = bangbang.euler_gap_paths_batch(lam, start, T, n_steps, 1, seed.generator())
        path = bangbang.euler_gap_path(lam, start, T, n_steps, seed)
        assert path.y_values.tobytes() == col[:, 0].tobytes()


def _sampler_arrays(kernel):
    """Exact draws over a far-tail grid of (lam, t, y), 64 per case."""
    i = 0
    for lam in (0.2, 5.0, 50.0):
        for t in (1e-4, 0.1, 3.0, 100.0):
            for y in (0.0, 0.3, 4.0):
                seed = SeedSpec(20240601, i)
                i += 1
                if kernel == "triples":
                    batch = bangbang.sample_triples(params(lam), y, t, 64, seed)
                    yield from (batch.sides, batch.a, batch.b, batch.atom.astype(float))
                else:
                    d = planar.exact_sample_terminal(params(lam, 0.8, 0.6), InitialState(y, 0.0), t, 64, seed)
                    yield from (d.x1, d.x2)


# sha256 of the draws, re-pinned when the envelope became the analytic peak
# of the ratio and each sampler came to draw one sized round of upper-tail
# proposals
SAMPLER_GOLDEN = {
    "triples": "f32e78846e210597d7034846643c981acca6d10547f9621834ba0edb916997a8",
    "terminal": "eb79837c2fc4a41c8eceba45bea12564af244abc48c5eabdac4ea084d5cb5590",
}


@pytest.mark.parametrize("kernel", sorted(SAMPLER_GOLDEN))
def test_exact_samplers_match_golden_digest(kernel):
    assert _sha256(_sampler_arrays(kernel)) == SAMPLER_GOLDEN[kernel]


def test_density_scalar_and_array_conventions():
    p = params(1.0)
    assert isinstance(bangbang.transition_density(p, 1.0, 0.2, 0.5), float)
    assert isinstance(bangbang.transition_density(p, 1.0, np.float64(-0.2), np.array(0.5)), float)
    assert bangbang.transition_density(p, 1.0, 0.2, [0.5]).shape == (1,)
    both = bangbang.transition_density(p, 1.0, np.array([-0.2, 0.2]), np.array([[0.5], [-0.5]]))
    assert both.shape == (2, 2)
    # a negative start is the mirror image of the positive one
    assert both[0, 0] == both[1, 1] and both[0, 1] == both[1, 0]


# ---------------------------------------------------------------------------
# blocked scans: bit-identical to the whole-array formulas
# ---------------------------------------------------------------------------

def tanaka_whole(y):
    s = np.where(y[:-1] > 0, 1.0, -1.0)
    stoch = np.concatenate([np.zeros((1,) + y.shape[1:]), np.cumsum(s * np.diff(y, axis=0), axis=0)])
    return np.maximum.accumulate(0.5 * (np.abs(y) - np.abs(y[0]) - stoch), axis=0)


def skorokhod_whole(y, dw, times, lam):
    grid = np.reshape(times, (-1,) + (1,) * (y.ndim - 1))
    s = np.where(y[:-1] > 0, 1.0, -1.0)
    v_flat = np.concatenate([np.zeros((1,) + y.shape[1:]), np.cumsum(s * dw, axis=0)])
    return np.maximum.accumulate(np.maximum(-(np.abs(y[0]) + v_flat - lam * grid), 0.0), axis=0)


def occupation_whole(y, dt, eps):
    # the count criterion 8 takes, in one sum: integer sums are exact in any order
    return (np.abs(y[:-1]) < eps).sum(axis=0) * dt / (4.0 * eps)


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_scans_exact(y, dw, times, lam=1.5):
    tanaka, skorokhod = tanaka_whole(y), skorokhod_whole(y, dw, times, lam)
    assert_same_bytes(bangbang.tanaka_residual_series(y), tanaka)
    assert_same_bytes(bangbang.tanaka_residual_matrix(y), tanaka)
    assert_same_bytes(bangbang.skorokhod_local_time_series(y, dw, times, lam), skorokhod)
    # the last row alone
    assert_same_bytes(bangbang.tanaka_residual_series(y, last=True), tanaka[-1])
    assert_same_bytes(bangbang.skorokhod_local_time_series(y, dw, times, lam, last=True), skorokhod[-1])
    # the occupation estimator: its blocked count, and the series ending in it
    occupation = bangbang.occupation_local_time(y, 0.01, 0.5, last=True)
    assert_same_bytes(occupation, occupation_whole(y, 0.01, 0.5))
    series = bangbang.occupation_local_time(y, 0.01, 0.5)
    assert series.shape == y.shape and not series[:1].any()
    assert_same_bytes(series[-1], occupation)


def lattice_batch(n_rows, n_cols, seed):
    """Paths on a half-integer lattice: many exact zeros, ties and zero
    increments, so the sign(0) = -1 rule and signed zeros are exercised."""
    rng = SeedSpec(seed).generator()
    y = rng.integers(-3, 4, (n_rows,) + n_cols) * 0.5
    dw = rng.standard_normal((n_rows - 1,) + n_cols)
    return y, dw, np.linspace(0.0, 1.0, n_rows)


@pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 511, 512, 513, 1000])
def test_blocked_scans_exact_around_block_rows(n_steps):
    # 256 paths: a block holds 2**16 // 256 = 256 increment rows
    times, y, dw = bangbang.euler_gap_paths_batch(2.0, 0.1, 1.0, n_steps, 256, SeedSpec(n_steps).generator())
    assert_scans_exact(y, dw, times)
    assert_scans_exact(*lattice_batch(n_steps + 1, (256,), n_steps))


def test_blocked_scans_exact_on_one_row_and_wide_rows():
    assert_scans_exact(np.array([[0.3, -0.2, 0.0]]), np.empty((0, 3)), np.array([0.0]))
    assert_scans_exact(np.array([-0.4]), np.empty(0), np.array([0.0]))
    assert_scans_exact(*lattice_batch(4, ((1 << 16) + 3,), 7))  # a row wider than one block
    assert_scans_exact(np.empty((5, 0)), np.empty((4, 0)), np.linspace(0.0, 1.0, 5))


def test_blocked_scans_exact_on_reversed_and_one_dimensional_paths():
    times, y, dw = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, 700, 300, SeedSpec(3).generator())
    assert_scans_exact(y[::-1], dw[::-1], times)
    assert_scans_exact(y[:, 0], dw[:, 0], times)  # 1-D and strided
    path = bangbang.euler_gap_path(2.0, 0.2, 1.0, 70_000, seed=5)  # 1-D over two blocks
    assert_scans_exact(path.y_values, path.w_increments, path.times)
    assert_same_bytes(path.l_values, tanaka_whole(path.y_values))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 200), st.integers(0, 1500), st.integers(0, 2**32 - 1))
def test_blocked_scans_exact_property(n_rows, n_cols, seed):
    assert_scans_exact(*lattice_batch(n_rows, (n_cols,) if n_cols else (), seed))
