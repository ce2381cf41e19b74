import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from rankdiff import bangbang, planar
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params


def params(lam, rho=1.0, sigma=0.0):
    return validate_params(lam / 2, lam / 2, rho, sigma)


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
                       * bangbang.transition_density_from(p, 0.6, u, xi)),
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
    grid, cdf = bangbang.transition_cdf_table(p, 1.0, -1.0)
    from rankdiff.harness import ks_statistic
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
    path = bangbang.simulate_y(p, 1.0, 1.0, n, increments=np.zeros(n))
    k = 400  # y stays positive until t = y0/lam = 2/3
    expected = 1.0 - 1.5 * path.times[:k]
    np.testing.assert_allclose(path.y_values[:k], expected, atol=1e-12)
    assert np.all(np.abs(path.y_values[700:]) <= 1.5 / n + 1e-12)


def test_simulate_reproducible_and_records_noise():
    p = params(2.0)
    a = bangbang.simulate_y(p, 0.3, 1.0, 500, SeedSpec(9))
    b = bangbang.simulate_y(p, 0.3, 1.0, 500, SeedSpec(9))
    np.testing.assert_array_equal(a.y_values, b.y_values)
    redone = bangbang.simulate_y(p, 0.3, 1.0, 500, increments=a.w_increments)
    np.testing.assert_array_equal(a.y_values, redone.y_values)
    assert a.l_values[0] == 0.0
    assert np.all(np.diff(a.l_values) >= 0)


def test_terminal_law_matches_closed_form():
    p = params(2.0)
    rng = SeedSpec(11).generator()
    n = 100_000
    y = bangbang.euler_gap_terminal(p.lam, 0.0, 1.0, 1000, n, rng)
    grid, cdf = bangbang.transition_cdf_table(p, 1.0, 0.0)
    from rankdiff.harness import ks_statistic
    ks = ks_statistic(y, np.interp(y, grid, cdf / cdf[-1]))
    assert ks <= 0.01


def test_exact_terminal_sampler_matches_euler():
    p = params(2.0)
    exact = bangbang.sample_terminal_exact(p, 1.0, 0.5, 50_000, SeedSpec(13))
    euler = bangbang.euler_gap_terminal(p.lam, 0.5, 1.0, 1000, 50_000, SeedSpec(14).generator())
    from rankdiff.harness import ks_two_sample
    assert ks_two_sample(exact, euler) <= 0.015


# ---------------------------------------------------------------------------
# local time
# ---------------------------------------------------------------------------

def test_no_sign_change_means_no_local_time():
    p = params(1.0)
    n = 500
    path = bangbang.simulate_y(p, 5.0, 0.5, n, increments=np.full(n, 1e-4))
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
    path = bangbang.simulate_y(p, 3.0, 0.2, n, increments=np.zeros(n))
    occ = bangbang.occupation_local_time(path, eps=0.5)
    assert np.all(occ == 0.0)


def test_occupation_estimator_brownian_mean():
    # lam = 0 hook: Brownian motion; E L(1) = E|W(1)|/2 = 1/sqrt(2 pi)
    oracle = quad(lambda w: abs(w) * math.exp(-w * w / 2) / math.sqrt(2 * math.pi), -12, 12)[0] / 2
    assert abs(oracle - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    n_paths, n_steps = 10_000, 2000
    dt = 1.0 / n_steps
    eps = dt**0.4
    _, y, _ = bangbang.euler_gap_paths_batch(0.0, 0.0, 1.0, n_steps, n_paths, SeedSpec(21).generator())
    occ = (np.abs(y[:-1]) < eps).sum(axis=0) * dt / (4 * eps)
    se = occ.std() / math.sqrt(n_paths)
    assert abs(occ.mean() - oracle) <= 3 * se + 0.01 * oracle


def test_estimator_cross_check_at_fine_step():
    _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, 10_000, 64, SeedSpec(23).generator())
    el = bangbang.tanaka_residual_matrix(y)[-1]
    eps = (1e-4) ** 0.4
    occ = (np.abs(y[:-1]) < eps).sum(axis=0) * 1e-4 / (4 * eps)
    assert np.median(np.abs(occ - el) / el) <= 0.10


def test_estimators_converge_together_as_dt_shrinks():
    # with eps = dt^0.4 the observed contraction per dt quartering is ~0.67
    # (roughly dt^0.3), i.e. convergent but slower than strict halving
    gaps = []
    for j, n_steps in enumerate([2_500, 10_000]):
        dt = 1.0 / n_steps
        _, y, _ = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, n_steps, 256, SeedSpec(100 + j).generator())
        el = bangbang.tanaka_residual_matrix(y)[-1]
        occ = (np.abs(y[:-1]) < dt**0.4).sum(axis=0) * dt / (4 * dt**0.4)
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
    from rankdiff.harness import ks_statistic, tabulate_pdf

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
    from rankdiff.harness import ks_statistic, tabulate_pdf

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


def test_single_draw_wrapper():
    p = params(1.0)
    d = bangbang.sample_triple(p, 0.4, 1.0, SeedSpec(57))
    assert d.side in ("plus", "minus")
    assert d.a >= 0 and d.b >= 0
    assert d.atom == (d.b == 0.0)
