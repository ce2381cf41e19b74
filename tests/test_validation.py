"""The battery's exact checks as array programs: the classifier sweep of
criteria 1 and 2 and the batched Chapman-Kolmogorov quadrature of criterion
4 against the per-configuration and per-xi code they replaced, and the row
blocks of criterion 5's marginal tables against the whole grid."""

import math

import numpy as np
import pytest

from rankdiff import bangbang, classifier, densities, validation
from rankdiff.core import ParameterError, SeedSpec, validate_params
from rankdiff.harness import grid_values


def loop_draws(rng, n):
    """The sweep's draws as the per-configuration loop made them."""
    out = []
    for _ in range(n):
        u = rng.uniform(0.02, math.pi / 2 - 0.02)
        eps, dlt = (1 if rng.random() < 0.5 else -1), (1 if rng.random() < 0.5 else -1)
        out.append((u, eps, dlt, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
    return [np.array(col) for col in zip(*out)]


def test_sweep_draws_are_the_loop_draws():
    swept = validation._sweep_configs(SeedSpec(5).generator(), 500)
    for got, want in zip(swept, loop_draws(SeedSpec(5).generator(), 500)):
        assert got.tobytes() == want.astype(got.dtype).tobytes()
    assert swept[1].dtype.kind == swept[2].dtype.kind == "i"


def sweep_counts(seed, n=10_000):
    reports = validation.check_classifier(SeedSpec(seed).stream(1000), n_sweep=n)
    agreement, weak = reports[-2:]
    assert agreement.name == "classifier/criteria-agreement" and weak.name == "classifier/weak-fraction"
    return int(agreement.statistic), round(weak.statistic * n)


@pytest.mark.parametrize("seed,counts", [(20240601, (0, 0)), (9307, (0, 1)), (31, (0, 0))])
def test_sweep_counts_match_the_per_config_loop(seed, counts):
    # (disagreements, weak) as the loop over build_config and strength counted them
    assert sweep_counts(seed) == counts


def swept(seed, n):
    """The sweep's draws, its (rho, sigma) and its (phi, vartheta, psi, ip_sum_norm,
    weak_scalar, geom_defect) columns, as check_classifier makes them, and by_ip."""
    u, eps, dlt, phi, vartheta = validation._sweep_configs(SeedSpec(seed).stream(1000).stream(0).generator(), n)
    rho, sigma = np.cos(u), np.sin(u)
    norm = np.sqrt(rho**2 + sigma**2)
    rho, sigma = rho / norm, sigma / norm
    phi_w, vartheta_w, _, m, psi = classifier.square_roots(rho, sigma, eps, dlt, phi, vartheta)
    ip, scalar, geom, (by_ip, _, _) = classifier.criteria(rho, sigma, eps, dlt, phi_w, vartheta_w, psi,
                                                          m[:, 0], m[:, 1])
    cols = np.column_stack([phi_w, vartheta_w, psi, ip, scalar, geom])
    return (u, eps, dlt, phi, vartheta), (rho, sigma), cols, by_ip


def one_config(p, eps, dlt, phi, vartheta):
    cfg = classifier.build_config(p, eps, dlt, phi, vartheta)
    v = classifier.strength(cfg)
    return v.strong, [cfg.phi, cfg.vartheta, cfg.psi, v.ip_sum_norm, v.weak_scalar, v.geom_defect]


def test_swept_verdicts_are_the_one_config_verdicts():
    (u, eps, dlt, phi, vartheta), _, cols, by_ip = swept(9307, 3_200)
    for k in range(len(u)):
        p = validate_params(1.0, 1.0, math.cos(u[k]), math.sin(u[k]), renormalize=True)
        strong, one = one_config(p, eps[k], dlt[k], phi[k], vartheta[k])
        assert strong == (not by_ip[k])
        # validate_params and the sweep both renormalise with x * x: bit for bit
        assert np.array(one).tobytes() == cols[k].tobytes()
    assert np.flatnonzero(by_ip).tolist() == [3089]  # the seed's one weak configuration, ip 8.7e-7


def test_validate_params_renormalises_as_the_sweep_does():
    # both square as x * x; when validate_params squared with pow, 3 of the battery's
    # 10,000 configurations at this seed came out an ulp apart
    (u, *_), (rho, sigma), _, _ = swept(20240601, 10_000)
    c, s = np.cos(u), np.sin(u)
    got = np.array([[p.rho, p.sigma] for p in
                    (validate_params(1.0, 1.0, c[k], s[k], renormalize=True) for k in range(len(u)))])
    assert got[:, 0].tobytes() == rho.tobytes() and got[:, 1].tobytes() == sigma.tobytes()


@pytest.mark.parametrize("seed", [20240601, 9307, 31])
def test_sweep_equals_the_one_config_path_bit_for_bit(seed):
    # both square as x * x, so on the sweep's own (rho, sigma) the two cases agree to the bit
    (_, eps, dlt, phi, vartheta), (rho, sigma), cols, _ = swept(seed, 10_000)
    one = [one_config(validate_params(1.0, 1.0, rho[k], sigma[k]), eps[k], dlt[k], phi[k], vartheta[k])[1]
           for k in range(len(rho))]
    assert np.array(one).tobytes() == cols.tobytes()


def test_axis_roots_as_64_configs_equal_64_one_config_calls():
    for rho, sigma in [(1 / math.sqrt(2), 1 / math.sqrt(2)), (1.0, 0.0), (0.0, 1.0), (0.8, 0.6)]:
        p = validate_params(1.0, 1.0, rho, sigma, renormalize=True)
        cfgs, verdicts, _ = classifier.enumerate_diagonal_roots(p)
        for cfg, v in zip(cfgs, verdicts):
            one = classifier.build_config(p, cfg.root_sign_plus, cfg.root_sign_minus, cfg.phi, cfg.vartheta)
            assert one == cfg and classifier.strength(one) == v
            for name in ("unit", "sigma_plus", "sigma_minus"):
                assert getattr(one, name).tobytes() == getattr(cfg, name).tobytes()


def test_sweep_keeps_the_residual_and_normalization_checks(monkeypatch):
    seed = SeedSpec(20240601).stream(1000)
    # the axis roots are exact signed permutations (residual 0); the swept ones are not
    monkeypatch.setattr(classifier, "SQRT_RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="square-root residual"):
        validation.check_classifier(seed, n_sweep=500)
    monkeypatch.undo()
    monkeypatch.setattr(validation, "NORMALIZATION_TOL", -1.0)
    with pytest.raises(ParameterError, match="normalization"):
        validation.check_classifier(seed, n_sweep=500)


def test_batched_convolutions_equal_the_per_xi_quadratures():
    n = 0
    for lam in validation._LAM_GRID:
        p = validation._params_for_lam(lam)
        for t in validation._T_GRID:
            for y in validation._Y_GRID:
                conv, direct = validation._ck_convolutions(p, t, y)
                hw = abs(y) + lam * t + 12 * math.sqrt(t) + 2
                s = math.sqrt(t)
                for k, xi in enumerate((-3 * s, -s, -0.2 * s, 0.0, 0.4 * s, 1.5 * s, 3 * s)):
                    def integrand(u):
                        return (bangbang.transition_density(p, 0.4 * t, y, u)
                                * bangbang.transition_density(p, 0.6 * t, u, xi))
                    assert conv[k] == validation._integrate_kinked(integrand, -hw, hw, kinks=[0.0], n_panels=24)
                    assert direct[k] == bangbang.transition_density(p, t, y, xi)
                    n += 1
    assert n == 252
    assert validation.check_chapman_kolmogorov()[0].statistic == 6.217248937900877e-14


@pytest.mark.parametrize("case", range(4))
def test_blocked_marginals_equal_the_whole_grid_sums(case):
    _, p, s0 = validation._sampler_cases()[case]
    (g1, cdf1, atoms1), (g2, cdf2, atoms2) = validation._fine_grid_marginals(
        p, s0, 1.0, -4.0, 5.0, -5.0, 4.5)
    c1, c2 = (g1[1:] + g1[:-1]) / 2, (g2[1:] + g2[:-1]) / 2
    vals = grid_values(lambda a, b: densities.planar_density(p, s0, 1.0, a, b), c1, c2)
    m1, m2 = vals.sum(axis=1) * (g2[1] - g2[0]), vals.sum(axis=0) * (g1[1] - g1[0])
    atom = densities.planar_atom(p, s0, 1.0)
    if atom is not None:
        if atom.axis == "x2":
            m1 = m1 + atom.density(c1)
        else:
            m2 = m2 + atom.density(c2)
    assert len(atoms1) + len(atoms2) == (atom is not None)
    assert cdf1.tobytes() == np.concatenate([[0.0], np.cumsum(m1 * (g1[1] - g1[0]))]).tobytes()
    assert cdf2.tobytes() == np.concatenate([[0.0], np.cumsum(m2 * (g2[1] - g2[0]))]).tobytes()
