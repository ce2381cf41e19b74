import math

import numpy as np
import pytest

from rankdiff import classifier
from rankdiff.core import ParameterError, SeedSpec, validate_params

RHO_SIGMA_CASES = [
    (1 / math.sqrt(2), 1 / math.sqrt(2)),
    (1.0, 0.0),
    (0.0, 1.0),
    (0.8, 0.6),
    (0.95, math.sqrt(1 - 0.95**2)),
]


def params(rho, sigma):
    return validate_params(1.0, 1.0, rho, sigma, renormalize=True)


def system(p, name):
    return classifier.build_config(p, *classifier.SYSTEMS[name])


def test_named_example_matrices():
    p = params(0.8, 0.6)
    b = system(p, "B")
    np.testing.assert_allclose(b.sigma_plus, np.diag([0.8, 0.6]), atol=1e-15)
    np.testing.assert_allclose(b.sigma_minus, np.diag([0.6, 0.8]), atol=1e-15)
    w = system(p, "W")
    np.testing.assert_allclose(w.sigma_plus, [[0.8, 0.0], [0.0, -0.6]], atol=1e-15)
    np.testing.assert_allclose(w.sigma_minus, [[0.0, 0.6], [-0.8, 0.0]], atol=1e-15)
    v = system(p, "V")
    np.testing.assert_allclose(v.sigma_plus, np.diag([0.8, 0.6]), atol=1e-15)
    np.testing.assert_allclose(v.sigma_minus, [[0.0, 0.6], [0.8, 0.0]], atol=1e-15)


def test_quarter_turns_give_exact_signed_permutations():
    p = params(0.8, 0.6)
    np.testing.assert_array_equal(system(p, "W").sigma_minus, [[0.0, 0.6], [-0.8, 0.0]])
    np.testing.assert_array_equal(system(p, "V").sigma_minus, [[0.0, 0.6], [0.8, 0.0]])
    cfgs, _, _ = classifier.enumerate_diagonal_roots(p)
    for cfg in cfgs:
        assert set(np.abs(cfg.unit).ravel()) == {0.0, 1.0}
        assert np.all(np.count_nonzero(cfg.unit, axis=-1) == 1)
    # 3 pi / 2 and -pi / 2 are the same quarter turn
    a = classifier.build_config(p, 1, -1, 2 * math.pi, 3 * math.pi / 2)
    np.testing.assert_array_equal(a.unit, system(p, "V").unit)


def test_other_angles_keep_the_plain_trig_blocks():
    rng = SeedSpec(29).generator()
    for _ in range(500):
        u = rng.uniform(0.02, math.pi / 2 - 0.02)
        p = params(math.cos(u), math.sin(u))
        eps, dlt = (1 if rng.random() < 0.5 else -1), (1 if rng.random() < 0.5 else -1)
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        cfg = classifier.build_config(p, eps, dlt, phi, theta)
        cp, sp, ct, st = math.cos(phi), math.sin(phi), math.cos(theta), math.sin(theta)
        rho, sg = p.rho, p.sigma
        plus = np.array([[rho * cp, -rho * sp], [eps * sg * sp, eps * sg * cp]])
        minus = np.array([[sg * ct, -sg * st], [dlt * rho * st, dlt * rho * ct]])
        assert cfg.sigma_plus.tobytes() == plus.tobytes()
        assert cfg.sigma_minus.tobytes() == minus.tobytes()


@pytest.mark.parametrize("rho,sigma", RHO_SIGMA_CASES)
def test_named_example_verdicts(rho, sigma):
    p = params(rho, sigma)
    assert classifier.strength(system(p, "B")).strong
    assert classifier.strength(system(p, "W")).strong
    assert not classifier.strength(system(p, "V")).strong


@pytest.mark.parametrize("rho,sigma", RHO_SIGMA_CASES)
def test_square_root_property(rho, sigma):
    p = params(rho, sigma)
    rng = SeedSpec(3).generator()
    for _ in range(200):
        cfg = classifier.build_config(
            p, 1 if rng.random() < 0.5 else -1, 1 if rng.random() < 0.5 else -1,
            rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        a_plus = cfg.sigma_plus @ cfg.sigma_plus.T
        a_minus = cfg.sigma_minus @ cfg.sigma_minus.T
        assert np.abs(a_plus - np.diag([p.rho**2, p.sigma**2])).max() <= 1e-12
        assert np.abs(a_minus - np.diag([p.sigma**2, p.rho**2])).max() <= 1e-12
        d = np.array([1.0, -1.0])
        assert abs(np.linalg.norm(d @ cfg.sigma_plus) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(d @ cfg.sigma_minus) - 1.0) <= 1e-12


def test_psi_branch_and_angle_reduction():
    p = params(0.8, 0.6)
    cfg = classifier.build_config(p, 1, 1, 7.0, -9.0)  # arbitrary real angles
    assert -math.pi < cfg.phi <= math.pi
    assert -math.pi < cfg.vartheta <= math.pi
    assert -math.pi < cfg.psi <= math.pi
    assert math.isclose(math.cos(cfg.psi), p.rho * p.sigma * 2, abs_tol=1e-12)
    assert math.isclose(math.sin(cfg.psi), p.sigma**2 - p.rho**2, abs_tol=1e-12)


@pytest.mark.parametrize("rho,sigma,expected", [
    (1 / math.sqrt(2), 1 / math.sqrt(2), 48),
    (1.0, 0.0, 48),
    (0.0, 1.0, 48),
    (0.8, 0.6, 56),
    (0.6, 0.8, 56),
])
def test_enumeration_counts(rho, sigma, expected):
    p = params(rho, sigma)
    cfgs, verdicts, strong = classifier.enumerate_diagonal_roots(p)
    assert len(cfgs) == 64
    assert len(verdicts) == 64
    assert strong == expected


def test_enumeration_generates_axis_matrices():
    # every generated block is a signed diagonal or antidiagonal pattern
    p = params(0.8, 0.6)
    cfgs, _, _ = classifier.enumerate_diagonal_roots(p)
    plus_seen = set()
    for cfg in cfgs:
        m = cfg.sigma_plus
        diag_like = abs(m[0, 1]) < 1e-14 and abs(m[1, 0]) < 1e-14
        anti_like = abs(m[0, 0]) < 1e-14 and abs(m[1, 1]) < 1e-14
        assert diag_like or anti_like
        plus_seen.add(tuple(np.round(m, 12).ravel()))
    assert len(plus_seen) == 8


def test_criteria_agree_on_random_sweep():
    rng = SeedSpec(17).generator()
    weak = 0
    for _ in range(10_000):
        u = rng.uniform(0.02, math.pi / 2 - 0.02)
        p = params(math.cos(u), math.sin(u))
        cfg = classifier.build_config(
            p, 1 if rng.random() < 0.5 else -1, 1 if rng.random() < 0.5 else -1,
            rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        verdict = classifier.strength(cfg)  # raises if the criteria disagree
        weak += not verdict.strong
    assert weak / 10_000 < 0.01


def test_criteria_agree_on_a_near_weak_config():
    # angle defect 8.7e-7: 1 - cos of it is 3.8e-13, under the scalar cut-off
    # 1e-12, so the other two criteria must read it as weak as well
    p = params(0.17434422615974432, 0.9846847672249023)
    cfg = classifier.build_config(p, -1, 1, 4.026637496698281, 5.597434697673112)
    v = classifier.strength(cfg)
    assert not v.strong and v.geom_holds
    assert 8e-7 < v.ip_sum_norm <= classifier.IP_TOL and 8e-7 < v.geom_defect <= classifier.ANGLE_TOL


def test_criteria_agree_near_the_weak_set():
    # angle defects log-uniform over 1e-10 .. 1e-3 around the weak set, where
    # the three criteria straddle their cut-offs unless those match
    rng = SeedSpec(23).generator()
    for _ in range(2_000):
        u = rng.uniform(0.02, math.pi / 2 - 0.02)
        p = params(math.cos(u), math.sin(u))
        eps, dlt = (1 if rng.random() < 0.5 else -1), (1 if rng.random() < 0.5 else -1)
        phi = rng.uniform(0, 2 * math.pi)
        psi = classifier.build_config(p, eps, dlt, phi, 0.0).psi
        defect = 10 ** rng.uniform(-10, -3) * (1 if rng.random() < 0.5 else -1)
        cfg = classifier.build_config(p, eps, dlt, phi, phi + psi - math.pi + defect)
        verdict = classifier.strength(cfg)  # raises if the criteria disagree
        if abs(defect) < classifier.IP_TOL / 2:
            assert not verdict.strong
        elif abs(defect) > 2 * classifier.IP_TOL:
            assert verdict.strong


def test_verdict_fields_consistent():
    p = params(0.8, 0.6)
    v = classifier.strength(system(p, "V"))
    assert v.ip_sum_norm <= classifier.IP_TOL
    assert abs(v.weak_scalar + 1.0) <= classifier.SCALAR_TOL
    assert v.geom_holds and v.geom_defect <= classifier.ANGLE_TOL
    s = classifier.strength(system(p, "B"))
    assert s.ip_sum_norm > classifier.IP_TOL and not s.geom_holds


def test_constructor_is_build_config():
    # the constructor reduces the angles, derives the blocks and psi, and checks the residual
    p = params(0.8, 0.6)
    for eps, dlt, phi, theta in [(1, -1, 7.0, -9.0), (-1, 1, -4.0, 3 * math.pi / 2), (1, 1, 2 * math.pi, math.pi)]:
        direct = classifier.SqrtConfig(p.rho, p.sigma, eps, dlt, phi, theta)
        built = classifier.build_config(p, eps, dlt, phi, theta)
        assert direct == built and -math.pi < direct.phi <= math.pi and -math.pi < direct.vartheta <= math.pi
        for name in ("unit", "sigma_plus", "sigma_minus"):
            assert getattr(direct, name).tobytes() == getattr(built, name).tobytes()


def test_constructor_raises_on_a_residual_failure(monkeypatch):
    monkeypatch.setattr(classifier, "SQRT_RESIDUAL_TOL", 0.0)
    p = params(0.8, 0.6)
    with pytest.raises(RuntimeError, match="square-root residual"):
        classifier.SqrtConfig(p.rho, p.sigma, 1, 1, 0.7, 2.1)


def test_build_config_rejects_bad_signs():
    p = params(0.8, 0.6)
    with pytest.raises(Exception):
        classifier.build_config(p, 0, 1, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["phi", "vartheta"])
def test_build_config_rejects_a_non_finite_angle(which, bad):
    # a NaN angle fails every "<= tol" test of the criteria and so read as strong
    angles = {"phi": 0.0, "vartheta": 0.0, which: bad}
    with pytest.raises(ParameterError, match="root angles must be finite"):
        classifier.build_config(params(0.8, 0.6), 1, 1, angles["phi"], angles["vartheta"])
