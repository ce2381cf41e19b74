import hashlib
import math

import numpy as np
import pytest

from rankdiff import bangbang, classifier, planar
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params
from rankdiff.harness import ks_two_sample

P_DEG = validate_params(1.0, 1.0, 1.0, 0.0)
P_ISO = validate_params(1.0, 0.5, 1 / math.sqrt(2), 1 / math.sqrt(2), renormalize=True)
P_GEN = validate_params(1.0, 0.5, 0.8, 0.6)
ALL_KINDS = ["B", "W", "V"]


# ---------------------------------------------------------------------------
# Euler simulation
# ---------------------------------------------------------------------------

def test_drift_only_skeleton_flips_order():
    # zero noise: leader loses h per unit time, laggard gains g
    p = validate_params(1.0, 0.5, 0.8, 0.6)
    s0 = InitialState(0.3, 0.0)
    n = 1000
    path = planar.euler_simulate("B", p, s0, 1.0, n, increments=np.zeros((n, 2)))
    k = 150  # order flips at t = y/(g+h) = 0.2
    np.testing.assert_allclose(path.x1_values[:k], 0.3 - 0.5 * path.times[:k], atol=1e-12)
    np.testing.assert_allclose(path.x2_values[:k], 1.0 * path.times[:k], atol=1e-12)
    # after meeting, both keep drifting but stay within a step of each other
    assert np.all(np.abs(path.y_values[400:]) <= 1.5 / n * 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sum_identity_exact_per_step(kind):
    s0 = InitialState(0.4, -0.1)
    path = planar.euler_simulate(kind, P_GEN, s0, 1.0, 2000, SeedSpec(3))
    v = planar.noise_bundle(path).path("V")
    lhs = path.x1_values + path.x2_values
    rhs = s0.z + P_GEN.nu * path.times + v
    assert np.abs(lhs - rhs).max() <= 1e-10
    np.testing.assert_allclose(path.v_values, v, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_difference_is_exact_gap_euler_path(kind):
    s0 = InitialState(0.2, 0.0)
    path = planar.euler_simulate(kind, P_GEN, s0, 1.0, 1500, SeedSpec(5))
    w_inc = planar.gap_driver_increments(path)
    redone = bangbang.euler_gap_path(P_GEN.lam, s0.y, 1.0, 1500, increments=w_inc)
    np.testing.assert_allclose(path.y_values, redone.y_values, atol=1e-12)


def test_custom_root_difference_identity():
    cfg = classifier.build_config(P_GEN, -1, 1, 1.2, -0.4)
    path = planar.euler_simulate(cfg, P_GEN, InitialState(0.0, 0.0), 1.0, 1000, SeedSpec(7))
    w_inc = planar.gap_driver_increments(path)
    redone = bangbang.euler_gap_path(P_GEN.lam, 0.0, 1.0, 1000, increments=w_inc)
    np.testing.assert_allclose(path.y_values, redone.y_values, atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        planar.euler_simulate("X", P_GEN, InitialState(0, 0), 1.0, 10, SeedSpec(1))


# ---------------------------------------------------------------------------
# noise bundle
# ---------------------------------------------------------------------------

def test_bundle_quadratic_variation_and_orthogonality():
    path = planar.euler_simulate("B", P_GEN, InitialState(0.1, 0.0), 1.0, 20_000, SeedSpec(11))
    b = planar.noise_bundle(path)
    for name in ("W", "V", "U", "Q", "Wflat", "Vflat", "Uflat", "Qflat"):
        qv = float(np.sum(b.increments(name) ** 2))
        assert abs(qv - 1.0) <= 0.05, name
    cross = float(np.sum(b.increments("W") * b.increments("Uflat")))
    assert abs(cross) <= 0.05


def test_reconstructed_rank_noises_uncorrelated():
    n_steps = 20_000
    path = planar.euler_simulate("B", P_DEG, InitialState(0.0, 0.0), 1.0, n_steps, SeedSpec(13))
    b = planar.noise_bundle(path)
    dv1, dv2 = b.increments("V1"), b.increments("V2")
    r = np.corrcoef(dv1, dv2)[0, 1]
    assert abs(r) <= 3 / math.sqrt(n_steps)


def test_intertwinement_round_trip():
    # V1 = int sign dW1 and W1 = int sign dV1, exactly, step by step
    path = planar.euler_simulate("B", P_GEN, InitialState(0.3, 0.0), 1.0, 2000, SeedSpec(17))
    b = planar.noise_bundle(path)
    s = np.where(path.y_values[:-1] > 0, 1.0, -1.0)
    np.testing.assert_allclose(b.increments("V1"), s * b.increments("W1"), atol=1e-15)
    np.testing.assert_allclose(b.increments("W1"), s * b.increments("V1"), atol=1e-15)
    np.testing.assert_allclose(b.increments("V2"), -s * b.increments("W2"), atol=1e-15)
    # V = int sign dWflat, Q = int sign dUflat
    np.testing.assert_allclose(b.increments("V"), s * b.increments("Wflat"), atol=1e-14)
    np.testing.assert_allclose(b.increments("Q"), s * b.increments("Uflat"), atol=1e-14)


# ---------------------------------------------------------------------------
# skew construction
# ---------------------------------------------------------------------------

def _skew_inputs(p, s0, n=1500, seed=19):
    rng = SeedSpec(seed).generator()
    ypath = bangbang.simulate_y(p, s0.y, 1.0, n, rng)
    q_inc = rng.standard_normal(n) * math.sqrt(1.0 / n)
    return ypath, q_inc


def test_skew_difference_identity_exact():
    s0 = InitialState(0.25, -0.5)
    ypath, q_inc = _skew_inputs(P_GEN, s0)
    path = planar.skew_construct(P_GEN, s0, ypath, q_inc)
    np.testing.assert_allclose(path.y_values, ypath.y_values, atol=1e-12)


def test_skew_isotropic_ignores_local_time():
    s0 = InitialState(0.0, 0.0)
    ypath, q_inc = _skew_inputs(P_ISO, s0)
    doubled = bangbang.YPath(ypath.times, ypath.y_values, ypath.w_increments,
                             2.0 * ypath.l_values)
    a = planar.skew_construct(P_ISO, s0, ypath, q_inc)
    b = planar.skew_construct(P_ISO, s0, doubled, q_inc)
    np.testing.assert_array_equal(a.x1_values, b.x1_values)
    np.testing.assert_array_equal(a.x2_values, b.x2_values)


def test_skew_degenerate_drops_noise_term():
    s0 = InitialState(0.4, 0.0)
    ypath, q_inc = _skew_inputs(P_DEG, s0)
    a = planar.skew_construct(P_DEG, s0, ypath, q_inc)
    b = planar.skew_construct(P_DEG, s0, ypath, np.zeros_like(q_inc))
    np.testing.assert_array_equal(a.x2_values, b.x2_values)
    # X2 = x2 - y^- + g t + Y^-(t) - L(t)
    ym = np.maximum(-ypath.y_values, 0.0)
    expected = s0.x2 - max(-s0.y, 0.0) + P_DEG.g * ypath.times + ym - ypath.l_values
    np.testing.assert_allclose(a.x2_values, expected, atol=1e-12)


def test_skew_length_mismatch_rejected():
    s0 = InitialState(0.0, 0.0)
    ypath, q_inc = _skew_inputs(P_GEN, s0)
    with pytest.raises(ParameterError):
        planar.skew_construct(P_GEN, s0, ypath, q_inc[:-1])


# ---------------------------------------------------------------------------
# exact terminal sampler
# ---------------------------------------------------------------------------

def test_exact_sampler_swap_symmetry_is_exact():
    s_pos = InitialState(0.5, -0.2)
    s_neg = InitialState(-0.2, 0.5)
    a = planar.exact_sample_terminal(P_GEN, s_pos, 1.0, 500, SeedSpec(23))
    b = planar.exact_sample_terminal(P_GEN, s_neg, 1.0, 500, SeedSpec(23))
    np.testing.assert_array_equal(a.x1, b.x2)
    np.testing.assert_array_equal(a.x2, b.x1)


@pytest.mark.parametrize("p,s0", [(P_DEG, InitialState(0.0, 0.0)),
                                  (P_ISO, InitialState(0.3, 0.0)),
                                  (P_GEN, InitialState(0.0, 0.4))])
def test_exact_sampler_agrees_with_euler(p, s0):
    n = 40_000
    d = planar.exact_sample_terminal(p, s0, 1.0, n, SeedSpec(29))
    e1, e2 = planar.euler_terminal_batch("B", p, s0, 1.0, 1000, n, SeedSpec(31))
    assert ks_two_sample(d.x1, e1) <= 0.015
    assert ks_two_sample(d.x2, e2) <= 0.015


def test_exact_sampler_degenerate_atom_sits_on_front():
    p, s0 = P_DEG, InitialState(0.5, 0.0)
    d = planar.exact_sample_terminal(p, s0, 1.0, 20_000, SeedSpec(37))
    atoms = d.triples.atom
    assert atoms.any()
    front = s0.x2 + p.g * 1.0
    np.testing.assert_allclose(d.x2[atoms], front, atol=1e-12)
    assert np.all(d.x1[atoms] > front)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_ranks_basic_identities():
    path = planar.euler_simulate("B", P_GEN, InitialState(0.2, 0.0), 1.0, 500, SeedSpec(41))
    r1, r2 = planar.ranks(path)
    assert np.all(r1 >= r2)
    np.testing.assert_array_equal(r1 + r2, path.x1_values + path.x2_values)


@pytest.mark.parametrize("n_steps", [1000, 4000])
def test_rank_dynamics_residuals_vanish_in_discrete_scheme(n_steps):
    # identity R1 = r1 - h t + rho V1 + L is exact for the discrete scheme:
    # the residual reduces to float roundoff, well inside the O(sqrt(dt)) claim
    path = planar.euler_simulate("B", P_GEN, InitialState(0.3, 0.0), 1.0, n_steps, SeedSpec(43))
    res1, res2 = planar.rank_residuals(path)
    assert np.abs(res1).max() <= 1e-9
    assert np.abs(res2).max() <= 1e-9


def test_skorokhod_running_max_formula_order():
    # RMS gap between the residual local time and the reflection formula
    # halves when dt is quartered
    def rms(n_steps, seed):
        gaps = []
        for i in range(300):
            path = planar.euler_simulate("B", P_DEG, InitialState(0.3, 0.0),
                                         1.0, n_steps, SeedSpec(seed, i))
            two_l = 2.0 * path.local_time()[-1]
            sko = planar.skorokhod_gap_local_time(path)[-1]
            gaps.append(two_l - sko)
        return float(np.sqrt(np.mean(np.square(gaps))))

    coarse = rms(500, 47)
    fine = rms(2000, 48)
    assert fine / coarse <= 0.65


def test_system_difference_distribution_consistent_across_kinds():
    # all systems solve the same martingale problem: terminal gap laws agree
    n = 30_000
    gaps = {}
    for k, kind in enumerate(ALL_KINDS):
        x1, x2 = planar.euler_terminal_batch(kind, P_GEN, InitialState(0.0, 0.0),
                                             1.0, 500, n, SeedSpec(53, k))
        gaps[kind] = x1 - x2
    assert ks_two_sample(gaps["B"], gaps["W"]) <= 0.015
    assert ks_two_sample(gaps["B"], gaps["V"]) <= 0.015


# ---------------------------------------------------------------------------
# golden digests and cross-kernel agreement
# ---------------------------------------------------------------------------

GOLDEN_PARAMS = [(1.0, 0.5, 0.8, 0.6), (1.0, 1.0, 1.0, 0.0), (0.0, 0.7, 0.0, 1.0)]
GOLDEN_STARTS = [InitialState(0, 0), InitialState(0.3, -0.1), InitialState(-0.2, 0.4)]


def _golden_kind(label, p):
    return classifier.build_config(p, -1, 1, 1.2, -0.4) if label == "custom" else label


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        assert a.dtype == np.float64
        h.update(a.tobytes())
    return h.hexdigest()


def _golden_arrays(kernel, label):
    for i, raw in enumerate(GOLDEN_PARAMS):
        p = validate_params(*raw)
        kind = _golden_kind(label, p)
        for j, s0 in enumerate(GOLDEN_STARTS):
            seed = SeedSpec(20240601, 10 * i + j)
            if kernel == "simulate":
                path = planar.euler_simulate(kind, p, s0, 1.0, 300, seed)
                yield from (path.x1_values, path.x2_values, path.raw_increments)
            elif kernel == "batch":
                yield from planar.euler_terminal_batch(kind, p, s0, 0.7, 40, 257, seed)
            else:
                inc = seed.generator().standard_normal((120, 2)) * 0.1
                path = planar.euler_simulate(kind, p, s0, 1.2, 120, increments=inc)
                yield from (path.x1_values, path.x2_values)


# sha256 of the float64 outputs, recorded before the kernels were rewritten
# around the per-state step table; any change of a single bit shows here
GOLDEN = {
    "simulate-B": "e624176e8d1e5103d4931834c963d72f0807f0bf92e35f94e9534685cbeb3d34",
    "simulate-W": "be9fc9f5bc00b92d3b8880a71850fa82b7918958aa8dcc9c2d23e1717a23dc9c",
    "simulate-V": "ba9685aa17a002c1c2e204203f45dc67ba282c0e32964d0833f98425f585a46e",
    "simulate-custom": "5195eb09ab7e63c2e9a944e292599054c2568835ba2e977db2ab5fe6457c73a3",
    "batch-B": "6fe99deddacb94fabf1b545765011a0bcf05a68988ceac27979ec03ac5dec93b",
    "batch-W": "f1ab41733dab10298a7f620b4f6b630fd6c277977264eec4a181960508fd0eba",
    "batch-V": "9de981777ac5edb4448f1d18daae90f30e28306f18af76f1e0ec2c7d56acc0a2",
    "batch-custom": "22eecc49a615f72c0df7b1e1f1e8a16134ce34dfbec76bb8595fc7c9175dd496",
    "increments-B": "ae10e8468df64c9596fdf65389608bd43aa85e0e970124da69d5f31c06957f31",
    "increments-W": "297fe968ef82d837e42b6026f50b68cdbe5df308efe5db6621ed59534ddbd2cd",
    "increments-V": "ebb0442e8fd98036948846ada0a408b90ef141d8333e94bb88f68d603b1f960d",
    "increments-custom": "52d63daac7e8d5d8cb5a9ecbc7870dc5c580080857db42742d198575213eb10d",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_euler_kernels_match_golden_digest(key):
    kernel, label = key.split("-")
    assert _sha256(_golden_arrays(kernel, label)) == GOLDEN[key]


@pytest.mark.parametrize("label", ALL_KINDS + ["custom"])
@pytest.mark.parametrize("raw", GOLDEN_PARAMS)
@pytest.mark.parametrize("s0", GOLDEN_STARTS)
def test_batch_of_one_is_the_single_path_terminal_point(label, raw, s0):
    p = validate_params(*raw)
    kind = _golden_kind(label, p)
    path = planar.euler_simulate(kind, p, s0, 0.9, 500, SeedSpec(61))
    x1, x2 = planar.euler_terminal_batch(kind, p, s0, 0.9, 500, 1, SeedSpec(61))
    end = np.array([path.x1_values[-1], path.x2_values[-1]])
    got = np.concatenate([x1, x2])
    if label == "custom":
        # the single path keeps a 2x2 matmul per step, the batch two products
        # and a sum: each step may round the position differently by about an
        # ulp, and a terminal point near 0 makes ulp counts meaningless
        scale = max(1.0, np.abs(path.x1_values).max(), np.abs(path.x2_values).max())
        np.testing.assert_allclose(got, end, rtol=0, atol=500 * np.finfo(float).eps * scale)
    else:
        assert got.tobytes() == end.tobytes()


@pytest.mark.parametrize("t,n_steps,n_paths", [(0.0, 10, 5), (-1.0, 10, 5), (math.nan, 10, 5),
                                               (1.0, 0, 5), (1.0, -3, 5), (1.0, 10, 0),
                                               (1.0, 10, -1)])
def test_batch_rejects_bad_sizes(t, n_steps, n_paths):
    with pytest.raises(ParameterError):
        planar.euler_terminal_batch("B", P_GEN, InitialState(0, 0), t, n_steps, n_paths, SeedSpec(1))


def test_batch_int_start_gives_float_state():
    x1, x2 = planar.euler_terminal_batch("W", P_GEN, InitialState(1, 0), 1.0, 3, 4, SeedSpec(2))
    assert x1.dtype == x2.dtype == np.float64
