import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankdiff import bangbang, classifier, planar
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params
from rankdiff.harness import ks_two_sample

P_DEG = validate_params(1.0, 1.0, 1.0, 0.0)
P_ISO = validate_params(1.0, 0.5, 1 / math.sqrt(2), 1 / math.sqrt(2), renormalize=True)
P_GEN = validate_params(1.0, 0.5, 0.8, 0.6)
ALL_KINDS = ["B", "W", "V"]


def skorokhod_gap_local_time(path):
    """2 L(t) of the difference via the reflection running-max formula,
    driven by the gap noise reconstructed from the stored increments."""
    return bangbang.skorokhod_local_time_series(path.y_values, planar.gap_driver_increments(path),
                                                path.times, path.params.lam)


def _kind(label, p):
    """A named system, or for "custom" a dense square root at non-quarter angles."""
    return classifier.build_config(p, -1, 1, 1.2, -0.4) if label == "custom" else label


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


@pytest.mark.parametrize("kind", ALL_KINDS + ["custom"])
def test_sum_identity_exact_per_step(kind):
    s0 = InitialState(0.4, -0.1)
    path = planar.euler_simulate(_kind(kind, P_GEN), P_GEN, s0, 1.0, 2000, SeedSpec(3))
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
    for label in ("B", "custom"):
        path = planar.euler_simulate(_kind(label, P_GEN), P_GEN, InitialState(0.1, 0.0), 1.0,
                                     20_000, SeedSpec(11))
        b = planar.noise_bundle(path)
        for name in ("W", "V", "U", "Q", "Wflat", "Vflat", "Uflat", "Qflat"):
            qv = float(np.sum(b.increments(name) ** 2))
            assert abs(qv - 1.0) <= 0.05, (label, name)
        cross = float(np.sum(b.increments("W") * b.increments("Uflat")))
        assert abs(cross) <= 0.05, label


def test_reconstructed_rank_noises_uncorrelated():
    n_steps = 20_000
    for label in ("B", "custom"):
        path = planar.euler_simulate(_kind(label, P_DEG), P_DEG, InitialState(0.0, 0.0), 1.0,
                                     n_steps, SeedSpec(13))
        b = planar.noise_bundle(path)
        dv1, dv2 = b.increments("V1"), b.increments("V2")
        r = np.corrcoef(dv1, dv2)[0, 1]
        assert abs(r) <= 3 / math.sqrt(n_steps), label


def test_intertwinement_round_trip():
    # V1 = int sign dW1 and W1 = int sign dV1, exactly, step by step
    for label in ("B", "custom"):
        path = planar.euler_simulate(_kind(label, P_GEN), P_GEN, InitialState(0.3, 0.0), 1.0,
                                     2000, SeedSpec(17))
        b = planar.noise_bundle(path)
        s = np.where(path.y_values[:-1] > 0, 1.0, -1.0)
        np.testing.assert_allclose(b.increments("V1"), s * b.increments("W1"), atol=1e-15)
        np.testing.assert_allclose(b.increments("W1"), s * b.increments("V1"), atol=1e-15)
        np.testing.assert_allclose(b.increments("V2"), -s * b.increments("W2"), atol=1e-15)
        # V = int sign dWflat, Q = int sign dUflat
        np.testing.assert_allclose(b.increments("V"), s * b.increments("Wflat"), atol=1e-14)
        np.testing.assert_allclose(b.increments("Q"), s * b.increments("Uflat"), atol=1e-14)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
def test_euler_kernels_reject_non_finite_or_non_positive_horizon(T):
    s0 = InitialState(0.3, -0.2)
    with pytest.raises(ParameterError):
        planar.euler_simulate("B", P_GEN, s0, T, 10, SeedSpec(1))
    with pytest.raises(ParameterError):
        planar.euler_terminal_batch("B", P_GEN, s0, T, 10, 4, SeedSpec(1))


def test_noise_readers_reject_skew_paths():
    s0 = InitialState(0.3, 0.0)
    path = planar.skew_construct(P_GEN, s0, *_skew_inputs(P_GEN, s0))
    with pytest.raises(ParameterError):
        planar.noise_bundle(path)
    with pytest.raises(ParameterError):
        planar.sum_driver_increments(path)


# ---------------------------------------------------------------------------
# skew construction
# ---------------------------------------------------------------------------

def _skew_inputs(p, s0, n=1500, seed=19):
    rng = SeedSpec(seed).generator()
    ypath = bangbang.euler_gap_path(p.lam, s0.y, 1.0, n, rng)
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
    for label in ("B", "custom"):
        path = planar.euler_simulate(_kind(label, P_GEN), P_GEN, InitialState(0.3, 0.0), 1.0,
                                     n_steps, SeedSpec(43))
        res1, res2 = planar.rank_residuals(path)
        assert np.abs(res1).max() <= 1e-10, label
        assert np.abs(res2).max() <= 1e-10, label


def test_skorokhod_running_max_formula_order():
    # RMS gap between the residual local time and the reflection formula
    # halves when dt is quartered
    def rms(n_steps, seed):
        gaps = []
        for i in range(300):
            path = planar.euler_simulate("B", P_DEG, InitialState(0.3, 0.0),
                                         1.0, n_steps, SeedSpec(seed, i))
            two_l = 2.0 * path.local_time()[-1]
            sko = skorokhod_gap_local_time(path)[-1]
            gaps.append(two_l - sko)
        return float(np.sqrt(np.mean(np.square(gaps))))

    coarse = rms(500, 47)
    fine = rms(2000, 48)
    assert fine / coarse <= 0.65


@pytest.mark.parametrize("make", ["custom", "skew"])
def test_skorokhod_local_time_of_custom_and_skew_paths(make):
    s0 = InitialState(0.3, 0.0)
    if make == "custom":
        path = planar.euler_simulate(classifier.build_config(P_GEN, -1, 1, 1.2, -0.4),
                                     P_GEN, s0, 1.0, 2000, SeedSpec(59))
    else:
        path = planar.skew_construct(P_GEN, s0, *_skew_inputs(P_GEN, s0))
    two_l = skorokhod_gap_local_time(path)
    assert two_l.shape == path.times.shape
    assert np.all(np.isfinite(two_l)) and two_l[0] == 0.0
    assert np.all(np.diff(two_l) >= 0) and two_l[-1] > 0


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


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        assert a.dtype == np.float64
        h.update(a.tobytes())
    return h.hexdigest()


# the gap-process readings of a simulated path: its gap driver, its sum-noise
# path and its Skorokhod local time
_PATH_READERS = {
    "gapdriver": planar.gap_driver_increments,
    "sumnoise": lambda path: np.concatenate([[0.0], np.cumsum(planar.sum_driver_increments(path))]),
    "skorokhod": skorokhod_gap_local_time,
}


def _golden_arrays(kernel, label):
    for i, raw in enumerate(GOLDEN_PARAMS):
        p = validate_params(*raw)
        kind = _kind(label, p)
        for j, s0 in enumerate(GOLDEN_STARTS):
            seed = SeedSpec(20240601, 10 * i + j)
            if kernel == "simulate":
                path = planar.euler_simulate(kind, p, s0, 1.0, 300, seed)
                yield from (path.x1_values, path.x2_values, path.raw_increments)
            elif kernel in _PATH_READERS:
                yield _PATH_READERS[kernel](planar.euler_simulate(kind, p, s0, 1.0, 300, seed))
            elif kernel == "batch":
                yield from planar.euler_terminal_batch(kind, p, s0, 0.7, 40, 257, seed)
            else:
                inc = seed.generator().standard_normal((120, 2)) * 0.1
                path = planar.euler_simulate(kind, p, s0, 1.2, 120, increments=inc)
                yield from (path.x1_values, path.x2_values)


# sha256 of the float64 outputs, recorded before the kernels were rewritten
# around the per-state step table; any change of a single bit shows here.
# "simulate-custom" and "increments-custom" were re-pinned when the single
# path's dense 2x2 matmul gave way to the batch's two products and a sum
GOLDEN = {
    "simulate-B": "e624176e8d1e5103d4931834c963d72f0807f0bf92e35f94e9534685cbeb3d34",
    "simulate-W": "be9fc9f5bc00b92d3b8880a71850fa82b7918958aa8dcc9c2d23e1717a23dc9c",
    "simulate-V": "ba9685aa17a002c1c2e204203f45dc67ba282c0e32964d0833f98425f585a46e",
    "simulate-custom": "8ee2733a91f07a417811c0796b2f80b7c512d695ffc19c0499f3c5003e17d826",
    "batch-B": "6fe99deddacb94fabf1b545765011a0bcf05a68988ceac27979ec03ac5dec93b",
    "batch-W": "f1ab41733dab10298a7f620b4f6b630fd6c277977264eec4a181960508fd0eba",
    "batch-V": "9de981777ac5edb4448f1d18daae90f30e28306f18af76f1e0ec2c7d56acc0a2",
    "batch-custom": "22eecc49a615f72c0df7b1e1f1e8a16134ce34dfbec76bb8595fc7c9175dd496",
    "increments-B": "ae10e8468df64c9596fdf65389608bd43aa85e0e970124da69d5f31c06957f31",
    "increments-W": "297fe968ef82d837e42b6026f50b68cdbe5df308efe5db6621ed59534ddbd2cd",
    "increments-V": "ebb0442e8fd98036948846ada0a408b90ef141d8333e94bb88f68d603b1f960d",
    "increments-custom": "363aebef0e71da00849e97c661675b506ed706167440396ab467f1f245e39f99",
}

# recorded before the gap driver and the sum noise were read off the step
# table and the Skorokhod formula moved to bangbang
GOLDEN_GAP = {
    "gapdriver-B": "e3ea346bf419b0af8e7ded27165f0c574de8147eacda503a3ba08fa551f842af",
    "gapdriver-W": "63cfe65d00dd15b9708b5dfc3d78a159b55e3743fbdef5d6fbaefb16254886d0",
    "gapdriver-V": "d753ae517c2e64e6bc6d03e539b17751965e9d9c1bcfd616863b5983890513b4",
    "gapdriver-custom": "0092c997ee763e78191f84c1a4faaf9beda2445df3f31e405f122d77cd79eb71",
    "sumnoise-B": "40e829598434bbbe177837d8461b22e6933f4a3358dce22d387e2dfe5f272bb3",
    "sumnoise-W": "81454084cb0a169f037542bea578667a39d2fc4e0e42702dcba27b17c9741b7d",
    "sumnoise-V": "af539238b0f98f55276ad659ebd9bda71f4c56a4894b8b66b8de11d3e9251709",
    "sumnoise-custom": "9db0f7a6dd70ad56af85bb47ddf1ce7348c4a71a96319c6e880f8d10acee3ecf",
    "skorokhod-B": "23b8c783299fb7a9b92dc1bd2dec41509b28cde2bc50db47e66df1202af36da8",
    "skorokhod-W": "66ff4e144b57bb60155c3303ab21a9c84df89d74f83434293e46b30a179c8343",
    "skorokhod-V": "85d8cdcc6d34fd127797a000525f12ea891c74b67cb8c81a88ae10a37812a034",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_euler_kernels_match_golden_digest(key):
    kernel, label = key.split("-")
    assert _sha256(_golden_arrays(kernel, label)) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_GAP))
def test_gap_readings_match_golden_digest(key):
    kernel, label = key.split("-")
    assert _sha256(_golden_arrays(kernel, label)) == GOLDEN_GAP[key]


@pytest.mark.parametrize("label", ALL_KINDS + ["custom"])
@pytest.mark.parametrize("raw", GOLDEN_PARAMS)
@pytest.mark.parametrize("s0", GOLDEN_STARTS)
def test_batch_of_one_is_the_single_path_terminal_point(label, raw, s0):
    p = validate_params(*raw)
    kind = _kind(label, p)
    path = planar.euler_simulate(kind, p, s0, 0.9, 500, SeedSpec(61))
    x1, x2 = planar.euler_terminal_batch(kind, p, s0, 0.9, 500, 1, SeedSpec(61))
    end = np.array([path.x1_values[-1], path.x2_values[-1]])
    assert np.concatenate([x1, x2]).tobytes() == end.tobytes()


_QUARTERS = st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2])
_RATE = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, allow_subnormal=False))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(eps=st.sampled_from([-1, 1]), dlt=st.sampled_from([-1, 1]),
       phi=st.one_of(_QUARTERS, st.floats(-4.0, 4.0, allow_subnormal=False)),
       vartheta=st.one_of(_QUARTERS, st.floats(-4.0, 4.0, allow_subnormal=False)),
       vols=st.one_of(st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
                      st.floats(0.01, 1.56).map(lambda a: (math.cos(a), math.sin(a)))),
       rates=st.tuples(_RATE, _RATE).filter(lambda gh: gh[0] + gh[1] > 0),
       x1=_COORD, x2=_COORD, tied=st.booleans(), n_steps=st.integers(1, 80),
       seed=st.integers(0, 2**32 - 1))
# x2 = -0.0 stays a signed zero: a drift of -0.0 and the noise of a zero row
@example(eps=1, dlt=-1, phi=0.3, vartheta=1.1, vols=(0.0, 1.0), rates=(1.0, 0.0),
         x1=-0.0, x2=-0.0, tied=True, n_steps=1, seed=0)
def test_batch_of_one_is_the_single_path_end_for_every_configuration(eps, dlt, phi, vartheta, vols, rates,
                                                                      x1, x2, tied, n_steps, seed):
    # one noise rule in both kernels, so every square root steps to the same bytes,
    # at quarter turns, with rho or sigma = 0 (a coordinate with no noise), g or
    # h = 0 (a -0.0 drift) and from tied or signed-zero starts
    p = validate_params(*rates, *vols, renormalize=True)
    kind = classifier.build_config(p, eps, dlt, phi, vartheta)
    s0 = InitialState(x1, x1 if tied else x2)
    path = planar.euler_simulate(kind, p, s0, 0.8, n_steps, SeedSpec(seed))
    got = planar.euler_terminal_batch(kind, p, s0, 0.8, n_steps, 1, SeedSpec(seed))
    assert np.concatenate(got).tobytes() == np.array([path.x1_values[-1], path.x2_values[-1]]).tobytes()


@pytest.mark.parametrize("label", ALL_KINDS)
@pytest.mark.parametrize("kernel", ["simulate", "batch"])
def test_named_config_drives_the_named_system_bytes(kernel, label):
    # the classifier's (eps, delta, phi, vartheta) table is the one definition
    # of B, W and V: its configurations step exactly as the names do
    for raw in GOLDEN_PARAMS:
        p = validate_params(*raw)
        for j, s0 in enumerate(GOLDEN_STARTS):
            runs = []
            for kind in (label, classifier.build_config(p, *classifier.SYSTEMS[label])):
                if kernel == "simulate":
                    path = planar.euler_simulate(kind, p, s0, 1.0, 300, SeedSpec(67, j))
                    runs.append(np.concatenate([path.x1_values, path.x2_values]).tobytes())
                else:
                    out = planar.euler_terminal_batch(kind, p, s0, 0.7, 40, 257, SeedSpec(67, j))
                    runs.append(np.concatenate(out).tobytes())
            assert runs[0] == runs[1], (raw, s0)


@pytest.mark.parametrize("t,n_steps,n_paths", [(0.0, 10, 5), (-1.0, 10, 5), (math.nan, 10, 5),
                                               (1.0, 0, 5), (1.0, -3, 5), (1.0, 10, 0),
                                               (1.0, 10, -1)])
def test_batch_rejects_bad_sizes(t, n_steps, n_paths):
    with pytest.raises(ParameterError):
        planar.euler_terminal_batch("B", P_GEN, InitialState(0, 0), t, n_steps, n_paths, SeedSpec(1))


def test_batch_int_start_gives_float_state():
    x1, x2 = planar.euler_terminal_batch("W", P_GEN, InitialState(1, 0), 1.0, 3, 4, SeedSpec(2))
    assert x1.dtype == x2.dtype == np.float64
