import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from rankdiff import densities, planar, validation
from rankdiff.core import InitialState, ParameterError, SeedSpec, validate_params
from rankdiff.harness import (CSV_BLOCK_ROWS, ExperimentConfig, GofReport, _float_body,
                              _g17_decimal, PiecewiseBV, binomial_z, chi2_against_density,
                              chi2_sf, expected_cell_masses, gl_points, grid_values, ks_statistic,
                              ks_two_sample, pmap_batches, tanaka_coalescence_experiment,
                              write_csv)


# ---------------------------------------------------------------------------
# reports and configuration
# ---------------------------------------------------------------------------

def test_gof_report_pass_rule():
    assert GofReport("KS", "x", 0.005, 0.01, 100).passed
    assert not GofReport("KS", "x", 0.02, 0.01, 100).passed
    assert GofReport("chi2", "x", 0.5, 0.001, 100, mode="ge").passed
    assert not GofReport("chi2", "x", 1e-5, 0.001, 100, mode="ge").passed


def test_experiment_config_json_round_trip_lossless():
    cfg = ExperimentConfig(command="sample", g=0.1 + 0.2, h=1 / 3, rho=0.8, sigma=0.6,
                           x1=-0.12345678901234567, seed=987654321, scale=0.25)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert ExperimentConfig.from_json(back.to_json()) == back
    assert json.loads(cfg.to_json())["paths"] is None  # the command's own default


def test_experiment_config_rejects_unknown_keys():
    with pytest.raises(ParameterError):
        ExperimentConfig.from_json(json.dumps({"command": "validate", "bogus": 1}))


def test_param_document_round_trip():
    # the bare parameter document is a subset of the config's fields: one loader reads both
    doc = {"g": 1.0, "h": 0.5, "rho": 0.8, "sigma": 0.6, "x1": 0.1, "x2": 0.0, "seed": 7}
    cfg = ExperimentConfig.from_json(json.dumps(doc))
    assert cfg == ExperimentConfig(**doc) and cfg.g == 1.0 and cfg.seed == 7
    with pytest.raises(ParameterError, match="gh"):
        ExperimentConfig.from_json(json.dumps({"gh": 1.0}))


@pytest.mark.parametrize("text,match", [
    ("[1, 2]", "JSON object"), ('"g"', "JSON object"), ("null", "JSON object"),
    ('{"steps": "ten"}', "'steps'"), ('{"steps": true}', "'steps'"), ('{"steps": 10.0}', "'steps'"),
    ('{"paths": 1.5}', "'paths'"), ('{"seed": "7"}', "'seed'"), ('{"workers": false}', "'workers'"),
    ('{"rho": "1"}', "'rho'"), ('{"g": true}', "'g'"), ('{"horizon": null}', "'horizon'"),
    ('{"scale": [1]}', "'scale'"), ('{"out_dir": 3}', "'out_dir'"), ('{"command": 1}', "'command'"),
    ('{"fmt": "xml"}', "'fmt'"), ('{"fmt": 1}', "'fmt'"),
])
def test_config_document_of_the_wrong_shape_names_the_key(text, match):
    with pytest.raises(ParameterError, match=match):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize("key,val", [
    ("scale", float("nan")), ("scale", float("inf")), ("scale", 0.0), ("scale", -1.0),
    ("workers", 0), ("steps", 0), ("horizon", float("nan")), ("paths", -1),
])
def test_experiment_config_rejects_a_value_out_of_range(key, val):
    with pytest.raises(ParameterError, match=f"^{key} must be"):
        ExperimentConfig(**{key: val})


def test_config_document_integers_serve_as_floats():
    cfg = ExperimentConfig.from_json('{"g": 2, "horizon": 1, "steps": 10, "out_dir": null, "fmt": "json"}')
    assert cfg == ExperimentConfig(g=2.0, horizon=1.0, steps=10, fmt="json")


# ---------------------------------------------------------------------------
# deterministic parallel map
# ---------------------------------------------------------------------------

def _draw(n, seed_spec):
    return seed_spec.generator().standard_normal(n)


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_pmap_output_independent_of_workers(workers):
    # batches of 20,000: 50,000 draws leave a short last batch of 10,000
    base = pmap_batches(50_000, _draw, SeedSpec(99), workers=1)
    out = pmap_batches(50_000, _draw, SeedSpec(99), workers=workers)
    assert [len(a) for a in out] == [20_000, 20_000, 10_000]
    for a, b in zip(base, out):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 3])
def test_pmap_batch_exception_reaches_the_caller(workers):
    def draw(n, seed_spec):
        if seed_spec.stream_id == 1:
            raise ValueError("batch 1 failed")
        return _draw(n, seed_spec)

    with pytest.raises(ValueError, match="batch 1 failed"):
        pmap_batches(50_000, draw, SeedSpec(99), workers=workers)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

def test_ks_statistic_matches_scipy_on_continuous_data():
    from scipy.stats import kstest
    rng = SeedSpec(1).generator()
    x = rng.standard_normal(5000)
    mine = ks_statistic(x, norm.cdf(x))
    ref = kstest(x, "norm").statistic
    assert abs(mine - ref) < 1e-12


def test_ks_statistic_handles_atoms_with_left_limit():
    # half the mass at 0, half uniform on (0, 1): a perfect sample should
    # score ~0 once the left limit is supplied
    rng = SeedSpec(2).generator()
    n = 20_000
    x = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    cdf = np.where(x >= 0, 0.5, 0.0) + np.clip(x, 0, 1) * 0.5
    cdf_left = np.where(x > 0, 0.5, 0.0) + np.clip(x, 0, 1) * 0.5
    d_wrong = ks_statistic(x, cdf)
    d_right = ks_statistic(x, cdf, cdf_left)
    assert d_wrong > 0.4          # overstated by ~the atom mass
    assert d_right < 0.02


def test_ks_two_sample_matches_scipy():
    from scipy.stats import ks_2samp
    rng = SeedSpec(3).generator()
    a, b = rng.standard_normal(3000), rng.standard_normal(4000) + 0.1
    assert abs(ks_two_sample(a, b) - ks_2samp(a, b).statistic) < 1e-12


def test_expected_cell_masses_on_gaussian():
    edges = np.array([-np.inf, -1.0, 0.0, 0.7, np.inf])
    # finite box stand-in: wide outer edges
    e = np.array([-9.0, -1.0, 0.0, 0.7, 9.0])
    masses = expected_cell_masses(
        lambda a, b: norm.pdf(a) * norm.pdf(b), e, e, subdiv=4, order=10)
    marg = np.diff(norm.cdf(e))
    np.testing.assert_allclose(masses, marg[:, None] * marg[None, :], atol=1e-10)


def grid_densities():
    """(name, f(a, b)) for every density the blocked grids evaluate, in the
    coordinates each caller passes."""
    out = [(f"planar/{name}", lambda a, b, p=p, s0=s0: densities.planar_density(p, s0, 1.0, a, b))
           for name, p, s0 in validation._sampler_cases()]
    deg, s0 = validate_params(1.0, 1.0, 1.0, 0.0), InitialState(0.5, 0.0)
    out += [("joint-degenerate/hi-lo",
             lambda u, w: densities.joint_density_degenerate(deg, s0, 0.5, w + u, w + 0 * u)),
            ("joint-degenerate/lo-hi",
             lambda u, w: densities.joint_density_degenerate(deg, s0, 0.5, w + 0 * u, w + u)),
            ("rank-degenerate",
             lambda u, w: densities.rank_density_degenerate(deg, s0, 0.5, w + u, w + 0 * u))]
    iso = validate_params(1.0, 0.5, 1 / math.sqrt(2), 1 / math.sqrt(2), renormalize=True)
    une = validate_params(1.0, 0.5, 0.8, 0.6)
    out += [("isotropic", lambda u, s: densities.joint_density_isotropic(
                iso, InitialState(0.3, 0.0), 2.0, (s + u) / 2.0, (s - u) / 2.0)),
            ("psi", lambda u, s: densities.psi_density(une, 0.4, 0.5, (s + u) / 2.0, (s - u) / 2.0))]
    return out


@pytest.mark.parametrize("name,f", grid_densities(), ids=[n for n, _ in grid_densities()])
def test_grid_values_exact_for_each_density(name, f):
    # 389 x 457 cells: 143 rows per block, a ragged last block; u > 0 for the wedge laws
    a = np.linspace(1e-12, 3.0, 389) if "degenerate" in name else np.linspace(-3.0, 3.0, 389)
    b = np.linspace(-3.1, 2.9, 457)
    got, want = grid_values(f, a, b), f(a[:, None], b[None, :])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_expected_cell_masses_exact_against_whole_grid():
    p, s0 = validate_params(1.0, 0.5, 0.8, 0.6), InitialState(0.4, 0.0)
    e1, e2 = np.linspace(-3.0, 3.0, 21), np.linspace(-2.5, 3.5, 18)
    def f(a, b):
        return densities.planar_density(p, s0, 1.0, a, b)

    p1, w1 = gl_points(e1[0], e1[-1], 4, 8, cuts=e1[1:-1])
    p2, w2 = gl_points(e2[0], e2[-1], 4, 8, cuts=e2[1:-1])
    want = np.zeros((20, 17))
    np.add.at(want, (np.repeat(np.arange(20), 32)[:, None], np.repeat(np.arange(17), 32)[None, :]),
              f(p1[:, None], p2[None, :]) * w1[:, None] * w2[None, :])
    assert expected_cell_masses(f, e1, e2).tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 700), st.integers(1, 700), st.sampled_from(range(4)))
def test_grid_values_exact_property(n_rows, n_cols, case):
    _, p, s0 = validation._sampler_cases()[case]
    a, b = np.linspace(-2.0, 2.5, n_rows), np.linspace(-2.2, 2.1, n_cols)

    def f(x1, x2):
        return densities.planar_density(p, s0, 1.0, x1, x2)

    assert grid_values(f, a, b).tobytes() == f(a[:, None], b[None, :]).tobytes()


def test_chi2_against_density_calibrated():
    rng = SeedSpec(5).generator()
    n = 60_000
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    stat, pval, dof = chi2_against_density(
        x, y, lambda a, b: norm.pdf(a) * norm.pdf(b), n_bins=15)
    assert pval > 0.001
    # corrupt: shift the sample; the test must reject decisively
    stat2, pval2, dof2 = chi2_against_density(
        x + 0.08, y, lambda a, b: norm.pdf(a) * norm.pdf(b), n_bins=15)
    assert pval2 < 1e-6
    for st, pv, df in ((stat, pval, dof), (stat2, pval2, dof2)):
        assert pv == float(chi2.sf(st, df))


@pytest.mark.parametrize("dof", [-1, 0, 1, 2, 7, 500])
def test_chi2_sf_bit_equal_to_scipy_stats(dof):
    for stat in (0.0, 1e-300, 0.5, 3.0, 1e3, 1e300, math.inf, math.nan):
        got, ref = chi2_sf(stat, dof), float(chi2.sf(stat, dof))
        assert type(got) is float
        assert got == ref or (math.isnan(got) and math.isnan(ref)), (stat, dof, got, ref)


def test_binomial_z():
    assert binomial_z(500, 1000, 0.5) == 0.0
    assert abs(binomial_z(530, 1000, 0.5)) > 1.5
    assert binomial_z(0, 1000, 0.0) == 0.0
    assert binomial_z(1, 1000, 0.0) == math.inf


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_write_csv_versioned_and_byte_stable(tmp_path):
    rows = [[0.1, 1, "a"], [0.2, 2, "b"]]
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    t1 = write_csv(str(p1), "demo", ["x", "k", "s"], rows, {"seed": 7})
    t2 = write_csv(str(p2), "demo", ["x", "k", "s"], rows, {"seed": 7})
    assert t1 == t2
    assert p1.read_bytes() == p2.read_bytes() == t1.encode("utf-8")
    head = p1.read_text().splitlines()[0]
    assert head.startswith("# rankdiff-csv/1 table=demo")


@pytest.mark.parametrize("n_rows", [0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                    CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3])
def test_write_csv_float_table_matches_per_cell_path(tmp_path, n_rows):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    table.ravel()[:len(specials)] = specials[:table.size]
    cols, meta = ["a", "b", "c"], {"seed": 7, "t": 0.5}
    bulk = write_csv(str(tmp_path / "bulk.csv"), "demo", cols, table, meta)
    per_cell = write_csv(str(tmp_path / "cells.csv"), "demo", cols, table.tolist(), meta)
    assert bulk == per_cell
    # the file is written part by part and the text joined apart from it: check both
    assert (tmp_path / "bulk.csv").read_bytes() == bulk.encode("utf-8")
    assert (tmp_path / "cells.csv").read_bytes() == per_cell.encode("utf-8")
    assert bulk.count("\n") == 2 + n_rows


def percent_body(table):
    """The body write_csv must produce: "%.17g" per cell, one % per cell."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def assert_g17_exact(values, n_cols=1):
    """The array path formats `values`, wrapped round to fill rows of n_cols,
    as "%.17g" does."""
    values = np.asarray(values, dtype=np.float64)
    table = np.resize(values, -(-values.size // n_cols) * n_cols).reshape(-1, n_cols)
    assert "".join(_float_body(table)) == percent_body(table)


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    both = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([both, -both])


def test_g17_kernel_exact_on_random_bit_patterns():
    bits = np.random.default_rng(20240601).integers(0, 2**64, 1_048_576, dtype=np.uint64)
    assert_g17_exact(bits.view(np.float64), 4)


def test_g17_kernel_exact_on_powers_of_two_and_ten():
    assert_g17_exact(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))), 2)
    assert_g17_exact(neighbours([float(f"1e{k}") for k in range(-323, 309)]), 7)


def test_g17_kernel_exact_on_zeros_infinities_and_nans():
    nan = float("nan")
    specials = [0.0, -0.0, math.inf, -math.inf, nan, math.copysign(nan, -1.0),
                np.frombuffer(np.uint64(0xFFF8_0000_0000_0001).tobytes(), np.float64)[0],
                5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert_g17_exact(specials * 3, 1)


def test_g17_kernel_exact_around_integer_edges():
    for centre in (2.0**53, 1e16, 1e17):
        ints = centre + np.arange(-64, 65, dtype=np.float64)
        assert_g17_exact(neighbours(ints), 2)


def test_g17_kernel_exact_where_the_18th_digit_is_5():
    rng = np.random.default_rng(5)
    # exact ties: 16 integer digits and .25 / .75 have 18 significant digits
    n = rng.integers(10**15, 2 * 10**15, 4000).astype(np.float64)
    ties = np.concatenate([n + 0.25, n + 0.75])
    digits = rng.integers(10**16, 10**17, 4000)
    exps = rng.integers(-320, 290, 4000)
    near = [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), exps.tolist())]
    assert_g17_exact(neighbours(np.concatenate([ties, near])), 7)


@pytest.mark.parametrize("n_cols", [1, 2, 7])
@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_g17_kernel_exact_over_block_shapes(n_rows, n_cols):
    rng = np.random.default_rng(n_rows * 8 + n_cols)
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-8, 20, (n_rows, n_cols))
    table.ravel()[::97] = 0.0
    assert_g17_exact(table, n_cols)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 7), st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                             allow_subnormal=True), min_size=1, max_size=70))
def test_g17_kernel_exact_property(n_cols, values):
    assert_g17_exact(values, n_cols)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="no extended-precision long double")
def test_g17_kernel_certifies_most_cells_of_path_and_density_tables():
    p = validate_params(1.0, 0.5, 0.8, 0.6)
    s0 = InitialState(0.4, 0.0)
    path = planar.euler_simulate("B", p, s0, 1.0, 4000, SeedSpec(20240601).stream(0))
    r1, r2 = planar.ranks(path)
    paths = np.column_stack([path.times, path.x1_values, path.x2_values, r1, r2,
                             path.y_values, path.local_time()])
    xi = np.linspace(-3.0, 3.0, 121)
    grid = densities.density_grid(p, s0, 1.0, xi, xi)
    dens = np.column_stack([np.repeat(xi, xi.size), np.tile(xi, xi.size), grid.values.ravel()])
    for table in (paths, dens):
        certified = _g17_decimal(np.abs(table.ravel()))[2]  # the rest are formatted with "%"
        assert np.count_nonzero(certified) >= 0.95 * table.size


# ---------------------------------------------------------------------------
# piecewise descriptors and the coalescence experiment
# ---------------------------------------------------------------------------

def test_piecewise_sign_convention():
    f = PiecewiseBV.sign()
    assert f(0.0) == -1.0
    assert f(1e-300) == 1.0
    assert f(-5.0) == -1.0
    np.testing.assert_array_equal(f(np.array([-1.0, 0.0, 2.0])), [-1.0, -1.0, 1.0])


def test_piecewise_linear_is_constant_outside_knots():
    f = PiecewiseBV("linear", (-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
    assert f(-10.0) == 0.0 and f(10.0) == 0.0
    assert f(0.5) == 0.5


def test_piecewise_rejects_unbounded_variation_descriptors():
    with pytest.raises(ParameterError):
        PiecewiseBV("quadratic", (0.0,), (1.0, 2.0))
    with pytest.raises(ParameterError):
        PiecewiseBV("constant", (0.0, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(ParameterError):
        PiecewiseBV("constant", (0.0,), (1.0, float("inf")))


def test_constant_function_gives_identical_twins():
    f = PiecewiseBV("constant", (0.0,), (0.7, 0.7))
    rep = tanaka_coalescence_experiment(f, [1e-2, 5e-3], reps=5, seed=11)
    assert all(r.median_sup == 0.0 for r in rep.rows)


def test_perturbed_twins_coalesce_and_plain_twins_do_not():
    f = PiecewiseBV.sign()
    dts = [8e-3, 2e-3, 5e-4]
    rep = tanaka_coalescence_experiment(f, dts, reps=41, seed=13)
    med = {r.dt: r.median_sup for r in rep.rows}
    assert med[5e-4] < med[8e-3]          # halving dt (twice) shrinks the gap
    plain = tanaka_coalescence_experiment(f, dts, reps=41, seed=13, drive="plain")
    med_plain = {r.dt: r.median_sup for r in plain.rows}
    # the classical non-unique equation keeps the twins apart at every dt
    assert min(med_plain.values()) > 5 * max(med.values())
    assert "illustrative" in rep.label


def test_coalescence_requires_nested_steps():
    with pytest.raises(ParameterError):
        tanaka_coalescence_experiment(PiecewiseBV.sign(), [1e-2, 3.3e-3], reps=2)
    with pytest.raises(ParameterError):  # 5e-4 divides T = 0.5, 8e-3 does not
        tanaka_coalescence_experiment(PiecewiseBV.sign(), [8e-3, 5e-4], reps=2, T=0.5)


@pytest.mark.parametrize("dts,reps", [([1e-2], 0), ([1e-2], -3), ([0.0], 2), ([-1e-2], 2),
                                      ([1e-2, math.nan], 2), ([math.inf], 2), ([], 2)])
def test_coalescence_rejects_bad_reps_and_steps(dts, reps):
    with pytest.raises(ParameterError):
        tanaka_coalescence_experiment(PiecewiseBV.sign(), dts, reps=reps)


_SIGN = PiecewiseBV.sign()
_STEP = PiecewiseBV("constant", (0.1,), (-0.3, 0.9))
_LINEAR = PiecewiseBV("linear", (-1.0, 0.0, 1.0), (0.5, -1.0, 2.0))
# jumps of order 1e307 overflow both twins to +inf, so a difference reads NaN
_HUGE = PiecewiseBV("constant", (0.0,), (1e307, 1e308))
TANAKA_CASES = {
    "perturbed-sign-1": dict(f=_SIGN, dts=[4e-3, 1e-3], reps=1, seed=5),
    "perturbed-sign-41": dict(f=_SIGN, dts=[4e-3, 1e-3, 5e-4], reps=41, T=0.5, seed=13),
    "plain-sign-2": dict(f=_SIGN, dts=[1e-2, 5e-3], reps=2, drive="plain", seed=3),
    "perturbed-constant-2": dict(f=PiecewiseBV("constant", (0.0,), (0.7, 0.7)), dts=[1e-2],
                                 reps=2, seed=11),
    "plain-step-41": dict(f=_STEP, dts=[1e-2, 2.5e-3], reps=41, T=0.5, drive="plain", seed=17),
    "perturbed-linear-41": dict(f=_LINEAR, dts=[4e-3, 2e-3], reps=41, T=0.5, seed=19),
    "plain-linear-1": dict(f=_LINEAR, dts=[5e-3, 1e-3], reps=1, drive="plain", q_ratio=0.5,
                           seed=23),
    "overflow-nan-3": dict(f=_HUGE, dts=[2e-2], reps=3, T=8.0, seed=7),
    "infinite-start-2": dict(f=_SIGN, dts=[1e-2, 5e-3], reps=2, z0=math.inf, seed=29),
}
# sha256 of the (dt, median_sup, mean_sup, reps) table, recorded with the
# scalar per-repetition loop
TANAKA_GOLDEN = {
    "infinite-start-2":
        "8b9cefb62761171057af20c003e9e5c5bfe08c57a4003e2896be05c5a5d681e1",
    "overflow-nan-3":
        "643ca72371ab8509bcc6b4e50714b710cd55ee57b0895d2b98d0163a585869c4",
    "perturbed-constant-2":
        "01de8fb7bcada9e36b32b0b5adec8ce57ef58071d082338107e0c95d9e9c083c",
    "perturbed-linear-41":
        "eb1fe33f8bb66cfa809959afd3984858e55dacda34b0ed70197b28a05d55226f",
    "perturbed-sign-1":
        "b9b81be719c5f4dea472447d23af76b2ea3220fbe9dba91feecff8aa3890fe92",
    "perturbed-sign-41":
        "14e301a241d4bce2ef75b8bc5a28cfa91281619fd932fc6b304504aa42267bbe",
    "plain-linear-1":
        "302c676c1d0176edc167d40300962e42dbf00b820bc0af71c38853250d9db756",
    "plain-sign-2":
        "bbc257873662a5acf191752a2ed14d8efefd6a7a89e46ab27e419f15c08b4319",
    "plain-step-41":
        "6de37f78a6be1c5ecaf76c9bc85f3660570e7047d84cd82e0eb153943066cf97",
}


def _coalescence(case):
    with np.errstate(over="ignore", invalid="ignore"):
        return tanaka_coalescence_experiment(**TANAKA_CASES[case])


def _coalescence_digest(rep):
    table = np.array([[r.dt, r.median_sup, r.mean_sup, r.reps] for r in rep.rows])
    return hashlib.sha256(table.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(TANAKA_CASES))
def test_coalescence_golden(case):
    assert _coalescence_digest(_coalescence(case)) == TANAKA_GOLDEN[case]


def test_coalescence_sup_skips_nan_differences():
    # a NaN difference never replaces the running sup, as `if diff > sup` does
    assert all(r.median_sup == 0.0 for r in _coalescence("infinite-start-2").rows)
    assert not any(math.isnan(r.median_sup) for r in _coalescence("overflow-nan-3").rows)


def test_figure_style_heatmap_shows_two_wedges_and_ridge(tmp_path):
    # coinciding starts, degenerate volatilities: the law lives on two wedges
    # with a jump ridge along the front; the quadrant beyond the front is empty
    from rankdiff import densities
    from rankdiff.core import InitialState, validate_params
    from rankdiff.svgplot import emit_svg_heatmap

    p = validate_params(1.0, 1.0, 1.0, 0.0)
    s0 = InitialState(0.0, 0.0)
    xi = np.linspace(-3.0, 3.0, 121)
    grid = densities.density_grid(p, s0, 1.0, xi, xi)
    front = densities.front_location(p, s0, 1.0)
    i_hi = np.searchsorted(xi, front + 0.05)
    assert grid.values[i_hi:, i_hi:].max() == 0.0          # dead quadrant
    j_front = np.searchsorted(xi, front)   # the front is on the grid; the
    i2 = np.searchsorted(xi, 2.0)          # stored value is the interior limit
    on_front = grid.values[i2, j_front]
    assert on_front > 0
    jump = densities.front_jump(p, s0, 1.0, xi[i2] - front)
    assert abs(on_front - jump) <= 1e-12   # the ridge equals the jump formula
    assert grid.values[i2, j_front + 1] == 0.0
    text = emit_svg_heatmap(grid, str(tmp_path / "fig.svg"), title="joint density")
    assert text.count("<rect") > 121 * 121                 # cells plus frame/colorbar
