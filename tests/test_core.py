import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rankdiff.core import (InitialState, ParameterError, SeedSpec, sides, sign,
                           validate_params)


def test_sign_tie_convention():
    assert sign(0.0) == -1.0
    assert sign(3.2) == 1.0
    assert sign(-1e-300) == -1.0
    assert sign(1e-300) == 1.0


def test_sign_vectorized_and_never_zero():
    x = np.array([-2.0, -0.0, 0.0, 5e-324, 1.0])
    out = sign(x)
    assert out.tolist() == [-1.0, -1.0, -1.0, 1.0, 1.0]
    assert not np.any(out == 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_sign_rejects_nonfinite(bad):
    with pytest.raises(ParameterError):
        sign(bad)


def test_sides_is_the_where_rule_bit_for_bit():
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf])
    ref = np.where(x > 0, 1.0, -1.0)
    assert sides(x).tobytes() == ref.tobytes()
    assert sides(x.reshape(2, 4)).tobytes() == ref.tobytes()
    for v, r in zip(x, ref):
        assert np.float64(sides(v)).tobytes() == r.tobytes()
        assert np.float64(sides(float(v))).tobytes() == r.tobytes()
    assert sides(np.array([math.nan])).tobytes() == np.where(np.array([math.nan]) > 0, 1.0, -1.0).tobytes()


def test_validate_params_figure_case():
    p = validate_params(1.0, 1.0, 1.0, 0.0)
    assert p.lam == 2.0
    assert p.nu == 0.0
    assert p.gamma == 1.0
    assert p.mu == 1.0
    assert p.mixing_delta == 0.0


def test_validate_params_isotropic_case():
    r = 1.0 / math.sqrt(2.0)
    p = validate_params(1.0, 0.0, r, r)
    assert abs(p.gamma) < 1e-15
    assert abs(p.mixing_delta - 1.0) < 1e-15
    assert abs(p.mu - 0.5) < 1e-15
    assert p.is_isotropic and not p.is_degenerate


def test_validate_params_rejects_zero_intensity():
    with pytest.raises(ParameterError, match="g\\+h>0"):
        validate_params(0.0, 0.0, 1.0, 0.0)


def test_validate_params_rejects_negative_and_nonfinite():
    with pytest.raises(ParameterError, match="nonnegative"):
        validate_params(-0.1, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterError, match="finite"):
        validate_params(float("nan"), 1.0, 1.0, 0.0)


def test_normalization_enforced_not_silently_fixed():
    with pytest.raises(ParameterError, match="normalization"):
        validate_params(1.0, 1.0, 0.9, 0.6)
    p = validate_params(1.0, 1.0, 0.9, 0.6, renormalize=True)
    assert abs(p.rho**2 + p.sigma**2 - 1.0) <= 1e-12


def test_mu_identity_both_ways():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g, h = rng.uniform(0, 4), rng.uniform(0, 4)
        if g + h == 0:
            continue
        u = rng.uniform(0.0, math.pi / 2)
        p = validate_params(g, h, math.cos(u), math.sin(u), renormalize=True)
        other = 0.5 * (p.nu + p.lam * p.gamma)
        assert abs(p.mu - other) <= 1e-15 * max(1.0, abs(p.mu))
        assert abs(p.gamma**2 + p.mixing_delta**2 - 1.0) <= 1e-12


def test_initial_state_derived_fields():
    s = InitialState(0.25, -1.0)
    assert s.y == 1.25 and s.z == -0.75
    assert s.r1 == 0.25 and s.r2 == -1.0
    assert s.y + s.z == 2 * s.x1
    assert s.swapped().y == -1.25


def test_seedspec_reproducible_streams():
    a = SeedSpec(123, 5).generator().standard_normal(8)
    b = SeedSpec(123, 5).generator().standard_normal(8)
    c = SeedSpec(123, 6).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    assert SeedSpec(123, 5).stream(3) == SeedSpec(123, 8)


def test_seedspec_validation():
    with pytest.raises(ParameterError):
        SeedSpec(1, -1)
    with pytest.raises(ParameterError):
        SeedSpec(2**64, 0)


# ---------------------------------------------------------------------------
# the scalar/array return rule of every public law, and the public names
# ---------------------------------------------------------------------------

def _return_rule_laws():
    from rankdiff import harness, timereversal
    import rankdiff as rd

    p_iso = validate_params(1.0, 0.5, 1.0, 1.0, renormalize=True)
    p_deg = validate_params(1.0, 1.0, 1.0, 0.0)
    p_gen = validate_params(1.0, 0.5, 0.8, 0.6)
    p_flip = validate_params(0.5, 1.0, 0.6, 0.8)
    s0, s_tie, s_neg = InitialState(0.3, 0.0), InitialState(0.1, 0.1), InitialState(-0.2, 0.4)
    # name: (law of the array arguments, their scalar values)
    return {
        "sign": (rd.sign, (0.3,)),
        "transition_density": (lambda y, xi: rd.transition_density(p_gen, 1.0, y, xi), (0.2, -0.4)),
        "invariant_density": (lambda xi: rd.invariant_density(p_gen, xi), (-0.4,)),
        "triple_density": (lambda a, b: rd.triple_density(p_gen, 0.3, 1.0, a, b), (0.4, 0.2)),
        "atom_density": (lambda a: rd.atom_density(p_gen, 0.3, 1.0, a), (0.4,)),
        "joint_density_isotropic":
            (lambda a, b: rd.joint_density_isotropic(p_iso, s0, 1.0, a, b), (0.1, -0.2)),
        "joint_density_degenerate":
            (lambda a, b: rd.joint_density_degenerate(p_deg, s0, 1.0, a, b), (0.6, -0.2)),
        "atom_line_density": (lambda a: rd.atom_line_density(p_deg, s0, 1.0, a), (1.6,)),
        "front_jump": (lambda d: rd.front_jump(p_deg, s_tie, 1.0, d), (0.4,)),
        "rank_density_degenerate":
            (lambda a, b: rd.rank_density_degenerate(p_deg, s0, 1.0, a, b), (0.6, -0.2)),
        "quadrivariate_density":
            (lambda a, b, th: rd.quadrivariate_density(p_gen, 0.3, 1.0, "plus", a, b, th),
             (0.4, 0.2, -0.1)),
        "quadrivariate_atom_density":
            (lambda a, th: rd.quadrivariate_atom_density(p_gen, 0.3, 1.0, a, th), (0.4, -0.1)),
        "psi_density": (lambda a, b: rd.psi_density(p_gen, 0.3, 1.0, a, b), (0.1, -0.2)),
        "planar_density-isotropic":
            (lambda a, b: rd.planar_density(p_iso, s_neg, 1.0, a, b), (0.1, -0.2)),
        "planar_density-degenerate":
            (lambda a, b: rd.planar_density(p_deg, s_neg, 1.0, a, b), (0.1, -0.2)),
        "planar_density-unequal":
            (lambda a, b: rd.planar_density(p_flip, s_neg, 1.0, a, b), (0.1, -0.2)),
        "q_function": (lambda xi: rd.q_function(p_gen, 0.0, 0.7, xi), (-0.4,)),
        "backward_drift-transient": (lambda xi: rd.backward_drift(p_gen, 0.2, 0.7, xi), (-0.4,)),
        "backward_drift-steady_state":
            (lambda xi: rd.backward_drift(p_gen, 0.2, 0.7, xi, mode="steady_state"), (-0.4,)),
        "q_closed_form_origin": (lambda xi: timereversal.q_closed_form_origin(p_gen, 0.7, xi), (-0.4,)),
        "backward_drift_display_origin":
            (lambda xi: timereversal.backward_drift_display_origin(p_gen, 0.7, xi), (-0.4,)),
        "PiecewiseBV-constant": (harness.PiecewiseBV.sign(), (0.3,)),
        "PiecewiseBV-linear": (harness.PiecewiseBV("linear", (-1.0, 1.0), (0.5, 2.0)), (0.3,)),
    }


RETURN_RULE_LAWS = _return_rule_laws()


@pytest.mark.parametrize("name", sorted(RETURN_RULE_LAWS))
def test_return_rule_float_for_scalars_ndarray_otherwise(name):
    law, args = RETURN_RULE_LAWS[name]
    for wrap in (float, np.float64, np.array):
        assert type(law(*map(wrap, args))) is float
    for k in range(len(args)):  # one argument as an array, the others scalars
        one = [np.full((3, 1), a) if i == k else a for i, a in enumerate(args)]
        out = law(*one)
        assert type(out) is np.ndarray and out.shape == (3, 1)
        assert type(law(*[[a] if i == k else a for i, a in enumerate(args)])) is np.ndarray
    if len(args) > 1:  # every argument an array: the broadcast shape
        out = law(*[np.full((3, 1) if i == 0 else (2,), a) for i, a in enumerate(args)])
        assert type(out) is np.ndarray and out.shape == (3, 2)


def _point_laws():
    """name: (law of the point arguments only, their finite scalar values)."""
    from rankdiff import timereversal
    import rankdiff as rd

    p_iso = validate_params(1.0, 0.5, 1.0, 1.0, renormalize=True)
    p_deg, p_deg0 = validate_params(1.0, 1.0, 1.0, 0.0), validate_params(1.0, 1.0, 0.0, 1.0)
    p_gen = validate_params(1.0, 0.5, 0.8, 0.6)
    s0, s_tie = InitialState(0.3, 0.0), InitialState(0.1, 0.1)
    line, line0 = rd.planar_atom(p_deg, s0, 1.0), rd.planar_atom(p_deg0, s0, 1.0)
    return {
        "sign": (rd.sign, (0.3,)),
        "transition_density": (lambda xi: rd.transition_density(p_gen, 1.0, 0.2, xi), (-0.4,)),
        "invariant_density": (lambda xi: rd.invariant_density(p_gen, xi), (-0.4,)),
        "atom_density": (lambda a: rd.atom_density(p_gen, 0.3, 1.0, a), (0.4,)),
        "triple_density": (lambda a, b: rd.triple_density(p_gen, 0.3, 1.0, a, b), (0.4, 0.2)),
        "joint_density_isotropic":
            (lambda a, b: rd.joint_density_isotropic(p_iso, s0, 1.0, a, b), (0.1, -0.2)),
        "joint_density_degenerate":
            (lambda a, b: rd.joint_density_degenerate(p_deg, s0, 1.0, a, b), (0.6, -0.2)),
        "psi_density": (lambda a, b: rd.psi_density(p_gen, 0.3, 1.0, a, b), (0.1, -0.2)),
        "planar_density": (lambda a, b: rd.planar_density(p_gen, s0, 1.0, a, b), (0.1, -0.2)),
        "density_grid": (lambda a, b: rd.density_grid(p_deg, s0, 1.0, np.append(a, 9.0),
                                                      np.append(b, 9.0)), (0.6, -0.2)),
        "atom_line_density": (lambda a: rd.atom_line_density(p_deg, s0, 1.0, a), (1.6,)),
        "planar_atom-density": (line.density, (1.6,)),
        "planar_atom-density-rho0": (line0.density, (-1.6,)),
        "front_jump": (lambda d: rd.front_jump(p_deg, s_tie, 1.0, d), (0.4,)),
        "rank_density_degenerate":
            (lambda a, b: rd.rank_density_degenerate(p_deg, s0, 1.0, a, b), (0.6, -0.2)),
        "quadrivariate_density":
            (lambda a, b, th: rd.quadrivariate_density(p_gen, 0.3, 1.0, "plus", a, b, th),
             (0.4, 0.2, -0.1)),
        "quadrivariate_atom_density":
            (lambda a, th: rd.quadrivariate_atom_density(p_gen, 0.3, 1.0, a, th), (0.4, -0.1)),
        "q_function": (lambda xi: rd.q_function(p_gen, 0.2, 0.7, xi), (-0.4,)),
        "backward_drift-transient": (lambda xi: rd.backward_drift(p_gen, 0.2, 0.7, xi), (-0.4,)),
        "backward_drift-steady_state":
            (lambda xi: rd.backward_drift(p_gen, 0.2, 0.7, xi, mode="steady_state"), (-0.4,)),
        "q_closed_form_origin": (lambda xi: timereversal.q_closed_form_origin(p_gen, 0.7, xi), (-0.4,)),
        "backward_drift_display_origin":
            (lambda xi: timereversal.backward_drift_display_origin(p_gen, 0.7, xi), (-0.4,)),
    }


POINT_LAWS = _point_laws()


@pytest.mark.parametrize("name", sorted(POINT_LAWS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_point_law_rejects_a_non_finite_point(name, bad):
    # NaN read as 0.0 (the atom line, planar_atom's density, the rank law) or
    # as lam (the steady-state drift); +inf read as 0.0 or ran into a RuntimeWarning
    law, args = POINT_LAWS[name]
    law(*args)  # the finite values are valid
    for k in range(len(args)):
        for point in (bad, np.array([args[k] - 0.1, bad, args[k] + 0.1])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParameterError, match="point must be finite"):
                    law(*[point if i == k else a for i, a in enumerate(args)])


def test_public_names_pinned():
    import rankdiff
    assert sorted(rankdiff.__all__) == [
        "AtomLine", "BackwardDriftSpec", "DensityGrid", "ExperimentConfig", "GofReport",
        "InitialState", "ModelParams", "NoiseBundle", "ParameterError", "PiecewiseBV",
        "PlanarPath", "SeedSpec", "SqrtConfig", "StrengthVerdict", "TerminalSample",
        "YPath", "atom_density", "atom_line_density", "atom_mass",
        "backward_drift", "backward_rank_drift_report", "bangbang", "build_config",
        "classifier", "core", "densities", "density_grid", "emit_svg_heatmap",
        "enumerate_diagonal_roots", "euler_gap_path", "euler_simulate", "euler_terminal_batch",
        "exact_sample_terminal", "front_jump", "gap_path_of", "harness", "invariant_density",
        "joint_density_degenerate", "joint_density_isotropic", "noise_bundle",
        "occupation_local_time", "planar", "planar_atom", "planar_density", "psi_density",
        "q_function", "quadrivariate_atom_density", "quadrivariate_density",
        "rank_density_degenerate", "rank_residuals", "ranks", "run_validation_suite",
        "sample_triples", "sign", "simulate_backward",
        "skew_construct", "strength", "svgplot", "tails", "tanaka_coalescence_experiment",
        "timereversal", "transition_density", "triple_density",
        "validate_params", "validation",
    ]


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    # scipy.stats alone was more than half of the package's import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, rankdiff.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _fresh_python(code, *argv):
    """The last line that `python -c code argv...` prints, in a fresh process on src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    return out.stdout.strip().splitlines()[-1]


_SPECIAL_LOADED = "any(m == 'scipy.special' or m.startswith('scipy.special.') for m in sys.modules)"


def test_simulate_classify_tanaka_and_density_never_load_scipy_special(tmp_path):
    # scipy.special is loaded on first use (tails.special), about half of the start-up
    code = f"""if True:
        import sys, rankdiff.cli
        loaded = [{_SPECIAL_LOADED}]
        for args in (["simulate", "--system", "B", "--steps", "50"], ["simulate", "--system", "gap"],
                     ["classify", "--rho", "0.8", "--sigma", "0.6", "--enumerate"],
                     ["tanaka", "--dts", "8e-3,4e-3", "--reps", "3"], ["density", "--xi-n", "5"]):
            assert rankdiff.cli.main(args + ["--out-dir", sys.argv[1]]) == 0, args
            loaded.append({_SPECIAL_LOADED})
        print(loaded)"""
    assert _fresh_python(code, str(tmp_path)) == str([False] * 6)


def test_first_use_of_scipy_special_inside_threads_moves_no_byte():
    code = f"""if True:
        import hashlib, sys
        import numpy as np
        from rankdiff import harness, planar
        from rankdiff.core import InitialState, SeedSpec, validate_params
        p, s0 = validate_params(1.0, 0.5, 0.8, 0.6), InitialState(0.4, 0.0)

        def draw(n, seed):
            d = planar.exact_sample_terminal(p, s0, 1.0, n, seed)
            return np.concatenate([d.x1, d.x2])

        before = {_SPECIAL_LOADED}
        sys.setswitchinterval(1e-6)  # three threads, switching often, race to the first use
        digests = [hashlib.sha256(np.concatenate(harness.pmap_batches(60_000, draw, SeedSpec(7), workers=w))
                                  .tobytes()).hexdigest() for w in (3, 1)]
        print([before, {_SPECIAL_LOADED}, digests[0] == digests[1]])"""
    assert _fresh_python(code) == str([False, True, True])
