"""The acceptance battery behind `rankdiff validate`.

Each check function returns a list of GofReport rows; run_validation_suite
composes them.  Most Monte Carlo tolerances are sized at four-plus standard
errors of their statistic.  Two rows are not: invariant-law/occupation-
histogram carries the O(dt) bias of its Euler chain and reads about 0.014
+- 0.004 against its 0.02 tolerance, so it is red at some seeds; and
local-time/reversal-halving is red by design (see check_local_time).  Every
random quantity is keyed to the config seed through fixed sub-streams, so
the battery is deterministic and its emitted tables are byte-identical
across runs and worker counts.  Its only settings are the config's seed,
scale and workers (`--seed`, `--scale`, `--workers`); every tolerance, step
count and grid size is fixed here, and tests inject faults by monkeypatching.

Normalization integrals are taken in coordinates aligned with each law's
kink and jump lines (gap/sum rotation, per-wedge parametrization), so the
quadrature is spectrally accurate and the 1e-5 tolerances test the formulas,
not the integrator.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

import numpy as np

from . import bangbang, classifier, densities, planar, timereversal
from .core import (BLOCK_CELLS, NORMALIZATION_TOL, InitialState, ModelParams, ParameterError,
                   SeedSpec, validate_params)
from .harness import (GofReport, binomial_z, chi2_against_density, gl_points, grid_blocks,
                      grid_values, ks_statistic, ks_two_sample, pmap_batches)

# stream id blocks per check, so adding draws to one never shifts another
_STREAMS = {
    "classifier": 1_000,
    "sampler": 10_000,
    "euler": 20_000,
    "paths": 30_000,
    "localtime": 40_000,
    "reversal": 50_000,
    "invariant": 60_000,
}


def _report(kind, name, stat, tol, n, mode="le", p_value=None, note=""):
    return GofReport(kind, name, float(stat), float(tol), int(n), mode, p_value, note)


def _integrate_kinked(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                      kinks: Sequence[float] = (), n_panels: int = 24) -> float:
    pts, wts = gl_points(lo, hi, n_panels, cuts=kinks)
    return float(np.sum(fn(pts) * wts))


def _mass_rotated(density2: Callable, u_lo, u_hi, s_lo, s_hi, u_cuts=()) -> float:
    """Integral of density2(xi1, xi2) via gap/sum coordinates u, s.

    Kink lines of the planar laws are gap-diagonal, i.e. vertical in (u, s);
    pass them as u_cuts and the integrand is smooth per panel.
    """
    pu, wu = gl_points(u_lo, u_hi, 24, cuts=u_cuts)
    ps, ws = gl_points(s_lo, s_hi, 24)
    vals = grid_values(lambda u, s: density2((s + u) / 2.0, (s - u) / 2.0), pu, ps)
    return 0.5 * float(np.einsum("i,j,ij->", wu, ws, vals))


def _masses_degenerate(p: ModelParams, s0: InitialState, t: float):
    """Continuous masses of the degenerate joint and rank laws, per-wedge
    parametrization.

    On each wedge the density is smooth in (gap u > 0, pinned-side w), with
    w bounded above by the front.
    """
    front = densities.front_location(p, s0, t)
    hw = abs(s0.y) + p.lam * t + 13 * math.sqrt(t) + 3
    pu, wu = gl_points(1e-12, hw, 28)
    pw, ww = gl_points(front - hw, front, 28)

    def mass(f):  # f(x_hi, x_lo) over the (u, w) grid
        vals = grid_values(lambda u, w: f(w + u, w + 0 * u), pu, pw)
        return float(np.einsum("i,j,ij->", wu, ww, vals))

    # the wedge of (lo, hi) is the wedge of (hi, lo) at the same points: twice its mass
    joint = mass(lambda hi, lo: densities.joint_density_degenerate(p, s0, t, hi, lo))
    return joint + joint, mass(lambda hi, lo: densities.rank_density_degenerate(p, s0, t, hi, lo))


# ---------------------------------------------------------------------------
# criterion 1 and 2: classifier
# ---------------------------------------------------------------------------

def _sweep_configs(rng, n: int):
    """(u, eps, delta, phi, vartheta) of n random configurations, drawn as
    numpy's uniform(low, high) draws them, one configuration after another."""
    low = np.array([0.02, 0.0, 0.0, 0.0, 0.0])
    high = np.array([math.pi / 2 - 0.02, 1.0, 1.0, 2 * math.pi, 2 * math.pi])
    u, e, d, phi, vartheta = (low + (high - low) * rng.random((n, 5))).T
    return u, np.where(e < 0.5, 1, -1), np.where(d < 0.5, 1, -1), phi, vartheta


def check_classifier(seed: SeedSpec, n_sweep: int = 10_000) -> List:
    reports = []
    cases = [
        ("isotropic", 1 / math.sqrt(2), 1 / math.sqrt(2), 48),
        ("degenerate-rho1", 1.0, 0.0, 48),
        ("degenerate-rho0", 0.0, 1.0, 48),
        ("generic-0.8-0.6", 0.8, 0.6, 56),
    ]
    for name, rho, sg, expected in cases:
        p = validate_params(1.0, 1.0, rho, sg, renormalize=True)
        cfgs, _, strong = classifier.enumerate_diagonal_roots(p)
        reports.append(_report("count", f"classifier/total-roots/{name}", abs(len(cfgs) - 64), 0, 64))
        reports.append(_report("count", f"classifier/strong-count/{name}", abs(strong - expected), 0, 64,
                               note=f"strong={strong} expected={expected}"))
    u, eps, dlt, phi, vartheta = _sweep_configs(seed.stream(0).generator(), n_sweep)
    rho, sigma = np.cos(u), np.sin(u)
    norm = np.sqrt(rho**2 + sigma**2)  # validate_params(renormalize=True), per config
    rho, sigma = rho / norm, sigma / norm
    if not np.all(np.abs(rho**2 + sigma**2 - 1.0) <= NORMALIZATION_TOL):
        raise ParameterError("normalization rho^2+sigma^2=1 violated")
    phi, vartheta, _, m, psi = classifier.square_roots(rho, sigma, eps, dlt, phi, vartheta)
    by_ip, by_scalar, by_geom = classifier.criteria(rho, sigma, eps, dlt, phi, vartheta, psi,
                                                    m[:, 0], m[:, 1])[3]
    agree = (by_ip == by_scalar) & (by_scalar == by_geom)
    disagreements, weak = int(n_sweep - agree.sum()), int((agree & by_ip).sum())
    reports.append(_report("count", "classifier/criteria-agreement", disagreements, 0, n_sweep))
    reports.append(_report("sup", "classifier/weak-fraction", weak / n_sweep, 0.01, n_sweep,
                           note="codimension-one condition; random configs are almost surely strong"))
    return reports


# ---------------------------------------------------------------------------
# criterion 3: normalization
# ---------------------------------------------------------------------------

_LAM_GRID = (0.5, 1.0, 2.0, 5.0)
_T_GRID = (0.1, 1.0, 5.0)
_Y_GRID = (-2.0, 0.0, 3.0)


def _params_for_lam(lam: float, rho: float = 1.0, sigma: float = 0.0) -> ModelParams:
    return validate_params(lam / 2, lam / 2, rho, sigma)


def check_normalization() -> List:
    reports = []
    worst = 0.0
    for lam in _LAM_GRID:
        p = _params_for_lam(lam)
        for t in _T_GRID:
            for y in _Y_GRID:
                hw = abs(y) + lam * t + 12 * math.sqrt(t) + 2
                mass = _integrate_kinked(lambda xi: bangbang.transition_density(p, t, y, xi),
                                         -hw, hw, kinks=[0.0])
                worst = max(worst, abs(mass - 1.0))
    reports.append(_report("sup", "normalization/transition-density-grid", worst, 1e-5, 36))

    # isotropic, over a small (rates, t) sweep
    worst = 0.0
    sq = 1 / math.sqrt(2)
    for g, h in ((1.0, 0.5), (2.5, 2.5)):
        p = validate_params(g, h, sq, sq, renormalize=True)
        s0 = InitialState(0.3, 0.0)
        for t in (0.5, 2.0):
            hw = abs(s0.y) + p.lam * t + 12 * math.sqrt(t) + 2
            s_mid = s0.z + p.nu * t
            mass = _mass_rotated(lambda a, b: densities.joint_density_isotropic(p, s0, t, a, b),
                                 -hw, hw, s_mid - 14 * math.sqrt(t), s_mid + 14 * math.sqrt(t),
                                 u_cuts=[0.0])
            worst = max(worst, abs(mass - 1.0))
    reports.append(_report("sup", "normalization/isotropic", worst, 1e-5, 4))

    # degenerate (joint and rank laws), with and without the line component
    for lam, t in ((2.0, 1.0), (1.0, 0.5), (5.0, 0.2)):
        p = _params_for_lam(lam)
        for name, s0 in [("fig2", InitialState(0.0, 0.0)), ("apart", InitialState(0.5, 0.0))]:
            cont, rk = _masses_degenerate(p, s0, t)
            front = densities.front_location(p, s0, t)
            line = _integrate_kinked(
                lambda u: densities.atom_line_density(p, s0, t, u),
                front + 1e-12, front + abs(s0.y) + p.lam * t + 14.0 * math.sqrt(t) + 2, n_panels=32)
            reports.append(_report("sup", f"normalization/degenerate-{name}/lam={lam:g},t={t:g}",
                                   abs(cont + line - 1.0), 1e-5, 1,
                                   note=f"atom mass {bangbang.atom_mass(p, s0.y, t):.6f}"))
            reports.append(_report("sup", f"normalization/rank-degenerate-{name}/lam={lam:g},t={t:g}",
                                   abs(rk + line - 1.0), 1e-5, 1))

    # general unequal-variance law, in centered coordinates
    p = validate_params(1.0, 0.5, 0.8, 0.6)
    worst = 0.0
    for t in (0.5, 2.0):
        for y in (0.0, 0.4):
            hw = abs(y) + p.lam * t + 12 * math.sqrt(t) + 2
            s_mid = -p.lam * p.gamma * t
            mass = _mass_rotated(lambda a, b: densities.psi_density(p, y, t, a, b),
                                 -hw, hw, s_mid - 14 * math.sqrt(t), s_mid + 14 * math.sqrt(t),
                                 u_cuts=[-y])
            worst = max(worst, abs(mass - 1.0))
    reports.append(_report("sup", "normalization/unequal-variance", worst, 1e-5, 4))
    return reports


# ---------------------------------------------------------------------------
# criterion 4: Chapman-Kolmogorov
# ---------------------------------------------------------------------------

def _ck_convolutions(p: ModelParams, t: float, y: float):
    """(int f(0.4 t, y, u) f(0.6 t, u, xi) du, f(t, y, xi)) at the seven xi,
    f = transition_density, on one quadrature grid: each convolution is a
    row sum of a C-contiguous (7, n) array, added in the 1-D sum's order."""
    hw = abs(y) + p.lam * t + 12 * math.sqrt(t) + 2
    pts, wts = gl_points(-hw, hw, 24, cuts=[0.0])
    xi = np.array([-3.0, -1.0, -0.2, 0.0, 0.4, 1.5, 3.0]) * math.sqrt(t)
    vals = bangbang.transition_density(p, 0.4 * t, y, pts) * bangbang.transition_density(
        p, 0.6 * t, pts, xi[:, None]) * wts
    return vals.sum(axis=1), bangbang.transition_density(p, t, y, xi)


def check_chapman_kolmogorov() -> List:
    cases = [(_params_for_lam(lam), t, y) for lam in _LAM_GRID for t in _T_GRID for y in _Y_GRID]
    worst = max(float(np.abs(np.subtract(*_ck_convolutions(*case))).max()) for case in cases)
    return [_report("sup", "chapman-kolmogorov/pointwise", worst, 1e-6, 252)]


# ---------------------------------------------------------------------------
# criterion 5: exact sampler vs closed-form density
# ---------------------------------------------------------------------------

def _sampler_cases():
    sq = 1 / math.sqrt(2)
    return [
        ("degenerate-fig2", validate_params(1.0, 1.0, 1.0, 0.0), InitialState(0.0, 0.0)),
        ("degenerate-apart", validate_params(1.0, 1.0, 1.0, 0.0), InitialState(0.5, 0.0)),
        ("isotropic", validate_params(1.0, 0.5, sq, sq, renormalize=True), InitialState(0.3, 0.0)),
        ("unequal-0.8-0.6", validate_params(1.0, 0.5, 0.8, 0.6), InitialState(0.4, 0.0)),
    ]


def _fine_grid_marginals(p, s0, t, lo1, hi1, lo2, hi2):
    """Continuous-part marginal CDF tables on a fine product grid, with the
    singular line folded into the marginal it spreads over."""
    g1 = np.linspace(lo1, hi1, 2000)
    g2 = np.linspace(lo2, hi2, 2000)
    c1 = (g1[1:] + g1[:-1]) / 2
    c2 = (g2[1:] + g2[:-1]) / 2
    h1, h2 = g1[1] - g1[0], g2[1] - g2[0]
    m1, m2 = np.empty(len(c1)), None
    for rows, vals in grid_blocks(lambda a, b: densities.planar_density(p, s0, t, a, b), c1, c2):
        m1[rows] = vals.sum(axis=1)
        # an axis-0 sum adds rows in sequence: carrying m2 as the first row continues the grid's sum
        m2 = vals.sum(axis=0) if m2 is None else np.concatenate([m2[None], vals]).sum(axis=0)
    m1, m2 = m1 * h2, m2 * h1
    atoms1, atoms2 = [], []
    atom = densities.planar_atom(p, s0, t)
    if atom is not None:
        if atom.axis == "x2":
            m1 = m1 + atom.density(c1)
            atoms2.append((atom.location, atom.mass))
        else:
            m2 = m2 + atom.density(c2)
            atoms1.append((atom.location, atom.mass))
    cdf1 = np.concatenate([[0.0], np.cumsum(m1 * h1)])
    cdf2 = np.concatenate([[0.0], np.cumsum(m2 * h2)])
    return (g1, cdf1, atoms1), (g2, cdf2, atoms2)


def _mixed_ks(samples, grid, cont_cdf, atoms):
    total = cont_cdf[-1] + sum(m for _, m in atoms)
    cdf_at = np.interp(samples, grid, cont_cdf)
    cdf_left = cdf_at.copy()
    for loc, m in atoms:
        cdf_at = cdf_at + m * (samples >= loc)
        cdf_left = cdf_left + m * (samples > loc)
    return ks_statistic(samples, cdf_at / total, cdf_left / total)


def check_sampler_vs_density(seed: SeedSpec, n_draws: int = 100_000, workers: int = 1) -> List:
    reports = []
    t = 1.0
    for idx, (name, p, s0) in enumerate(_sampler_cases()):
        base = seed.stream(idx * 1000)

        def draw(n, s):
            d = planar.exact_sample_terminal(p, s0, t, n, s)
            return np.column_stack((d.x1, d.x2, d.triples.atom.astype(float)))

        draws = np.concatenate(pmap_batches(n_draws, draw, base, workers), axis=0)
        x1, x2, is_atom = draws[:, 0], draws[:, 1], draws[:, 2] > 0.5

        (g1, cdf1, atoms1), (g2, cdf2, atoms2) = _fine_grid_marginals(
            p, s0, t, x1.min() - 0.5, x1.max() + 0.5, x2.min() - 0.5, x2.max() + 0.5)
        reports.append(_report("KS", f"sampler/{name}/marginal-x1",
                               _mixed_ks(x1, g1, cdf1, atoms1), 0.01, n_draws))
        reports.append(_report("KS", f"sampler/{name}/marginal-x2",
                               _mixed_ks(x2, g2, cdf2, atoms2), 0.01, n_draws))

        atom = densities.planar_atom(p, s0, t)
        special1, special2 = [], []
        if atom is not None:
            (special1 if atom.axis == "x1" else special2).append(atom.location)
        keep = ~is_atom if p.is_degenerate else np.ones(len(x1), dtype=bool)
        stat, pval, dof = chi2_against_density(
            x1[keep], x2[keep],
            lambda a, b: densities.planar_density(p, s0, t, a, b),
            n_bins=20, special_edges1=special1, special_edges2=special2)
        reports.append(_report("chi2", f"sampler/{name}/joint", pval, 1e-3, int(keep.sum()),
                               mode="ge", p_value=pval, note=f"stat={stat:.1f} dof={dof}"))

        mass = bangbang.atom_mass(p, abs(s0.y), t)
        z = abs(binomial_z(int(is_atom.sum()), n_draws, mass))
        reports.append(_report("mean-CI", f"sampler/{name}/atom-frequency", z, 4.0, n_draws,
                               note=f"freq={is_atom.mean():.5f} mass={mass:.5f}"))
    return reports


# ---------------------------------------------------------------------------
# criterion 6: Euler terminal laws vs the exact sampler
# ---------------------------------------------------------------------------

def check_euler_vs_exact(seed: SeedSpec, n_paths: int = 100_000, workers: int = 1) -> List:
    p = validate_params(1.0, 1.0, 1.0, 0.0)
    s0 = InitialState(0.0, 0.0)
    t = 1.0

    def draw_exact(n, s):
        d = planar.exact_sample_terminal(p, s0, t, n, s)
        return np.column_stack((d.x1, d.x2))

    exact = np.concatenate(pmap_batches(n_paths, draw_exact, seed.stream(0), workers), axis=0)
    reports = []
    for k, kind in enumerate(("B", "W", "V")):
        def draw_euler(n, s, kind=kind):
            return np.column_stack(planar.euler_terminal_batch(kind, p, s0, t, 1000, n, s))

        eu = np.concatenate(pmap_batches(n_paths, draw_euler, seed.stream(1000 + 100 * k), workers), axis=0)
        reports.append(_report("KS", f"euler-vs-exact/system-{kind}/x1",
                               ks_two_sample(eu[:, 0], exact[:, 0]), 0.015, n_paths))
        reports.append(_report("KS", f"euler-vs-exact/system-{kind}/x2",
                               ks_two_sample(eu[:, 1], exact[:, 1]), 0.015, n_paths))
    return reports


# ---------------------------------------------------------------------------
# criterion 7: path identities
# ---------------------------------------------------------------------------

def check_path_identities(seed: SeedSpec) -> List:
    reports = []
    n_steps = 4000
    p = validate_params(1.0, 0.5, 0.8, 0.6)
    s0 = InitialState(0.2, 0.0)
    kinds = ["B", "W", "V", classifier.build_config(p, -1, 1, 0.7, 2.1)]
    for k, kind in enumerate(kinds):
        label = kind if isinstance(kind, str) else "custom"
        path = planar.euler_simulate(kind, p, s0, 1.0, n_steps, seed.stream(k))
        gap = planar.gap_path_of(path)
        redone = bangbang.euler_gap_path(p.lam, s0.y, 1.0, n_steps, increments=gap.w_increments)
        diff_err = float(np.abs(path.y_values - redone.y_values).max())
        reports.append(_report("sup", f"path-identity/difference/{label}", diff_err, 1e-10, n_steps))
        sum_noise = np.concatenate([[0.0], np.cumsum(planar.sum_driver_increments(path))])
        sum_err = float(np.abs(path.x1_values + path.x2_values
                               - (s0.z + p.nu * path.times + sum_noise)).max())
        reports.append(_report("sup", f"path-identity/sum/{label}", sum_err, 1e-10, n_steps))
    return reports


# ---------------------------------------------------------------------------
# criterion 8: local time estimators
# ---------------------------------------------------------------------------

def _localtime_gap_rms(seed: SeedSpec, dt: float, which: str) -> float:
    """RMS of one estimator identity's last-row gap over 600 gap paths (lam 2, y0 0.3, T 1)."""
    lam, n_steps = 2.0, int(round(1.0 / dt))
    times, y, dw = bangbang.euler_gap_paths_batch(lam, 0.3, 1.0, n_steps, 600, seed.generator())
    if which == "skorokhod":  # the last rows only
        gap = (2.0 * bangbang.tanaka_residual_series(y, last=True)
               - bangbang.skorokhod_local_time_series(y, dw, times, lam, last=True))
    elif which == "reversal":  # row k of el_rev - (el[-1] - el[::-1]); the scans are causal
        del dw  # not read here
        k = n_steps // 2
        gap = (bangbang.tanaka_residual_series(y[::-1][:k + 1], last=True)
               - (bangbang.tanaka_residual_series(y, last=True)
                  - bangbang.tanaka_residual_series(y[:n_steps - k + 1], last=True)))
    else:
        raise ValueError(which)
    return float(np.sqrt(np.mean(gap**2)))


def check_local_time(seed: SeedSpec, n_paths: int = 256) -> List:
    reports = []
    dt = 1e-4
    eps = dt**0.4
    y = bangbang.euler_gap_paths_batch(2.0, 0.0, 1.0, int(round(1.0 / dt)), n_paths, seed.stream(0).generator())[1]
    el = bangbang.tanaka_residual_series(y, last=True)
    n, rows = len(y) - 1, max(1, BLOCK_CELLS // y.shape[1])  # occupation counted per row block
    inside = sum((np.abs(y[i:min(i + rows, n)]) < eps).sum(axis=0) for i in range(0, n, rows))
    rel = np.abs(inside * dt / (4.0 * eps) - el) / el
    del y, el  # the halving rows below build their own batches
    reports.append(_report("mean-CI", "local-time/occupation-vs-residual",
                           float(np.median(rel)), 0.10, len(rel),
                           note=f"median relative gap at dt={dt:g}, eps=dt^0.4"))

    for which, note in (
        ("skorokhod", "running-max reconstruction vs residual estimator"),
        ("reversal", "the sign-flip sum forces a dt^(1/4) rate for any non-circular "
                     "pathwise check of the reversal identity, so the sqrt(dt) halving "
                     "stated for it is not attainable; kept red by design"),
    ):
        r_coarse = _localtime_gap_rms(seed.stream(100_000 if which == "skorokhod" else 200_000),
                                      1e-3, which)
        r_fine = _localtime_gap_rms(seed.stream(100_001 if which == "skorokhod" else 200_001),
                                    2.5e-4, which)
        ratio = r_fine / r_coarse
        reports.append(_report("sup", f"local-time/{which}-halving", ratio, 0.62, 600,
                               note=f"rms {r_coarse:.4f} -> {r_fine:.4f} as dt quarters; {note}"))
    return reports


# ---------------------------------------------------------------------------
# criterion 9: time reversal
# ---------------------------------------------------------------------------

def _log_density_fd(p, y0, tau, xi, h):
    f = [math.log(bangbang.transition_density(p, tau, y0, xi + k * h)) for k in (-2, -1, 1, 2)]
    return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)


def check_time_reversal(seed: SeedSpec, n_paths: int = 100_000) -> List:
    reports = []
    lam = 2.0
    p = _params_for_lam(lam)
    worst = 0.0
    for y0 in (0.0, 0.7, -0.4):
        for tau in (0.5, 2.0):
            for xi in (-1.5, -0.3, 0.3, 1.5):
                q = timereversal.q_function(p, y0, tau, xi)
                fd = _log_density_fd(p, y0, tau, xi, 1e-3 * max(1.0, abs(xi)))
                worst = max(worst, abs(q - fd) / max(abs(fd), 1e-12))
    reports.append(_report("sup", "reversal/score-vs-finite-difference", worst, 1e-6, 48))

    xi = np.linspace(0.05, 6.0, 400)
    for tau in (0.3, 1.0, 4.0):
        disp = timereversal.backward_drift_display_origin(p, tau, xi)
        generic = timereversal.backward_drift(p, 0.0, tau, xi)
        gap = float(np.abs(disp - generic).max() / np.abs(generic).max())
        neg_gap = float(np.abs(
            timereversal.backward_drift_display_origin(p, tau, -xi)
            - timereversal.backward_drift(p, 0.0, tau, -xi)).max())
        reports.append(_report("sup", f"reversal/origin-display-positive-side/tau={tau:g}", gap, 1e-8, 400,
                               note=("printed form reconciled by oddness; it deviates by up to "
                                     f"{neg_gap:.3g} on the negative side, logged per the open question")))

    grid = np.linspace(-4, 4, 401)
    steady = timereversal.backward_drift(p, 0.0, 1.0, grid, mode="steady_state")
    ref = -lam * np.where(grid > 0, 1.0, -1.0)
    reports.append(_report("sup", "reversal/steady-drift-exact", float(np.abs(steady - ref).max()), 0.0, 401))

    spec = timereversal.BackwardDriftSpec(p, 0.0, 1.0, mode="steady_state")
    _, ks = timereversal.reversal_ks(spec, 500, n_paths, seed)
    reports.append(_report("KS", "reversal/steady-state-paths", ks, 0.015, n_paths))
    return reports


# ---------------------------------------------------------------------------
# criterion 10: invariant law
# ---------------------------------------------------------------------------

def check_invariant_law(seed: SeedSpec, n_paths: int = 768) -> List:
    lam = 2.0
    T, dt = 50.0, 1e-3
    burn, thin = 10.0, 10
    edges = np.linspace(-2.5, 2.5, 26)
    n_steps = int(round(T / dt))
    burn_steps = int(round(burn / dt))
    rng = seed.generator()
    y = np.zeros(n_paths)
    counts = np.zeros(len(edges) - 1)
    n_tot = 0
    for k in range(n_steps):
        bangbang.gap_euler_step(y, lam, dt, rng.standard_normal(n_paths) * np.sqrt(dt))
        if k >= burn_steps and k % thin == 0:
            c, _ = np.histogram(y, edges)
            counts += c
            n_tot += n_paths
    emp = counts / n_tot / np.diff(edges)

    def inv_cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0, 0.5 * np.exp(2 * lam * x), 1.0 - 0.5 * np.exp(-2 * lam * x))

    ref = np.diff(inv_cdf(edges)) / np.diff(edges)
    sup = float(np.abs(emp - ref).max())
    return [_report("sup", "invariant-law/occupation-histogram", sup, 0.02, n_tot,
                    note=f"{n_paths} paths, T={T:g}, dt={dt:g}, thinned x{thin}")]


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def run_validation_suite(cfg) -> List:
    """Execute the acceptance battery; collect (never short-circuit) results."""
    seed = SeedSpec(cfg.seed)

    def n_of(base, floor):
        return max(int(base * cfg.scale), floor)

    reports: List = []
    reports += check_classifier(seed.stream(_STREAMS["classifier"]), n_sweep=n_of(10_000, 500))
    reports += check_normalization()
    reports += check_chapman_kolmogorov()
    reports += check_sampler_vs_density(seed.stream(_STREAMS["sampler"]),
                                        n_draws=n_of(100_000, 4000), workers=cfg.workers)
    reports += check_euler_vs_exact(seed.stream(_STREAMS["euler"]),
                                    n_paths=n_of(100_000, 2000), workers=cfg.workers)
    reports += check_path_identities(seed.stream(_STREAMS["paths"]))
    reports += check_local_time(seed.stream(_STREAMS["localtime"]), n_paths=n_of(256, 32))
    reports += check_time_reversal(seed.stream(_STREAMS["reversal"]),
                                   n_paths=n_of(100_000, 4000))
    reports += check_invariant_law(seed.stream(_STREAMS["invariant"]), n_paths=n_of(768, 100))
    return reports
