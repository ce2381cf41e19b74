"""Memory guard: tracemalloc peaks of the blocked grid and scan kernels.

Each budget is the peak measured when the row blocks went in (Python 3.11,
numpy 2.4), rounded up by about 12%.  The whole-array code they replaced
peaked at 77 MB (Tanaka), 96 MB (Skorokhod), 58 MB (normalization) and
28 MB (cell masses); the sampler check peaked at 41.9 MB while its marginal
tables held the whole 1,999 x 1,999 density grid; the local-time check
peaked at 69.5 MB while its reversal rows kept the unread dW alive, and at
59.8 MB while its scans built whole matrices to read one or two rows.  The
classifier sweep and the Chapman-Kolmogorov quadrature run as arrays; their
budgets guard those arrays.  The CSV and SVG writers write each part as it
is made and keep one join of the text they return: about 2.0 times its
length, where joining the whole text, ending it and encoding it whole took
3.0 and 3.1 times.  Never loosen a budget to make it pass.
"""

import tracemalloc

import numpy as np
import pytest

from rankdiff import bangbang, densities, tails, validation
from rankdiff.core import InitialState, SeedSpec, validate_params
from rankdiff.harness import expected_cell_masses, write_csv
from rankdiff.svgplot import emit_svg_heatmap

MB = 1e6


def traced_peak(fn):
    tails.special()  # a first use imports scipy.special; measure the call, not the import
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def batch():
    return bangbang.euler_gap_paths_batch(2.0, 0.3, 1.0, 4000, 600, SeedSpec(1).generator())


def test_tanaka_scan_peak_is_its_output(batch):
    _, y, _ = batch
    el, peak = traced_peak(lambda: bangbang.tanaka_residual_matrix(y))
    assert el.nbytes == 19_204_800 and peak < 24 * MB  # measured 21.4 MB


def test_skorokhod_scan_peak_is_its_output(batch):
    times, y, dw = batch
    two_l, peak = traced_peak(lambda: bangbang.skorokhod_local_time_series(y, dw, times, 2.0))
    assert two_l.nbytes == 19_204_800 and peak < 24 * MB  # measured 21.4 MB


def test_normalization_check_peak():
    _, peak = traced_peak(validation.check_normalization)
    assert peak < 16 * MB  # measured 14.3 MB, scipy.special loaded first


def test_sampler_check_peak():
    _, peak = traced_peak(lambda: validation.check_sampler_vs_density(SeedSpec(20240601).stream(10_000)))
    assert peak < 16 * MB  # measured 14.5 MB


def test_local_time_check_peak():
    _, peak = traced_peak(lambda: validation.check_local_time(SeedSpec(20240601, 8)))
    assert peak < 46 * MB  # measured 41.0 MB


def test_classifier_check_peak():
    _, peak = traced_peak(lambda: validation.check_classifier(SeedSpec(20240601).stream(1000)))
    assert peak < 5 * MB  # measured 4.46 MB for the 10,000-config sweep


def test_chapman_kolmogorov_check_peak():
    _, peak = traced_peak(validation.check_chapman_kolmogorov)
    assert peak < 0.5 * MB  # measured 0.45 MB


def test_expected_cell_masses_peak_on_twenty_bins():
    p, s0 = validate_params(1.0, 0.5, 0.8, 0.6), InitialState(0.4, 0.0)
    e = np.linspace(-3.0, 3.0, 21)
    masses, peak = traced_peak(lambda: expected_cell_masses(
        lambda a, b: densities.planar_density(p, s0, 1.0, a, b), e, e))
    assert masses.shape == (20, 20) and peak < 12 * MB  # measured 10.2 MB


def test_write_csv_peak_is_about_two_copies_of_its_text(tmp_path):
    table = np.random.default_rng(1).standard_normal((200_000, 2))
    write_csv(str(tmp_path / "warm.csv"), "t", ["x1", "x2"], table[:10])  # the kernel's tables
    text, peak = traced_peak(lambda: write_csv(str(tmp_path / "t.csv"), "t", ["x1", "x2"], table))
    assert peak < 2.25 * len(text)  # measured 2.00 times 8.07 MB


def test_write_csv_peak_on_a_wide_table(tmp_path):
    table = np.random.default_rng(2).standard_normal((4096, 500))
    write_csv(str(tmp_path / "warm.csv"), "t", ["x"], table[:10, :1])  # the kernel's tables
    cols = [f"c{j}" for j in range(500)]
    text, peak = traced_peak(lambda: write_csv(str(tmp_path / "t.csv"), "t", cols, table))
    assert peak < 2.25 * len(text)  # measured 2.00 times 41.3 MB; 19.7 in blocks of 4,096 rows


def test_svg_heatmap_peak_is_about_two_copies_of_its_text(tmp_path):
    p, s0 = validate_params(1.0, 1.0, 1.0, 0.0), InitialState(0.5, 0.0)
    xi = np.linspace(-3.0, 4.0, 301)
    grid = densities.density_grid(p, s0, 1.0, xi, xi)
    text, peak = traced_peak(lambda: emit_svg_heatmap(grid, str(tmp_path / "h.svg")))
    assert peak < 2.25 * len(text)  # measured 2.00 times 7.18 MB
