"""The A/B summary of scripts/bench_ab.py on synthetic runs: the gain rule,
the no-regression bound, the unresolved verdict and the run-order gaps."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {"wall_s": ("lower", 0.24), "ops_per_s": ("higher", 0.24), "failed_ops_frac": ("lower", None)}


def summary(parent, change):
    """parent and change: per run, (wall_s, ops_per_s, failed_ops_frac)."""
    def recs(rows):
        return [dict(zip(SPEC, r)) for r in rows]
    return bench_ab.summarise({"parent": recs(parent), "change": recs(change)}, SPEC)["metrics"]


def test_tight_parent_and_a_change_inside_the_bound():
    parent = [(10.0 + 0.1 * k, 100.0 - k, 0.0) for k in range(10)]
    change = [(11.0 + 0.1 * k, 90.0 - k, 0.0) for k in range(10)]  # 10% slower, 10% fewer ops
    m = summary(parent, change)
    for name in SPEC:
        assert m[name]["within_bound"] and not m[name]["unresolved"] and not m[name]["gain_rule_met"]


def test_a_change_past_the_bound_is_not_within_it():
    parent = [(10.0 + 0.1 * k, 100.0 - k, 0.0) for k in range(10)]
    change = [(13.0 + 0.1 * k, 70.0 - k, 0.1) for k in range(10)]  # 30% slower, 30% fewer ops, failures
    m = summary(parent, change)
    assert not m["wall_s"]["within_bound"] and not m["ops_per_s"]["within_bound"]
    assert not m["failed_ops_frac"]["within_bound"]


SPREAD = (5.0, 6.0, 7.5, 8.0, 9.0, 11.0, 12.0, 12.5, 14.0, 15.0)  # IQR 5 s on a 10 s median


@pytest.mark.parametrize("change,unresolved", [(SPREAD, True), ([4.0 - 0.1 * k for k in range(10)], False)])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(change, unresolved):
    # unresolved unless every change run beats every parent run
    m = summary([(w, 100.0, 0.0) for w in SPREAD], [(w, 100.0, 0.0) for w in change])["wall_s"]
    assert m["parent_iqr"] > 0.24 * m["parent_median"]
    assert m["unresolved"] == unresolved and m["within_bound"]
    assert m["gain_rule_met"] == (not unresolved)


def test_higher_is_better_beats_all_in_its_own_direction():
    parent = [(10.0, v, 0.0) for v in (50.0, 60.0, 80.0, 100.0, 120.0, 140.0, 150.0)]
    better = summary(parent, [(10.0, 200.0 + k, 0.0) for k in range(7)])["ops_per_s"]
    worse = summary(parent, [(10.0, 40.0 - k, 0.0) for k in range(7)])["ops_per_s"]
    assert not better["unresolved"] and better["within_bound"]
    assert worse["unresolved"] and not worse["within_bound"]


def test_run_order_gaps_split_the_pairs_by_which_side_ran_first():
    # the parent runs first in even pairs; only the change-first pairs carry a 0.5 s offset
    parent = [(10.0 + 0.1 * k, 100.0, 0.0) for k in range(10)]
    change = [(9.0 + 0.1 * k + (0.5 if k % 2 else 0.0), 100.0, 0.0) for k in range(10)]
    m = summary(parent, change)["wall_s"]
    assert m["gap_parent_first"] == pytest.approx(-1.0)
    assert m["gap_change_first"] == pytest.approx(-0.5)
    assert m["wins"] == 10  # the verdicts read every pair, whichever side ran first
