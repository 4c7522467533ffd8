"""Tests for the verdicts scripts/bench_pairs.py records, on synthetic runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pairs  # noqa: E402

PASS_S = {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate_mean_bits", "unit": "bits", "better": "higher", "bound": 0.02}


def runs(metric, values):
    return [{"metrics": {metric["name"]: {"value": v}}} for v in values]


def compared(metric, parent, change):
    return bench_pairs.compare(metric, runs(metric, parent), runs(metric, change))


PARENT = [2.00, 2.02, 2.04, 2.01, 2.03, 2.05, 2.00, 2.02, 2.04, 2.03]


def test_clear_gain_meets_the_claim():
    stats = compared(PASS_S, PARENT, [t - 0.1 for t in PARENT])
    assert stats["change_wins"] == 10 and stats["ties"] == 0
    assert bench_pairs.claim_met(stats)
    assert stats["resolved"] and not stats["regressed"]


def test_two_lost_pairs_of_ten_miss_the_claim():
    change = [t - 0.1 for t in PARENT[:8]] + [t + 0.01 for t in PARENT[8:]]
    stats = compared(PASS_S, PARENT, change)
    assert stats["change_wins"] == 8
    assert not bench_pairs.claim_met(stats)


def test_ties_do_not_count_against_the_claim():
    change = [t - 0.1 for t in PARENT[:9]] + PARENT[9:]
    stats = compared(PASS_S, PARENT, change)
    assert (stats["change_wins"], stats["ties"]) == (9, 1)
    assert bench_pairs.claim_met(stats)


def test_gain_within_the_parents_iqr_misses_the_claim():
    stats = compared(PASS_S, PARENT, [t - 0.005 for t in PARENT])
    assert stats["change_wins"] == 10
    assert stats["parent"]["median"] - stats["change"]["median"] < stats["parent_iqr"]
    assert not bench_pairs.claim_met(stats)


def test_all_ties_miss_the_claim():
    assert not bench_pairs.claim_met(compared(PASS_S, PARENT, PARENT))


@pytest.mark.parametrize("slower, regressed", [(1.24, False), (1.26, True)])
def test_regressed_past_the_bound_of_a_lower_is_better_metric(slower, regressed):
    stats = compared(PASS_S, PARENT, [t * slower for t in PARENT])
    assert stats["regressed"] is regressed
    assert not bench_pairs.claim_met(stats)


@pytest.mark.parametrize("lower, regressed", [(0.985, False), (0.975, True)])
def test_regressed_past_the_bound_of_a_higher_is_better_metric(lower, regressed):
    parent = [1.40 + 0.001 * k for k in range(10)]
    stats = compared(RATE, parent, [r * lower for r in parent])
    assert stats["regressed"] is regressed


def test_a_parent_spread_past_the_bound_is_not_resolved():
    parent = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    stats = compared(PASS_S, parent, parent)
    assert stats["parent_iqr"] > 0.25 * stats["parent"]["median"]
    assert not stats["resolved"] and not stats["regressed"]
