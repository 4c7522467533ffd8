"""Tests for the verdicts scripts/bench_pairs.py records, on synthetic runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402
import fingerprint  # noqa: E402

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


END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def fake_run(tree, workload, seed, seconds, trace):
    """A perfbench result whose every metric is 1.0 in the parent and 0.9 in
    the change, on every seed."""
    value = 0.9 if tree.name == "change" else 1.0
    names = [*END_TO_END, "tables.max_dev_I", "certified_gap_bits"]
    env = {key: trace for key in bench_pairs.ENV_KEYS}
    return {
        "env": {**env, "commit": tree.name, "src_lines": 100},
        "shown": {"certified_gap_bits": 1e-4},
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value} for name in names},
    }


def test_main_records_the_timings_and_fingerprint_verdicts(monkeypatch, tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    probed = []

    def fake_set(name, src, workdir):
        probed.append((name, src.parent.name))
        moved = name == "cli" and src.parent.name == "change"
        return ("a 0x1.8p+0\n" if moved else "a 0x1.0p+0\n"), "cpu_s 1.0\n", None

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(fingerprint, "run_set", fake_set)
    out = tmp_path / "BENCH.json"
    argv = [
        str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out),
        "--workload", "tables=10", "--workload", "verify=2", "--first-seed", "5",
        "--claim", "tables:pass_s", "--note", "faster",
    ]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert list(record) == [
        "change", "claim", "method", "environment", "workloads", "fingerprints", "traced",
    ]
    assert record["change"] == "faster" and record["claim"]["met"] is True
    assert record["workloads"]["verify"]["seeds"] == [15, 16]
    assert record["environment"]["commit_parent"] == "parent"
    assert probed == [(name, side) for name in ("solves", "cli") for side in ("parent", "change")]
    assert record["fingerprints"]["solves"] == {
        "identical": True, "report": "solves: identical, 1 lines\n",
    }
    assert record["fingerprints"]["cli"]["identical"] is False
    assert "-a 0x1.0p+0\n+a 0x1.8p+0\n" in record["fingerprints"]["cli"]["report"]
    assert record["traced"]["tables"]["metrics"]["tables.max_dev_I"] == {
        "parent": 1.0, "change": 0.9,
    }


def test_a_workload_without_a_traced_seed_is_a_usage_error(capsys):
    argv = ["p", "c", "--out", "o", "--workload", "fuzz=3", "--first-seed", "1"]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.parse_args(argv)
    assert exit_.value.code == 2
    assert "'fuzz=3'" in capsys.readouterr().err
