"""Tests for scripts/fingerprint.py: the two-tree comparison, which
certificates the ``certs`` and ``fuzz`` sets print, and what the ``steps``
set replays.

The child processes, the solves and the threshold steps are faked, so no
solve runs."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import fingerprint  # noqa: E402

TREES = ["--src", "old", "--src", "new"]


def fake_children(monkeypatch, outputs):
    """Run each child as `outputs[(set, tree)]`: its stdout, or an exception
    message for a child that raised."""

    def run(argv, cwd, env, capture_output, text):
        name, tree = argv[-1], Path(env["PYTHONPATH"]).name
        out = outputs.get((name, tree), "a 0x1.0p+0\nb 0x1.8p+0\n")
        if isinstance(out, Exception):
            err = f"Traceback (most recent call last):\n  ...\n{type(out).__name__}: {out}\n"
            return subprocess.CompletedProcess(argv, 1, "a 0x1.0p+0\n", err)
        return subprocess.CompletedProcess(argv, 0, out, "cpu_s 1.0\n")

    monkeypatch.setattr(fingerprint.subprocess, "run", run)


def test_identical_trees_exit_zero_with_one_line_per_set(monkeypatch, capsys):
    fake_children(monkeypatch, {})
    assert fingerprint.main(["all", *TREES]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{name}: identical, 2 lines" for name in fingerprint.SETS]


def test_moved_line_is_shown_under_its_set(monkeypatch, capsys):
    fake_children(monkeypatch, {("certs", "new"): "a 0x1.0p+0\nb 0x1.8000000000001p+0\n"})
    assert fingerprint.main(["solves", "certs", *TREES]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "solves: identical, 2 lines",
        "--- certs old",
        "+++ certs new",
        "@@ -2 +2 @@",
        "-b 0x1.8p+0",
        "+b 0x1.8000000000001p+0",
    ]


def test_set_raising_in_one_tree_is_reported_with_its_error(monkeypatch, capsys):
    fake_children(monkeypatch, {("fuzz", "new"): ValueError("masses do not sum to 1")})
    assert fingerprint.main(["fuzz", "joint", *TREES]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fuzz: raised in new: ValueError: masses do not sum to 1",
        "joint: identical, 2 lines",
    ]


def test_unknown_set_is_a_usage_error(monkeypatch, capsys):
    fake_children(monkeypatch, {})
    with pytest.raises(SystemExit) as exit_:
        fingerprint.main(["solves", "tables", *TREES])
    assert exit_.value.code == 2
    assert "invalid choice: 'tables'" in capsys.readouterr().err


def test_certs_takes_no_fuzz_law(monkeypatch):
    # the fuzz draws' certificates are on their fuzz lines, so a change that
    # moves only the fuzz moves no certs line
    from quantcap import optimize

    def unreached():
        raise AssertionError("certs must not solve the fuzz draws")

    sweep = SimpleNamespace(sweep_inputs=lambda seed: [(None, 0.0, (0.0,))] * 2)
    monkeypatch.setitem(sys.modules, "workloads", sweep)
    monkeypatch.setattr(fingerprint, "fuzz_specs", unreached)
    monkeypatch.setattr(fingerprint, "own_law", lambda spec, result: "law")
    monkeypatch.setattr(optimize, "optimize_input_cutting_plane", lambda spec: None)
    monkeypatch.setattr(
        optimize, "duality_upper_bound", lambda spec: optimize._certified_bound(spec, "law")
    )
    groups = [group for group, *_ in fingerprint.certified_laws()]
    assert groups == ["polished"] * 15 + ["sweep"] * 2


def test_fuzz_line_carries_the_draws_certificate(monkeypatch, capsys):
    import quantcap
    from quantcap import bounds

    solved = SimpleNamespace(capacity=1.0, upper_bound=1.5, converged=False, iterations=200)

    def solve(spec, grid):
        if spec == "bad":
            raise ValueError("no feasible start")
        return solved

    monkeypatch.setattr(fingerprint, "fuzz_specs", lambda: enumerate(["good", "bad"]))
    monkeypatch.setattr(fingerprint, "own_law", lambda spec, result: "law")
    monkeypatch.setattr(quantcap, "optimize_input_cutting_plane", solve)
    monkeypatch.setattr(bounds, "_certified_bound", lambda spec, law: 1.25)
    fingerprint.fuzz()
    assert capsys.readouterr().out.splitlines() == [
        "0 0x1.0000000000000p+0 0x1.8000000000000p+0 false 200 0x1.4000000000000p+0",
        "1 raised ValueError: no feasible start",
        "raised 1",
        "unconverged 1",
    ]


def test_steps_replays_the_tables_pass_threshold_steps(monkeypatch, tmp_path, capsys):
    from quantcap import ChannelSpec, InputDistribution, Quantizer, mutual_information, quantopt

    dist = InputDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    recorded = []

    def record(module, name, copy, workload, seed):
        recorded.append((module, name, workload, seed))
        return [copy(dist, [0.5, 1.0, 1.5], 2.0)]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(fingerprint, "MASS_REPEAT", 2)
    monkeypatch.setattr(fingerprint, "recorded_calls", record)
    monkeypatch.setattr(quantopt, "_threshold_step", lambda d, halves, sigma: halves * 2.0)
    fingerprint.steps()
    thresholds = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    mi = mutual_information(dist, ChannelSpec(4.0, 1.0, Quantizer(thresholds)))
    assert recorded == [(quantopt, "_threshold_step", "tables", fingerprint.TABLES_SEED)]
    assert capsys.readouterr().out.splitlines() == [
        f"0 0x1.0000000000000p+0,0x1.0000000000000p+1,0x1.8000000000000p+1 {mi.hex()}",
        "calls 1",
    ]
