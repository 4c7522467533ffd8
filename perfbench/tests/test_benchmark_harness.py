"""Tests of the benchmark's own code: checker, calibration, tracer and
metric names.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checker
import run
import tracing
import workloads
from quantcap.channel import ChannelSpec, Quantizer
from quantcap.optimize import optimize_input_cutting_plane

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

# Small channels that solve in well under a second each: a symmetric 4-bin
# quantizer and an asymmetric 8-bin one.
CASES = (
    (5.0, (-1.5, 0.0, 1.5)),
    (-3.0, (-1.2, -0.7, -0.2, 0.1, 0.45, 0.9, 1.6)),
)


@pytest.fixture(scope="module")
def solves():
    out = []
    for db, thr in CASES:
        power = 10.0 ** (db / 10.0)
        result = optimize_input_cutting_plane(ChannelSpec(1.0, power, Quantizer(thr)))
        out.append(workloads._solve(result, thr, power))
    return out


def test_checker_accepts_real_results(solves):
    for solve in solves:
        verdict = checker.check(solve)
        assert verdict.ok, verdict.errors
        assert abs(verdict.mi - solve.capacity) <= checker.MI_ATOL
        # weak duality: the independent bound is never below the achieved rate
        assert verdict.bound >= solve.capacity - 1e-12


def test_checker_flags_capacity_above_bound(solves):
    solve = solves[0]
    doctored = dataclasses.replace(solve, capacity=solve.upper_bound + 1e-6)
    errors = checker.check(doctored).errors
    assert any("above reported bound" in e for e in errors)


def test_checker_flags_mass_outside_power_budget(solves):
    solve = solves[1]
    locations = np.asarray(solve.locations, dtype=float).copy()
    locations[-1] += 10.0 * np.sqrt(solve.power)
    errors = checker.check(dataclasses.replace(solve, locations=locations)).errors
    assert any("exceeds P" in e for e in errors)


def test_checker_flags_unconverged_and_unnormalised(solves):
    solve = solves[0]
    masses = np.asarray(solve.masses) * 1.01
    errors = checker.check(dataclasses.replace(solve, masses=masses, converged=False)).errors
    assert any("sum to" in e for e in errors)
    assert any("converged" in e for e in errors)


def test_lowered_bound_shows_as_bound_excess(solves):
    verdicts = [checker.check(s) for s in solves]
    before = checker.summarize(solves, verdicts)["bound_excess_bits"]
    lowered = [dataclasses.replace(s, upper_bound=s.upper_bound - 1e-4) for s in solves]
    after = checker.summarize(lowered, verdicts)["bound_excess_bits"]
    assert after >= 1e-4
    assert after >= before + 1e-4 - 1e-12


def test_envelope_minimum_matches_brute_force():
    rng = np.random.default_rng(0)
    d = rng.random(50)
    s = rng.normal(size=50)
    s[0] = 1.0  # at least one positive slope, so the minimum is attained
    value, gamma = checker.envelope_minimum(d, s)
    gammas = np.linspace(0.0, 20.0, 200001)
    brute = np.min(np.max(d[None, :] + gammas[:, None] * s[None, :], axis=1))
    assert value <= brute + 1e-12
    assert value >= brute - 1e-3
    assert value == pytest.approx(float(np.max(d + gamma * s)), abs=1e-15)


def test_sampler_samples_and_leaves_samples_out_of_its_clock():
    before = signal.getsignal(signal.SIGPROF)
    sampler = calibrate.Sampler(interval=0.02)
    with sampler:
        count, spent = len(sampler.samples), sampler.spent
        start, begin = sampler.clock(), time.thread_time()
        while time.thread_time() < begin + 0.5:
            pass
        clocked = sampler.clock() - start
        elapsed = time.thread_time() - begin
        sampled = sampler.spent - spent
    assert len(sampler.samples) - count >= 3
    assert sampled == pytest.approx(sum(sampler.samples[count:]))
    assert 0.0 < clocked == pytest.approx(elapsed - sampled, abs=1e-3)
    # leaving the context disarms the timer and restores the handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before
    assert sampler.factor() == calibrate.NOMINAL_S / statistics.median(sampler.samples)


def test_sampling_does_not_change_results(solves):
    db, thr = CASES[1]
    spec = ChannelSpec(1.0, 10.0 ** (db / 10.0), Quantizer(thr))
    with calibrate.Sampler(interval=0.002) as sampler:
        results = [optimize_input_cutting_plane(spec) for _ in range(20)]
    assert sampler.samples
    for result in results:
        assert result.capacity == solves[1].capacity
        assert np.array_equal(np.asarray(result.dist.masses), solves[1].masses)


def test_traced_self_times_fit_in_wall_time():
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer:
        from quantcap.optimize import optimize_input_cutting_plane as traced_solve

        sweep = workloads.Pass(tracer)
        for k, db, thr in workloads.sweep_inputs(7, count=6):
            spec = ChannelSpec(1.0, 10.0 ** (db / 10.0), Quantizer(thr))
            sweep.timed(f"K{k}", lambda: traced_solve(spec))
    wall = time.perf_counter() - start
    assert not sweep.errors
    self_s = tracer.self_times()
    assert np.all(self_s >= -1e-9)
    assert float(self_s.sum()) <= wall
    stats = tracer.layer_stats()
    assert stats["optimize.optimize_input_cutting_plane"]["calls"] == 6
    assert stats["channel.bin_probability_matrix"]["calls"] > 0
    assert stats["optimize.slsqp"]["calls"] > 0
    # uninstall restores the original functions
    import quantcap.optimize

    assert quantcap.optimize.optimize_input_cutting_plane is optimize_input_cutting_plane


def test_absent_layer_is_recorded_not_fatal(monkeypatch):
    layers = tracing.LAYERS + (
        ("gone.renamed_function", "quantcap.channel", "no_such_function", None),
        ("gone.module", "quantcap.no_such_module", "anything", None),
    )
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["gone.renamed_function", "gone.module"]


def test_metric_names_and_units_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == run.PER_LAYER_UNITS
    assert not set(e2e) & set(layers)
    for name in list(e2e) + list(layers):
        assert pattern.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_sweep_inputs_are_seeded_and_valid():
    a = workloads.sweep_inputs(3, count=30)
    assert a == workloads.sweep_inputs(3, count=30)
    assert a != workloads.sweep_inputs(4, count=30)
    for i, (k, db, thr) in enumerate(a):
        assert k == workloads.SWEEP_BINS[i % 3]
        assert len(thr) == k - 1
        assert all(b > a_ for a_, b in zip(thr, thr[1:]))
        assert -20.0 <= db <= 20.0
        assert Quantizer(thr).is_symmetric() == (i % 2 == 0)
