"""Benchmark entry point for quantcap.

    python3 perfbench/run.py --workload tables|verify|capacity_sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root.  quantcap is imported from ``src/`` next to
this directory, in this one process (a single caller, closed loop) with
BLAS pinned to one thread.  Times are CPU times calibrated against a fixed
reference kernel sampled during the run (calibrate.py), so that the drift
of a shared machine's speed cancels out.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Every metric is also printed
above it as ``name value unit``, with the accuracy diagnostics, the raw
figures behind the calibration and the environment.
README.md in this directory describes the workloads and metrics.
"""

import os

# Pinned before numpy is imported, here and in the set-up children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checker
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

#: fresh-interpreter imports timed per run; setup_s is their median
SETUP_REPEATS = 5
#: repeat passes must reproduce the first pass's numbers to this
REPEAT_ATOL = 1e-12
#: ops a pass needs for a p90 with ten samples beyond it; with fewer, the
#: latency percentiles are taken over whole passes instead
PERCENTILE_OPS = 100

TABLES = ("I", "II", "III", "IV", "V")
SUITES = ("convexity", "kkt", "sandwich", "cardinality")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "certified_gap_mean_bits": "bits",
    "rate_mean_bits": "bits",
}


def _per_layer_units():
    units = {}
    layer_stats = {
        "channel.bin_probability_matrix": ("calls", "rows", "bytes_out", "self_s"),
        "optimize.slsqp": ("calls", "nit", "unsuccessful", "self_s", "slsqp_per_solve"),
        "bounds.minimize_max_affine": ("calls", "self_s"),
        "optimize.optimize_input_cutting_plane": ("calls", "iterations", "unconverged", "self_s"),
        "quantopt.optimize_quantizer_2bit": ("calls", "self_s", "inner_solves_per_cell"),
        "quantopt.optimize_quantizer_3bit_iterative": (
            "calls",
            "self_s",
            "outer_rounds",
            "inner_solves_per_cell",
        ),
        "bounds.best_symmetric_bound": ("calls", "self_s"),
    }
    stat_units = {"self_s": "s", "bytes_out": "B", "slsqp_per_solve": "1/solve"}
    for layer, stats in layer_stats.items():
        for stat in stats:
            unit = stat_units.get(stat, "1/cell" if stat.endswith("_per_cell") else "count")
            units[f"{layer}.{stat}"] = unit
    for name in TABLES:
        units[f"tables.build_{name}.s"] = "s"
    for name in SUITES:
        units[f"verify.{name}.s"] = "s"
    for name in TABLES:
        units[f"tables.max_dev_{name}"] = "dB" if name == "V" else "bits"
    units.update(
        {
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.spans": "count",
            "trace.absent_layers": "count",
            "certified_gap_bits": "bits",
            "bound_excess_bits": "bits",
            "fail_share": "ratio",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()

#: printed by every run, in no result line: the calibration and the raw
#: measurements it scales
DIAGNOSTIC_UNITS = {
    "calibration": "s/s",
    "reference_ms": "ms",
    "reference_samples": "count",
    "setup_cpu_s": "s",
    "pass_cpu_s": "s",
    "timed_wall_s": "s",
}


def environment(args):
    """What is needed to rerun this measurement on the same footing."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "src_lines": source_lines(),
    }


def git_commit():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines():
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "quantcap").glob("**/*.py"))
    )


def setup_seconds():
    """Median CPU time to import quantcap in a fresh interpreter."""
    code = (
        "import time; t = time.process_time(); import quantcap; "
        "print(repr(time.process_time() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_passes(pass_fn, seed, seconds, sampler):
    """Untraced passes until `seconds` have gone by, at least one, with the
    reference kernel sampled throughout."""
    passes = []
    begin = time.perf_counter()
    with sampler:
        while not passes or time.perf_counter() - begin < seconds:
            passes.append(pass_fn(seed, clock=sampler.clock))
    return passes, time.perf_counter() - begin


def op_median(passes):
    """Each op's median CPU time over the passes, in seconds.

    Every pass runs the same inputs, so op i of one pass is op i of every
    other.  The median of the repeats is steadier from run to run than the
    best of them.
    """
    return np.median(np.array([p.op_seconds for p in passes]), axis=0)


def check_passes(passes):
    """Check the first pass with the independent checker, and every later
    pass against the first.  Returns (attempted, failed, verdicts, messages).
    """
    first = passes[0]
    failed_ops = set()
    messages = []
    for op, msg in first.errors:
        failed_ops.add((0, op))
        messages.append(msg)
    verdicts = []
    for op, solve in first.solves:
        verdict = checker.check(solve)
        verdicts.append(verdict)
        if not verdict.ok:
            failed_ops.add((0, op))
            messages.extend(verdict.errors)
    for k, later in enumerate(passes[1:], start=1):
        for op, msg in later.errors:
            failed_ops.add((k, op))
            messages.append(msg)
        for op, (a, b) in enumerate(zip(first.fingerprint, later.fingerprint)):
            same = len(a) == len(b) and np.allclose(a, b, rtol=0.0, atol=REPEAT_ATOL, equal_nan=True)
            if not same:
                failed_ops.add((k, op))
                messages.append(f"pass {k} op {later.op_names[op]} differs from pass 0")
    attempted = sum(len(p.op_names) for p in passes)
    return attempted, len(failed_ops), verdicts, messages


def timings(passes, sampler, setup_cpu_s, timed_wall):
    """The calibrated end-to-end times of an untraced run, and the raw
    figures they are scaled from."""
    factor = sampler.factor()
    op_s = op_median(passes)
    pass_s = [sum(p.op_seconds) for p in passes]
    latency_ms = 1e3 * factor * (op_s if op_s.size >= PERCENTILE_OPS else np.asarray(pass_s))
    return {
        "setup_s": factor * setup_cpu_s,
        "pass_s": factor * float(op_s.sum()),
        "op_p50_ms": percentile(latency_ms, 50),
        "op_p90_ms": percentile(latency_ms, 90),
        "calibration": factor,
        "reference_ms": 1e3 * statistics.median(sampler.samples),
        "reference_samples": len(sampler.samples),
        "pass_cpu_s": float(op_s.sum()),
        "timed_wall_s": timed_wall,
    }


def accuracy(first, verdicts):
    solves = [s for _, s in first.solves]
    if not solves:
        return dict.fromkeys(
            ("certified_gap_bits", "certified_gap_mean_bits", "bound_excess_bits", "rate_mean_bits"),
            math.nan,
        )
    return checker.summarize(solves, verdicts)


def layer_metrics(tracer, traced, untraced, traced_wall):
    """Per-layer metrics from a traced pass, zero where a layer did not run.

    Times here are not calibrated: span times are wall seconds, table and
    suite times CPU seconds of the traced pass.
    """
    stats = tracer.layer_stats()
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, values in stats.items():
        for stat, value in values.items():
            key = f"{layer}.{stat}"
            if key in metrics:
                metrics[key] = value
    solves = stats.get("optimize.optimize_input_cutting_plane", {}).get("calls", 0)
    if solves:
        metrics["optimize.slsqp.slsqp_per_solve"] = (
            stats.get("optimize.slsqp", {}).get("calls", 0) / solves
        )
    for layer in ("quantopt.optimize_quantizer_2bit", "quantopt.optimize_quantizer_3bit_iterative"):
        cells = stats.get(layer, {}).get("calls", 0)
        if cells:
            metrics[f"{layer}.inner_solves_per_cell"] = stats[layer].get("inner_solves", 0) / cells
    for name, sec in zip(traced.op_names, traced.op_seconds):
        if f"tables.build_{name}.s" in metrics:
            metrics[f"tables.build_{name}.s"] += sec
        if f"verify.{name}.s" in metrics:
            metrics[f"verify.{name}.s"] += sec
    for key, value in traced.diagnostics.items():
        metrics[f"tables.{key}"] = value
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = sum(traced.op_seconds) - sum(untraced.op_seconds)
    metrics["trace.spans"] = len(tracer.start)
    metrics["trace.absent_layers"] = len(tracer.absent)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_quantcap():
    """Import quantcap from this checkout's src/, and nowhere else."""
    import quantcap

    where = Path(quantcap.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"quantcap imported from {where}, not from {SRC}")
    return quantcap


def main(argv=None):
    args = parse_args(argv)
    try:
        import_quantcap()
    except ImportError as exc:
        print(f"error: cannot import quantcap from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment(args)
    setup_cpu_s = setup_seconds()
    workloads.warm_up()
    pass_fn = workloads.WORKLOADS[args.workload]

    if args.trace:
        # Neither pass is sampled, so the two differ by the tracing alone.
        untraced = pass_fn(args.seed)
        tracer = Tracer()
        start = time.perf_counter()
        with tracer:
            traced = pass_fn(args.seed, tracer)
        traced_wall = time.perf_counter() - start
        passes = [untraced, traced]
    else:
        sampler = calibrate.Sampler()
        passes, timed_wall = run_passes(pass_fn, args.seed, args.seconds, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, verdicts, messages = check_passes(passes)
    diagnostics = {
        "peak_rss_mb": peak_rss_mb,
        **accuracy(passes[0], verdicts),
        "fail_share": failed / attempted,
        "setup_cpu_s": setup_cpu_s,
    }
    if args.trace:
        metrics = layer_metrics(tracer, traced, untraced, traced_wall)
        for name in ("certified_gap_bits", "bound_excess_bits", "fail_share"):
            metrics[name] = diagnostics[name]
        units = PER_LAYER_UNITS
    else:
        diagnostics.update(timings(passes, sampler, setup_cpu_s, timed_wall))
        metrics = {name: diagnostics[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    for msg in messages[:20]:
        print(f"check failed: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(passes)} ops {len(passes[0].op_names)} checked_results {len(verdicts)}")
    shown = dict(diagnostics)
    shown.update(metrics)
    all_units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, **DIAGNOSTIC_UNITS}
    for name, value in shown.items():
        print(f"{name} {value!r} {all_units[name]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, "result": result, "all": shown}, indent=1))
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
