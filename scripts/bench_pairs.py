"""Paired benchmark runs of two checkouts, written up as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \
        --workload verify=10 --workload tables=5 --workload capacity_sweep=5 \
        --first-seed 151 [--claim verify:pass_s] [--note "what the change does"]

PARENT and CHANGE are checkout roots, each with its own ``perfbench/`` and
``src/``.  Every pair runs ``perfbench/run.py --trace 0`` once in each tree
with the same seed, for the ``run_seconds`` of the change's
``BENCHMARK.json``, one run at a time, alternating which tree goes first;
seeds are consecutive from ``--first-seed`` over the workloads in the order
given.  Per workload and end-to-end metric of ``BENCHMARK.json`` the file
records both sides' runs, medians and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), ``change_vs_parent``
(change median / parent median - 1), ``parent_iqr``, the pairs the change
wins in the metric's direction and the ties, ``regressed`` (the change's
median is worse than the parent's by more than the metric's ``bound``, a
share of the parent's median) and ``resolved`` (the parent's IQR is within
that bound); per workload also ``correct_runs``, ``fail_share_max`` and the
worst certified gap.  With ``--claim``, ``claim.met`` says whether the
change wins at least 9/10 of the untied pairs of that metric and its median
is better than the parent's by more than the parent's IQR.

Then each tree's workload pass functions run once (tables seed 1, verify
seed 1, capacity_sweep seeds 11 and 21), and every fingerprint value (table
cells, verify margins, sweep capacities) is compared bit for bit, next to
each pass's diagnostics (the tables' largest deviations from the published
values).  Fingerprints check cell values but not labels, row order or
deviation rows, so each tree also prints every table's report
(``quantcap reproduce --table T --out -`` with ``SOURCE_DATE_EPOCH=0``), and
the file records per table whether the two are byte-identical below their
manifest lines (``reports_identical``), and whether the manifest lines are
(``manifests_identical``): a manifest records the run, not the numbers.
Last, one ``--trace 1`` run per tree and workload (seed 1, capacity_sweep
11) records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

FINGERPRINT_SEEDS = {"tables": (1,), "verify": (1,), "capacity_sweep": (11, 21)}
TRACED_SEEDS = {"tables": 1, "verify": 1, "capacity_sweep": 11}
REPORT_TABLES = ("I", "II", "III", "IV", "V")
ENV_KEYS = ("blas", "blas_threads", "cpu_count", "numpy", "python", "scipy", "seconds", "trace")

#: run in a tree's perfbench/ directory: every fingerprint of one pass, as JSON
FINGERPRINT_CODE = """
import json, sys
sys.path[:0] = ["{perfbench}", "{src}"]
import workloads
out = {{}}
for name, seeds in {seeds!r}.items():
    for seed in seeds:
        done = workloads.WORKLOADS[name](seed)
        out[f"{{name}}-{{seed}}"] = {{
            "ops": dict(zip(done.op_names, done.fingerprint)) if name != "capacity_sweep"
            else {{"all": [v for op in done.fingerprint for v in op]}},
            "diagnostics": done.diagnostics,
            "errors": len(done.errors),
        }}
print(json.dumps(out))
"""


def child_env(src: Path) -> dict:
    """The environment of a child process that imports ``quantcap`` from
    `src` alone, with BLAS on one thread and ``SOURCE_DATE_EPOCH=0``, so
    every manifest carries the same timestamp."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), SOURCE_DATE_EPOCH="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: its result line and environment record."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    shown = {}  # every printed "name value unit" line, diagnostics included
    for name, value, _ in (line.split() for line in lines[:-1] if len(line.split()) == 3):
        try:
            shown[name] = float(value)
        except ValueError:
            pass
    return {"env": env, "shown": shown, **json.loads(lines[-1])}


def side_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, parent: list, change: list) -> dict:
    """Both sides' runs of one end-to-end `metric` of BENCHMARK.json, their
    statistics, and the verdicts of its bound."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    p_runs = [r["metrics"][name]["value"] for r in parent]
    c_runs = [r["metrics"][name]["value"] for r in change]
    p, c = side_stats(p_runs), side_stats(c_runs)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (b - a) > 0.0 for a, b in zip(p_runs, c_runs))
    ties = sum(a == b for a, b in zip(p_runs, c_runs))
    allowed = bound * abs(p["median"])
    return {
        "unit": metric["unit"],
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_vs_parent": c["median"] / p["median"] - 1.0 if p["median"] else None,
        "parent_iqr": p["q3"] - p["q1"],
        "change_wins": wins,
        "ties": ties,
        "regressed": sign * (p["median"] - c["median"]) > allowed,
        "resolved": p["q3"] - p["q1"] <= allowed,
        "parent_runs": p_runs,
        "change_runs": c_runs,
    }


def claim_met(stats: dict) -> bool:
    """The claim rule on one metric's `compare` record: the change wins at
    least 9/10 of the untied pairs, and its median is better than the
    parent's by more than the parent's IQR."""
    sign = -1.0 if stats["better"] == "lower" else 1.0
    untied = len(stats["parent_runs"]) - stats["ties"]
    gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
    return untied > 0 and 10 * stats["change_wins"] >= 9 * untied and gain > stats["parent_iqr"]


def paired(trees: dict, workload: str, seeds: list, seconds: float, metrics: list) -> dict:
    runs = {"parent": [], "change": []}
    first = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run(trees[side], workload, seed, seconds, 0))
            print(f"{workload} seed {seed} {side} done", file=sys.stderr)
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "first_side": first,
        "correct_runs": {s: sum(bool(r["correct"]) for r in runs[s]) for s in runs},
        "fail_share_max": {
            s: max(r["failed"] / max(r["attempted"], 1) for r in runs[s]) for s in runs
        },
        "worst_certified_gap_bits": {
            s: max(r["shown"]["certified_gap_bits"] for r in runs[s]) for s in runs
        },
        "metrics": {m["name"]: compare(m, runs["parent"], runs["change"]) for m in metrics},
        "_env": {s: runs[s][0]["env"] for s in runs},
    }


def fingerprints(tree: Path, seeds: dict) -> dict:
    perfbench = tree / "perfbench"
    code = FINGERPRINT_CODE.format(perfbench=perfbench, src=tree / "src", seeds=seeds)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=perfbench, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def compare_fingerprints(parent: dict, change: dict) -> dict:
    """Per workload run and op: bit-identical or not, and every moved value."""
    out = {}
    for key, p in parent.items():
        c = change[key]
        ops, moved = {}, []
        for op, p_vals in p["ops"].items():
            c_vals = c["ops"].get(op, [])
            ops[op] = len(p_vals) == len(c_vals) and all(map(same, p_vals, c_vals))
            moved.extend(
                {"op": op, "index": i, "parent": a, "change": b, "diff": b - a}
                for i, (a, b) in enumerate(zip(p_vals, c_vals))
                if not same(a, b)
            )
        out[key] = {
            "identical": ops,
            "moved": moved,
            "max_abs_diff": max((abs(m["diff"]) for m in moved), default=0.0),
            "errors": {"parent": p["errors"], "change": c["errors"]},
            "diagnostics": {"parent": p["diagnostics"], "change": c["diagnostics"]},
        }
    return out


def report(tree: Path, table: str) -> bytes:
    """One table's machine report from `tree`'s source, timestamp pinned."""
    argv = [sys.executable, "-m", "quantcap.cli", "reproduce", "--table", table, "--out", "-"]
    env = child_env(tree / "src")
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True, check=True).stdout


def compare_reports(trees: dict) -> tuple[dict, dict]:
    """Per table: are the two trees' reports byte-identical below their
    manifest lines, and are the manifest lines?"""
    bodies, manifests = {}, {}
    for t in REPORT_TABLES:
        parent, change = (report(trees[side], t).split(b"\n", 1) for side in ("parent", "change"))
        manifests[t] = parent[0] == change[0]
        bodies[t] = parent[1:] == change[1:]
    return bodies, manifests


def traced(trees: dict, workloads: list) -> dict:
    out = {}
    for name in workloads:
        seed = TRACED_SEEDS[name]
        res = {side: run(trees[side], name, seed, 1.0, 1) for side in ("parent", "change")}
        out[name] = {
            "seed": seed,
            "metrics": {
                m: {side: res[side]["metrics"][m]["value"] for side in res}
                for m in res["change"]["metrics"]
            },
        }
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workload", action="append", required=True, metavar="NAME=PAIRS",
        help="a workload and its number of pairs; repeat for more workloads",
    )
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition("=")
        if name not in FINGERPRINT_SEEDS or not pairs.isdigit() or int(pairs) < 2:
            parser.error(f"--workload wants NAME=PAIRS with PAIRS >= 2, got {item!r}")
        plan.append((name, int(pairs)))
    args.plan = plan
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    record = {"change": args.note}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in dict(args.plan) or metric not in {m["name"] for m in spec["end_to_end"]}:
            raise SystemExit(f"--claim wants a planned WORKLOAD:METRIC, got {args.claim!r}")
        record["claim"] = {
            "workload": workload,
            "metric": metric,
            "rule": "change wins >= 9/10 pairs and the median difference exceeds the parent's IQR",
        }
    record["method"] = {
        "command": "python3 perfbench/run.py --workload W --seed N "
        f"--seconds {spec['run_seconds']:g} --trace 0",
        "pairing": "one pair per seed, alternating which side runs first; runs sequential",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side",
        "change_vs_parent": "change median / parent median - 1",
        "wins": "pairs where the change is better in the metric's direction; "
        "ties count for neither",
    }
    seed = args.first_seed
    results = {}
    for name, pairs in args.plan:
        seeds = list(range(seed, seed + pairs))
        seed += pairs
        results[name] = paired(trees, name, seeds, spec["run_seconds"], spec["end_to_end"])
    first = next(iter(results.values()))
    record["environment"] = {k: first["_env"]["change"][k] for k in ENV_KEYS}
    for side in trees:
        record["environment"][f"commit_{side}"] = first["_env"][side]["commit"]
        record["environment"][f"src_lines_{side}"] = first["_env"][side]["src_lines"]
    for res in results.values():
        del res["_env"]
    record["workloads"] = results
    if args.claim:
        claim = record["claim"]
        claim["met"] = claim_met(results[claim["workload"]]["metrics"][claim["metric"]])
    seeds = {name: FINGERPRINT_SEEDS[name] for name, _ in args.plan}
    record["fingerprints"] = compare_fingerprints(
        fingerprints(trees["parent"], seeds), fingerprints(trees["change"], seeds)
    )
    record["reports_identical"], record["manifests_identical"] = compare_reports(trees)
    record["traced"] = traced(trees, [name for name, _ in args.plan])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
