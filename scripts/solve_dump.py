"""Every cutting-plane result of the benchmark's fingerprint passes, as float hex.

    PYTHONPATH=src python3 scripts/solve_dump.py > solves.txt

Runs the workload passes of ``perfbench/workloads.py`` that
``scripts/bench_pairs.py`` fingerprints (tables seed 1, verify seed 1,
capacity_sweep seeds 11 and 21) with ``optimize_input_cutting_plane``
wrapped in every ``quantcap`` module that binds it, so the solves inside
the joint quantizer optimizers, the bound search and the tables are all
seen.  One line per result gives its pass, its rank in that pass, then the
capacity, the upper bound and gamma as float hex, the rounds, ``converged``,
and the support's locations and masses as float hex.  The fingerprints
compare capacities and table cells only; these lines also show a moved
bound, gamma or support.  Nothing in the output depends on the machine, so
the output of two source trees can be compared with ``diff``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from quantcap import optimize, quantopt, tables, verify  # noqa: F401  (bind before wrapping)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

PASSES = (("tables", 1), ("verify", 1), ("capacity_sweep", 11), ("capacity_sweep", 21))


def hexes(values):
    return ",".join(float(v).hex() for v in values)


def line(label, rank, result):
    return " ".join((
        label,
        str(rank),
        float(result.capacity).hex(),
        float(result.upper_bound).hex(),
        float(result.gamma).hex(),
        str(result.iterations),
        str(result.converged).lower(),
        hexes(result.dist.locations),
        hexes(result.dist.masses),
    ))


def main() -> int:
    original = optimize.optimize_input_cutting_plane
    results = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    bound = [
        m for name, m in list(sys.modules.items())
        if (name == "quantcap" or name.startswith("quantcap."))
        and getattr(m, "optimize_input_cutting_plane", None) is original
    ]
    for m in bound:
        m.optimize_input_cutting_plane = recorded
    try:
        for name, seed in PASSES:
            results.clear()
            done = workloads.WORKLOADS[name](seed)
            label = f"{name}-{seed}"
            for rank, result in enumerate(results):
                print(line(label, rank, result))
            print(f"{label} solves {len(results)} errors {len(done.errors)}")
    finally:
        for m in bound:
            m.optimize_input_cutting_plane = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
