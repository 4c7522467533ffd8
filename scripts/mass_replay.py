"""Replay every mass solve of one capacity_sweep pass, as float hex.

    PYTHONPATH=src python3 scripts/mass_replay.py [--repeat 15] \
        [--save calls.pkl | --load calls.pkl] > replay.txt

Runs the ``capacity_sweep`` seed-11 pass of ``perfbench/workloads.py`` once
with ``optimize._optimal_masses_rows`` wrapped, and records the arguments of
every call the cutting plane makes (the careful rerun a call may make from
inside is part of that call).  ``--save`` writes the recorded calls to a
pickle, and ``--load`` replays such a file instead of recording, so two
source trees (``PYTHONPATH`` picks the one whose ``quantcap`` is imported)
can be timed on the same inputs.  The calls are then replayed ``--repeat``
times, each replay timed in thread CPU.  One line per call gives its index,
the bin count K, the support size, then the mutual information and the
masses as float hex; the last lines give the call count and the best and
median replay CPU.  Only the CPU line depends on the machine.
"""

from __future__ import annotations

import argparse
import pickle
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from quantcap import optimize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEED = 11


def record():
    """The (w, negent, xsq, power, start) of every call of one sweep pass."""
    original = optimize._optimal_masses_rows
    calls = []
    depth = 0

    def recorded(w, negent, xsq, power, start=None, careful=False):
        nonlocal depth
        if depth == 0:
            copied = None if start is None else np.array(start, dtype=float)
            calls.append((w.copy(), negent.copy(), xsq.copy(), power, copied))
        depth += 1
        try:
            return original(w, negent, xsq, power, start, careful)
        finally:
            depth -= 1

    optimize._optimal_masses_rows = recorded
    try:
        workloads.WORKLOADS["capacity_sweep"](SEED)
    finally:
        optimize._optimal_masses_rows = original
    return calls


def replay(calls):
    """Every call's (masses, mi) and the replay's thread CPU seconds."""
    solve = optimize._optimal_masses_rows
    start = time.thread_time()
    out = [solve(w, negent, xsq, power, start=s) for w, negent, xsq, power, s in calls]
    return out, time.thread_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=15)
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--save", type=Path, help="write the recorded calls here")
    files.add_argument("--load", type=Path, help="replay these calls instead of recording")
    args = parser.parse_args(argv)
    if args.load:
        calls = pickle.loads(args.load.read_bytes())
    else:
        calls = record()
        if args.save:
            args.save.write_bytes(pickle.dumps(calls))
    seconds = []
    for _ in range(max(args.repeat, 1)):
        results, cpu = replay(calls)
        seconds.append(cpu)
    for i, ((w, *_), (masses, mi)) in enumerate(zip(calls, results)):
        hexes = ",".join(float(m).hex() for m in masses)
        print(f"{i} {w.shape[1]} {w.shape[0]} {float(mi).hex()} {hexes}")
    print(f"calls {len(calls)}")
    print(f"cpu_s best {min(seconds):.4f} median {statistics.median(seconds):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
