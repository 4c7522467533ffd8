"""Cold wall time of the CLI commands, each run in a fresh interpreter.

    python3 scripts/cold_wall.py [--src SRC [--src SRC ...]] [--repeat 5] > cold.txt

Runs each command of ``COMMANDS`` ``--repeat`` times in each source tree,
one process at a time, cycling through the commands so a drift of the
machine's speed spreads over all of them.  ``--src`` may be given more than
once, to compare trees (say a parent checkout's ``src/`` and a change's):
each command then runs once in every tree before the next command, and the
order of the trees alternates between repetitions, as
``scripts/bench_pairs.py`` alternates them per seed, so that a drift between
repetitions reaches every tree alike.  Each process runs in
``bench_pairs.child_env`` (BLAS on one thread), imports ``quantcap`` from
its tree (default: the ``src/`` next to this script), runs
``quantcap.cli.main`` and exits.  Per command
and tree the output gives the median wall time from spawn to exit, the
median process CPU (user + system, from ``os.wait4``), the median peak RSS,
whether ``scipy.optimize`` was in ``sys.modules`` when the command returned
(no module of ``quantcap`` imports it: both Brent searches are the
package's own, so a ``yes`` means a new import crept in), and the median
wall time relative to the first tree's.  The ``reproduce`` commands time
Tables I-V one at a time.  A command that exits nonzero stops the script.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import child_env

COMMANDS = (
    ("capacity", ["capacity", "--snr-db", "0..20", "--step", "5", "--bits", "2"]),
    ("benchmark", ["benchmark", "--snr-db", "0..20", "--step", "5", "--bits", "3"]),
    ("bound", ["bound", "--snr-db", "0..20", "--step", "5", "--bits", "2"]),
    ("reproduce I", ["reproduce", "--table", "I"]),
    ("reproduce II", ["reproduce", "--table", "II"]),
    ("reproduce III", ["reproduce", "--table", "III"]),
    ("reproduce IV", ["reproduce", "--table", "IV"]),
    ("reproduce V", ["reproduce", "--table", "V"]),
    ("verify all", ["verify", "all"]),
)

# Runs the CLI, then reports on stderr whether scipy.optimize was loaded.
CHILD = (
    "import sys\n"
    "from quantcap.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('scipy.optimize', 'scipy.optimize' in sys.modules, file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)


def run_once(argv, env):
    """(wall s, CPU s, peak RSS MB, scipy.optimize loaded) of one process."""
    with tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL, stderr=err, env=env
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{text}")
    loaded = "scipy.optimize True" in text
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, loaded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument(
        "--src", type=Path, action="append", help="tree to import from; repeat to compare trees"
    )
    parser.add_argument("--repeat", type=int, default=5, help="runs per command and tree")
    args = parser.parse_args()
    trees = args.src or [default_src]

    envs = [child_env(tree) for tree in trees]
    runs = {(name, k): [] for name, _ in COMMANDS for k in range(len(trees))}
    for rep in range(args.repeat):
        order = range(len(trees)) if rep % 2 == 0 else range(len(trees) - 1, -1, -1)
        for name, argv in COMMANDS:
            for k in order:
                runs[name, k].append(run_once(argv, envs[k]))

    for k, tree in enumerate(trees):
        print(f"tree {k}: {tree}")
    print(
        f"{'command':<13}  tree  {'wall_s':>7}  {'cpu_s':>7}  {'rss_mb':>7}  scipy.optimize  wall_vs_0"
    )
    for name, _ in COMMANDS:
        first = statistics.median(s[0] for s in runs[name, 0])
        for k in range(len(trees)):
            *medians, loaded = zip(*runs[name, k])
            wall, cpu, rss = map(statistics.median, medians)
            print(
                f"{name:<13}  {k:>4}  {wall:7.3f}  {cpu:7.3f}  {rss:7.1f}  "
                f"{'yes' if any(loaded) else 'no':<14}  {wall / first - 1.0:+9.1%}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
