"""Cold wall time of the CLI commands, each run in a fresh interpreter.

    python3 scripts/cold_wall.py [--src SRC] [--repeat 5] > cold.txt

Runs each command of ``COMMANDS`` ``--repeat`` times, one process at a time,
cycling through the commands so a drift of the machine's speed spreads over
all of them.  Each process imports ``quantcap`` from ``SRC`` (default: the
``src/`` next to this script), runs ``quantcap.cli.main`` and exits; BLAS is
pinned to one thread.  Per command the output gives the median wall time
from spawn to exit, the median process CPU (user + system, from
``os.wait4``), the median peak RSS, and whether ``scipy.optimize`` was in
``sys.modules`` when the command returned.  A command that exits nonzero
stops the script.
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

COMMANDS = (
    ("capacity", ["capacity", "--snr-db", "0..20", "--step", "5", "--bits", "2"]),
    ("benchmark", ["benchmark", "--snr-db", "0..20", "--step", "5", "--bits", "3"]),
    ("bound", ["bound", "--snr-db", "0..20", "--step", "5", "--bits", "2"]),
    ("reproduce I", ["reproduce", "--table", "I"]),
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
    parser.add_argument("--src", type=Path, default=default_src, help="tree to import from")
    parser.add_argument("--repeat", type=int, default=5, help="runs per command")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = {name: [] for name, _ in COMMANDS}
    for _ in range(args.repeat):
        for name, argv in COMMANDS:
            runs[name].append(run_once(argv, env))

    print(f"{'command':<12}  {'wall_s':>7}  {'cpu_s':>7}  {'rss_mb':>7}  scipy.optimize")
    for name, samples in runs.items():
        wall, cpu, rss, loaded = zip(*samples)
        print(
            f"{name:<12}  {statistics.median(wall):7.3f}  {statistics.median(cpu):7.3f}  "
            f"{statistics.median(rss):7.1f}  {'yes' if any(loaded) else 'no'}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
