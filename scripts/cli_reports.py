"""A fixed set of CLI invocations, with every output and exit code.

    PYTHONPATH=src python3 scripts/cli_reports.py > reports.txt

Each invocation runs ``python -m quantcap.cli`` in its own process with
``SOURCE_DATE_EPOCH=0``, so every manifest carries the same timestamp.  The
set covers every subcommand, its human text and ``--out -`` in CSV and in
JSON-lines, the solver flags, and usage errors.  Per invocation the output
gives the arguments, then stdout, stderr and the exit code.  Nothing in it
depends on the machine, so the output of two source trees can be compared
with ``diff``.
"""

from __future__ import annotations

import os
import subprocess
import sys

TABLES = ("I", "II", "III", "IV", "V")

INVOCATIONS = (
    ["capacity", "--snr-db", "0..2", "--bits", "2"],
    ["capacity", "--snr-db", "-3", "--thresholds", "-1,0,1", "--sigma2", "2", "--out", "-"],
    ["capacity", "--snr-db", "1", "--bits", "2", "--tol", "1e-6", "--grid-points", "501",
     "--out", "-", "--format", "json"],
    ["capacity", "--snr-db", "5", "--bits", "3", "--out", "-"],
    ["bound", "--snr-db", "0..5", "--step", "5", "--bits", "2"],
    ["bound", "--snr-db", "3", "--thresholds", "-1,0,1", "--out", "-", "--format", "json"],
    ["benchmark", "--snr-db", "-5..5", "--step", "5", "--bits", "3"],
    ["benchmark", "--snr-db", "0", "--bits", "2", "--out", "-"],
    ["benchmark", "--snr-db", "10", "--bits", "1", "--out", "-", "--format", "json"],
    ["optimize-quantizer", "--snr-db", "0", "--bits", "2"],
    ["optimize-quantizer", "--snr-db", "5", "--bits", "3", "--out", "-", "--format", "json"],
    ["optimize-quantizer", "--snr-db", "0", "--bits", "2", "--tol", "1e-6", "--sigma2", "2",
     "--out", "-"],
    ["sweep", "--snr-db", "-5..5", "--step", "5"],
    ["sweep", "--snr-db", "0..5", "--step", "5", "--bits", "2", "--out", "-", "--format",
     "json"],
    ["sweep", "--snr-db", "0", "--curve", "q", "--sigma2", "2", "--out", "-"],
    ["sweep", "--snr-db", "0..5", "--step", "5", "--curve", "q"],
    ["sweep", "--snr-db", "0", "--curve", "q", "--out", "-", "--format", "json"],
    *(["reproduce", "--table", t] for t in TABLES),
    *(["reproduce", "--table", t, "--out", "-"] for t in TABLES),
    ["reproduce", "--table", "I", "--out", "-", "--format", "json"],
    ["verify", "kkt"],
    ["verify", "all", "--out", "-", "--format", "json"],
    ["verify", "cardinality"],
    ["verify", "sandwich", "--out", "-"],
    # usage errors, exit code 1
    ["capacity", "--snr-db", "1"],
    ["capacity", "--snr-db", "1", "--bits", "2", "--thresholds", "0"],
    ["capacity", "--snr-db", "1", "--thresholds", "1,0"],
    ["bound", "--snr-db", "5..0", "--bits", "2"],
    ["sweep", "--snr-db", "0", "--curve", "q", "--bits", "2"],
    ["reproduce", "--table", "VI"],
)


def main() -> int:
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    for argv in INVOCATIONS:
        done = subprocess.run(
            [sys.executable, "-m", "quantcap.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        print(f"$ quantcap {' '.join(argv)}")
        print("--- stdout")
        print(done.stdout, end="")
        print("--- stderr")
        print(done.stderr, end="")
        print(f"--- exit {done.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
