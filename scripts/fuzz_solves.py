"""Seeded fuzz of the cutting-plane capacity solve on far-flung quantizers.

    PYTHONPATH=src python3 scripts/fuzz_solves.py > fuzz.txt

Each of the 300 draws, from ``numpy.random.default_rng(0)``, takes three
sorted half-thresholds from U(0.2, 20), then an SNR from U(-5, 20) dB, and
solves the symmetric 8-bin quantizer (-h3, -h2, -h1, 0, h1, h2, h3) at unit
noise variance on a 501-point grid with the default tolerance.  One line per
draw gives, as float hex, its capacity and upper bound, then ``converged``
and the cutting-plane rounds, or the exception a raising draw threw.  The
last lines give the raised and unconverged counts and the process CPU time.
Only the CPU line depends on the machine, so the output of two source trees
can be compared with ``diff``.
"""

from __future__ import annotations

import time

import numpy as np

from quantcap import ChannelSpec, GridConfig, Quantizer, optimize_input_cutting_plane

DRAWS = 300
GRID = GridConfig(point_count=501)


def draws(count=DRAWS):
    """(snr_db, half-thresholds) of each draw, in order."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        halves = np.sort(rng.uniform(0.2, 20.0, 3))
        yield float(rng.uniform(-5.0, 20.0)), halves


def main() -> int:
    start = time.process_time()
    raised = unconverged = 0
    for i, (snr_db, h) in enumerate(draws()):
        thresholds = tuple(np.concatenate([-h[::-1], [0.0], h]).tolist())
        spec = ChannelSpec.from_snr_db(snr_db, Quantizer(thresholds))
        try:
            res = optimize_input_cutting_plane(spec, grid=GRID)
        except Exception as exc:  # a raising draw is counted, not fatal
            raised += 1
            print(f"{i} raised {type(exc).__name__}: {exc}")
            continue
        unconverged += not res.converged
        print(
            f"{i} {res.capacity.hex()} {res.upper_bound.hex()} "
            f"{str(res.converged).lower()} {res.iterations}"
        )
    print(f"raised {raised}")
    print(f"unconverged {unconverged}")
    print(f"cpu_s {time.process_time() - start:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
