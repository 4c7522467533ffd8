"""Every joint 2-bit and 3-bit cell from -30 to 40 dB, as float hex.

    PYTHONPATH=src python3 scripts/joint_cells.py > cells.txt

Runs ``optimize_quantizer_2bit`` and then ``optimize_quantizer_3bit_iterative``
at each SNR from -30 to 40 dB in 0.5-dB steps (141 cells each) with
``optimize_input_cutting_plane`` wrapped in ``quantcap.quantopt``, so every
inner solve of a joint search is counted.  One line per cell gives the bit
count, the SNR in dB, the capacity and the positive thresholds as float hex,
and the number of cutting-plane solves the cell made; one line per bit count
then gives the total solves.  The thread CPU time of each bit count goes to
stderr, so stdout does not depend on the machine and the output of two
source trees can be compared with ``diff``.
"""

from __future__ import annotations

import sys
import time

from quantcap import quantopt

DBS = [k / 2 for k in range(-60, 81)]
OPTIMIZERS = (
    (2, quantopt.optimize_quantizer_2bit),
    (3, quantopt.optimize_quantizer_3bit_iterative),
)


def main() -> int:
    original = quantopt.optimize_input_cutting_plane
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    quantopt.optimize_input_cutting_plane = counted
    try:
        for bits, optimizer in OPTIMIZERS:
            total = 0
            start = time.thread_time()
            for db in DBS:
                calls[0] = 0
                res = optimizer(10.0 ** (db / 10.0))
                halves = res.quantizer.thresholds[len(res.quantizer.thresholds) // 2 + 1:]
                print(" ".join((
                    f"{bits}bit",
                    f"{db:+.1f}",
                    float(res.capacity_result.capacity).hex(),
                    ",".join(float(h).hex() for h in halves),
                    str(calls[0]),
                )))
                total += calls[0]
            print(f"{bits}bit solves {total}")
            print(f"{bits}bit cpu_s {time.thread_time() - start:.2f}", file=sys.stderr)
    finally:
        quantopt.optimize_input_cutting_plane = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
