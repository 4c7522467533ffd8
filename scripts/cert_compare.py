"""The duality certificate of a fixed set of output laws, as float hex.

    PYTHONPATH=src python3 scripts/cert_compare.py > certs.txt

The laws are:

* the output laws that ``duality_upper_bound`` polishes and certifies for
  the Table I quantizer at -5 to 30 dB in 5 dB steps, the K=8 benchmark
  quantizer at -10, 0, 10 and 20 dB, and the K=4 one at 30, 35 and 40 dB;
* the output laws of the 600 seed-11 ``capacity_sweep`` solves
  (``perfbench/workloads.sweep_inputs``) and of the 300 draws of
  ``scripts/fuzz_solves.py``, floored and renormalized as
  ``duality_upper_bound`` does.

One line per law gives its label, then the certificate's multiplier gamma
and the certificate ``bounds._certified_bound``, as float hex; gamma is the
last one ``minimize_max_affine`` returned inside the certificate.  Nothing
on standard output depends on the machine, so the output of two source trees
can be compared with ``diff``.  Standard error gets, per group of laws, the
median and largest number of rows a certificate evaluates (counted by
wrapping ``bin_probability_matrix``), and the CPU time of the certificates.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

import fuzz_solves
from quantcap import BenchmarkScheme, ChannelSpec, OutputPmf, Quantizer, bounds, optimize
from quantcap.channel import _R_FLOOR, bin_probability_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

TABLE_I = Quantizer((-2.0, 0.0, 2.0))


def polished_laws():
    """(label, spec, law) for every law that `duality_upper_bound` certifies."""
    specs = [(f"tableI {db}", ChannelSpec.from_snr_db(db, TABLE_I)) for db in range(-5, 31, 5)]
    for bins, dbs in ((8, (-10, 0, 10, 20)), (4, (30, 35, 40))):
        specs += [
            (f"K{bins} {db}", ChannelSpec.from_snr_db(db, BenchmarkScheme.build(bins, 10 ** (db / 10)).quantizer))
            for db in dbs
        ]
    laws = []
    certify = optimize._certified_bound
    for label, spec in specs:
        optimize._certified_bound = lambda s, out: laws.append((label, s, out)) or 0.0
        try:
            optimize.duality_upper_bound(spec)
        finally:
            optimize._certified_bound = certify
    return laws


def solved_law(label, spec, result):
    w = bin_probability_matrix(result.dist.locations, spec.quantizer.thresholds, spec.sigma)
    r = np.maximum(result.dist.masses @ w, _R_FLOOR)
    return label, spec, OutputPmf(r / r.sum())


def sweep_laws():
    for i, (_, db, thr) in enumerate(workloads.sweep_inputs(11)):
        spec = ChannelSpec(1.0, 10.0 ** (db / 10.0), Quantizer(thr))
        yield solved_law(f"sweep {i}", spec, optimize.optimize_input_cutting_plane(spec))


def fuzz_laws():
    for i, (db, h) in enumerate(fuzz_solves.draws()):
        thresholds = tuple(np.concatenate([-h[::-1], [0.0], h]).tolist())
        spec = ChannelSpec.from_snr_db(db, Quantizer(thresholds))
        try:
            result = optimize.optimize_input_cutting_plane(spec, grid=fuzz_solves.GRID)
        except Exception:  # a raising draw has no law; fuzz_solves.py lists it
            continue
        yield solved_law(f"fuzz {i}", spec, result)


def main() -> int:
    rows, gammas = [0], [None]
    count_rows, envelope = bounds.bin_probability_matrix, bounds.minimize_max_affine

    def counted(x, *args):
        rows[0] += np.atleast_1d(x).size
        return count_rows(x, *args)

    def recorded(*args):
        found = envelope(*args)
        gammas[0] = found.gamma
        return found

    bounds.bin_probability_matrix, bounds.minimize_max_affine = counted, recorded
    cpu, every = 0.0, []
    for group, laws in (("polished", polished_laws()), ("sweep", sweep_laws()), ("fuzz", fuzz_laws())):
        counts = []
        for label, spec, law in laws:
            rows[0] = 0
            start = time.process_time()
            cert = bounds._certified_bound(spec, law)
            cpu += time.process_time() - start
            counts.append(rows[0])
            print(f"{label} {gammas[0].hex()} {cert.hex()}")
        every += counts
        print(f"{group}: {len(counts)} laws, rows median {np.median(counts):g} max {max(counts)}", file=sys.stderr)
    print(f"all: {len(every)} laws, rows median {np.median(every):g}", file=sys.stderr)
    print(f"certificate cpu_s {cpu:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
