"""The benchmark's workloads, driven through quantcap's public functions.

Each workload is a pass function that runs its ops one at a time (a single
caller, closed loop) and returns a ``Pass``: the CPU time of every op, the
capacity results for the independent checker, and a fingerprint that a
repeat pass of the same inputs must reproduce.

* ``tables``: Tables I-V with one shared cache that starts empty, which is
  what reproducing the paper costs.  Ops are ``build_table`` calls.
* ``verify``: ``run_suite`` for every suite with a fresh cache, which is what
  ``quantcap verify all`` runs.  Ops are suites.
* ``capacity_sweep``: seeded fixed-quantizer solves on the default grid,
  which is the ``quantcap capacity`` path.  Ops are solves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from checker import Solve

TABLE_NAMES = ("I", "II", "III", "IV", "V")
SWEEP_BINS = (2, 4, 8)
SWEEP_DB = (-20.0, 20.0)
#: per-threshold jitter, in noise sigmas, applied to every second quantizer
SWEEP_JITTER = 0.2
#: solves in one capacity_sweep pass
SWEEP_OPS = 600


@dataclass
class Pass:
    """What one pass of a workload produced, op by op.

    ``solves`` and ``errors`` carry the index of the op they came from, and
    ``fingerprint`` holds one list of numbers per op, so a failure is
    charged to the op that caused it.
    """

    tracer: object = None
    #: CPU seconds of the calling thread; a calibrated run passes
    #: calibrate.Sampler.clock, which leaves out the reference samples
    clock: object = time.thread_time
    op_names: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def timed(self, name, call):
        """Run one op, record its CPU time, and return its result.

        An op that raises is recorded as failed and returns None; the pass
        goes on with the next op.
        """
        op = len(self.op_names)
        self.op_names.append(name)
        self.fingerprint.append([])
        start = self.clock()
        try:
            if self.tracer is None:
                out = call()
            else:
                out = self.tracer.run_op(op, name, call)
        except Exception as exc:  # an op boundary: count the failure, go on
            out = None
            self.errors.append((op, f"{name}: {type(exc).__name__}: {exc}"))
        self.op_seconds.append(self.clock() - start)
        return out

    def add_solve(self, result, thresholds, power):
        op = len(self.op_names) - 1
        self.solves.append((op, _solve(result, thresholds, power)))
        self.fingerprint[op].append(float(result.capacity))


def _power(snr_db):
    return 10.0 ** (snr_db / 10.0)


def _solve(result, thresholds, power):
    return Solve(
        thresholds=tuple(thresholds),
        power=power,
        sigma=1.0,
        locations=np.asarray(result.dist.locations),
        masses=np.asarray(result.dist.masses),
        capacity=float(result.capacity),
        upper_bound=math.nan if result.upper_bound is None else float(result.upper_bound),
        converged=bool(result.converged),
    )


def tables_pass(seed, tracer=None, clock=time.thread_time):
    """Tables I-V, cold shared cache.  The inputs are the paper's; no seed."""
    from quantcap.tables import TABLE_I_QUANTIZER, build_table

    out = Pass(tracer, clock)
    cache = {}
    for name in TABLE_NAMES:
        known = set(cache)
        table = out.timed(name, lambda: build_table(name, cache))
        if table is None:
            continue
        out.diagnostics[f"max_dev_{name}"] = float(table.max_deviation())
        for _, cells in table.computed:
            out.fingerprint[-1].extend(math.nan if c is None else float(c) for c in cells)
        # Cache keys are (kind, snr_db).  Joint cells carry their quantizer;
        # the Table I mutual-information cells use the fixed Table I one.
        for key in [k for k in cache if k not in known]:
            kind, value = key[0], cache[key]
            if kind in ("2bit", "3bit"):
                out.add_solve(
                    value.capacity_result, value.quantizer.thresholds, _power(key[1])
                )
            elif kind == "t1mi":
                out.add_solve(value, TABLE_I_QUANTIZER.thresholds, _power(key[1]))
    return out


def verify_pass(seed, tracer=None, clock=time.thread_time):
    """Every verify suite in order on one fresh cache, as ``run_suite("all")``
    runs them, one op per suite.  No seed."""
    from quantcap.tables import TABLE_I_QUANTIZER
    from quantcap.verify import SUITES, run_suite

    out = Pass(tracer, clock)
    cache = {}
    for name in SUITES:
        known = set(cache)
        records = out.timed(name, lambda: run_suite(name, cache))
        for rec in records or ():
            out.fingerprint[-1].append(float(rec.margin))
            if not rec.passed:
                out.errors.append(
                    (len(out.op_names) - 1, f"verify {name}: {rec.name} ({rec.detail})")
                )
        for key in [k for k in cache if k not in known]:
            if key[0] == "t1mi":
                out.add_solve(cache[key], TABLE_I_QUANTIZER.thresholds, _power(key[1]))
    return out


def sweep_inputs(seed, count=SWEEP_OPS):
    """Seeded (bins, snr_db, thresholds) triples for one capacity_sweep pass.

    K cycles over SWEEP_BINS, and every second quantizer is jittered, so op
    i belongs to one of six (K, jittered) classes.  Within each class the SNR
    is uniform on SWEEP_DB, stratified (one draw per equal-width stratum,
    strata in random order), so that a pass's mix of easy and hard channels,
    and hence its mean rate and its latency, barely depends on the seed.  The
    quantizer is the K-PAM benchmark quantizer at that SNR; a jittered one
    gets independent N(0, SWEEP_JITTER sigma) noise per threshold and is
    re-sorted, so it is asymmetric.
    """
    from quantcap.quantopt import BenchmarkScheme

    rng = np.random.default_rng(seed)
    classes = 2 * len(SWEEP_BINS)
    per_class = -(-count // classes)
    lo, hi = SWEEP_DB
    snr_db = [
        lo + (hi - lo) * (rng.permutation(per_class) + rng.random(per_class)) / per_class
        for _ in range(classes)
    ]
    inputs = []
    for i in range(count):
        k = SWEEP_BINS[i % len(SWEEP_BINS)]
        db = float(snr_db[i % classes][i // classes])
        thr = np.asarray(BenchmarkScheme.build(k, _power(db)).quantizer.thresholds)
        if i % 2 == 1:
            jittered = np.sort(thr + rng.normal(0.0, SWEEP_JITTER, thr.size))
            while np.any(np.diff(jittered) <= 0.0):
                jittered = np.sort(thr + rng.normal(0.0, SWEEP_JITTER, thr.size))
            thr = jittered
        inputs.append((k, db, tuple(float(t) for t in thr)))
    return inputs


def sweep_pass(seed, tracer=None, clock=time.thread_time):
    """One solve per seeded input, default grid and tolerance."""
    from quantcap.channel import ChannelSpec, Quantizer
    from quantcap.optimize import optimize_input_cutting_plane

    out = Pass(tracer, clock)
    for k, db, thr in sweep_inputs(seed):
        power = _power(db)
        spec = ChannelSpec(1.0, power, Quantizer(thr))
        result = out.timed(f"K{k}", lambda: optimize_input_cutting_plane(spec))
        if result is not None:
            out.add_solve(result, thr, power)
    return out


def warm_up():
    """One small solve, so lazy imports and first-call set-up are not timed."""
    from quantcap.channel import ChannelSpec, Quantizer
    from quantcap.optimize import optimize_input_cutting_plane

    optimize_input_cutting_plane(ChannelSpec(1.0, 1.0, Quantizer((-1.0, 0.0, 1.0))))


WORKLOADS = {
    "tables": tables_pass,
    "verify": verify_pass,
    "capacity_sweep": sweep_pass,
}
