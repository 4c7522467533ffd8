"""Per-layer spans and counts for the traced run.

``Tracer.install`` wraps the public functions of each layer in every
``quantcap`` module that binds them, so calls made through
``from .channel import ...`` bindings and calls inside the defining module
are both seen.  Each call becomes a span (name, start, end, parent, op id)
kept in flat in-memory arrays; ``layer_stats`` turns them into per-layer
counts and self times once the run is over, and ``save`` writes them out.

A layer whose function a later change renames or deletes is recorded as
absent and reports zero calls; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: (span name, defining module, function, modules to wrap in or None for all)
LAYERS = (
    ("channel.bin_probability_matrix", "quantcap.channel", "bin_probability_matrix", None),
    ("bounds.minimize_max_affine", "quantcap.bounds", "minimize_max_affine", None),
    ("bounds.best_symmetric_bound", "quantcap.bounds", "best_symmetric_bound", None),
    # The mass solve is scipy's minimize as bound in quantcap.optimize; the
    # Nelder-Mead polish in quantcap.bounds binds the same function and is
    # deliberately not counted.
    ("optimize.slsqp", "quantcap.optimize", "minimize", ("quantcap.optimize",)),
    (
        "optimize.optimize_input_cutting_plane",
        "quantcap.optimize",
        "optimize_input_cutting_plane",
        None,
    ),
    ("quantopt.optimize_quantizer_2bit", "quantcap.quantopt", "optimize_quantizer_2bit", None),
    (
        "quantopt.optimize_quantizer_3bit_iterative",
        "quantcap.quantopt",
        "optimize_quantizer_3bit_iterative",
        None,
    ),
    ("tables.build_table", "quantcap.tables", "build_table", None),
    ("verify.run_suite", "quantcap.verify", "run_suite", None),
)

CUTTING_PLANE = "optimize.optimize_input_cutting_plane"
JOINT = ("quantopt.optimize_quantizer_2bit", "quantopt.optimize_quantizer_3bit_iterative")


def _count_result(counts, name, out):
    """Per-call counters read from a layer's result.

    Attributes are read with defaults, so a result type that a later change
    reshapes costs a counter, not the run.
    """
    c = counts[name]
    if name == "channel.bin_probability_matrix":
        c["rows"] += int(getattr(out, "shape", (0,))[0])
        c["bytes_out"] += int(getattr(out, "nbytes", 0))
    elif name == "optimize.slsqp":
        c["nit"] += int(getattr(out, "nit", 0))
        c["unsuccessful"] += not bool(getattr(out, "success", True))
    elif name == CUTTING_PLANE:
        c["iterations"] += int(getattr(out, "iterations", 0))
        c["unconverged"] += not bool(getattr(out, "converged", True))
    elif name == "quantopt.optimize_quantizer_3bit_iterative":
        c["outer_rounds"] += len(getattr(out, "trace", ()))


class Tracer:
    """Span recorder.  One instance per traced run; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op = -1
        self.counts = defaultdict(lambda: defaultdict(int))
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, name, call):
        """Run one workload op inside a root span tagged with its op id."""
        self._op = op_id
        idx = self.open(name)
        try:
            return call()
        finally:
            self.close(idx)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            _count_result(tracer.counts, name, out)
            return out

        return traced

    def install(self):
        """Wrap every layer in every quantcap module that binds it."""
        for name, module, attr, where in LAYERS:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            loaded = [
                m
                for mname, m in list(sys.modules.items())
                if (mname == "quantcap" or mname.startswith("quantcap."))
                and (where is None or mname in where)
            ]
            for m in loaded:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
                    self._restore.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent, op."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
        )

    def self_times(self):
        """Each span's duration minus the time its child spans cover.

        Spans nest strictly in one thread, so children never overlap and
        their durations simply add up.
        """
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def layer_stats(self):
        """{span name: {stat: value}} with calls and self_s for every span name."""
        name_id, _, _, parent, _ = self.arrays()
        self_s = self.self_times()
        stats = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            stats[name] = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum())}
            stats[name].update(self.counts.get(name, {}))
        # Inner solves per joint cell: cutting-plane spans attributed to the
        # nearest enclosing joint-optimizer span.
        joint_ids = {self._name_ids[n]: n for n in JOINT if n in self._name_ids}
        if CUTTING_PLANE in self._name_ids and joint_ids:
            inner = defaultdict(int)
            for idx in np.flatnonzero(name_id == self._name_ids[CUTTING_PLANE]):
                p = parent[idx]
                while p >= 0 and name_id[p] not in joint_ids:
                    p = parent[p]
                if p >= 0:
                    inner[joint_ids[name_id[p]]] += 1
            for name, solves in inner.items():
                stats[name]["inner_solves"] = solves
        return stats

    def save(self, path):
        name_id, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            start=start,
            end=end,
            parent=parent,
            op=op,
        )
