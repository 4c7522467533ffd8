"""Float-hex fingerprints of quantcap, layer by layer, of one source tree or two.

    python3 scripts/fingerprint.py SET... [--src TREE [--src TREE]]

SET is one of ``solves``, ``joint``, ``certs``, ``fuzz``, ``cli``, ``masses``,
``envelope``, ``steps`` or ``all``; TREE is a directory holding the
``quantcap`` package (default: the ``src/`` next to this script).  Each set
runs in each tree in its own child process (``bench_pairs.child_env``: BLAS
on one thread, ``SOURCE_DATE_EPOCH=0``) that imports only ``quantcap`` from
the tree: the probe code, the benchmark inputs of ``perfbench/workloads.py``
and the fuzz draws come from this script's checkout, so every tree is probed
by the same code.  What a set prints on stdout does not depend on the machine; CPU times
and row counts go to stderr, each line prefixed with the set and the tree.

With one tree, each set's stdout is passed through.  With two, each set
prints ``<set>: identical, N lines``, or a unified diff of the lines that
differ, or the error of a tree where it raised.  The exit code is 1 if a set
raised or differs, else 0.

The sets, one line per item, floats as float hex:

* ``solves``: every cutting-plane result of the benchmark's fingerprint passes
  (``bench_pairs.FINGERPRINT_SEEDS``), with ``optimize_input_cutting_plane``
  rebound in every module, so the solves inside the joint optimizers, the
  bound search and the tables are all seen: the pass, its rank in the pass,
  the capacity, upper bound and gamma, the rounds, ``converged``, and the
  support's locations and masses; then per pass its solve and error counts.
* ``joint``: ``optimize_quantizer_2bit`` and then
  ``optimize_quantizer_3bit_iterative`` from -30 to 40 dB in 0.5-dB steps:
  the bit count, the SNR, the capacity, the positive thresholds and the
  cell's cutting-plane solves; then per bit count the total solves.
* ``certs``: the certificate ``bounds._certified_bound`` of a fixed set of
  output laws: those ``duality_upper_bound`` certifies for the Table I
  quantizer at -5 to 30 dB in 5-dB steps, the K=8 benchmark quantizer at
  -10, 0, 10 and 20 dB and the K=4 one at 30, 35 and 40 dB; and those of the
  600 seed-11 ``capacity_sweep`` solves, floored and renormalized as
  ``duality_upper_bound`` does.  The law's label, the last gamma
  ``minimize_max_affine`` returned inside the certificate, and the
  certificate.
* ``fuzz``: 300 draws from ``numpy.random.default_rng(0)``, each three sorted
  half-thresholds from U(0.2, 20) and then an SNR from U(-5, 20) dB, solved
  for the symmetric 8-bin quantizer (-h3, -h2, -h1, 0, h1, h2, h3) at unit
  noise variance on a 501-point grid: the draw, its capacity and upper bound,
  ``converged``, the rounds and the certificate of its law (as ``certs``
  takes it), or the exception it raised; then the raised and unconverged
  counts.  So a change that moves only the fuzz moves no ``certs`` line.
* ``cli``: a fixed set of ``python -m quantcap.cli`` invocations covering
  every subcommand, its human text, ``--out -`` in CSV and in JSON-lines,
  the solver flags and usage errors: the arguments, stdout, stderr and the
  exit code.
* ``masses``: every ``optimize._optimal_masses_rows`` call of the seed-11
  ``capacity_sweep`` pass (a careful rerun from inside a call is part of the
  call), recorded in the first tree and replayed ``MASS_REPEAT`` times in
  each, each replay timed in thread CPU: the call, the bin count K, the
  support size, the mutual information and the masses; then the call count.
* ``envelope``: every ``bounds.minimize_max_affine`` call of that pass (a
  call from inside a call is part of it), recorded and replayed the same
  way: the call, the line count, gamma and the envelope value; then the call
  count.
* ``steps``: every ``quantopt._threshold_step`` call of the benchmark's
  fingerprint ``tables`` pass, recorded and replayed the same way: the call,
  the half-thresholds it returns and their mutual information at the call's
  input; then the call count.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import pickle
import pkgutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bench_pairs import FINGERPRINT_SEEDS, child_env

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent

#: a child's program: probe the set named by its argument; its working
#: directory is shared by the children of one run
CHILD = (
    "import sys\n"
    f"sys.path[:0] = [{str(SCRIPTS)!r}, {str(ROOT / 'perfbench')!r}]\n"
    "import fingerprint\n"
    "fingerprint.probe(sys.argv[1])\n"
)

JOINT_DBS = [k / 2 for k in range(-60, 81)]
FUZZ_DRAWS = 300
FUZZ_POINTS = 501
#: the capacity_sweep pass whose laws ``certs`` certifies and whose mass
#: solves ``masses`` replays
SWEEP_SEED = 11
MASS_REPEAT = 15
#: the tables pass whose threshold steps ``steps`` replays
TABLES_SEED = FINGERPRINT_SEEDS["tables"][0]
#: where ``masses``, ``envelope`` and ``steps`` keep their recorded calls, in
#: the shared working directory
MASS_CALLS = "mass_calls.pkl"
ENVELOPE_CALLS = "envelope_calls.pkl"
STEP_CALLS = "step_calls.pkl"
CLI_TABLES = ("I", "II", "III", "IV", "V")
CLI_INVOCATIONS = (
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
    *(["reproduce", "--table", t] for t in CLI_TABLES),
    *(["reproduce", "--table", t, "--out", "-"] for t in CLI_TABLES),
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


def hexes(values) -> str:
    return ",".join(float(v).hex() for v in values)


@contextmanager
def rebound(module, name, replacement):
    """Within the block, every loaded ``quantcap`` module that binds
    ``module.name`` binds `replacement` in its place."""
    original = getattr(module, name)
    binders = [
        m for key, m in list(sys.modules.items())
        if key.partition(".")[0] == "quantcap" and getattr(m, name, None) is original
    ]
    for m in binders:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m in binders:
            setattr(m, name, original)


def solves():
    import workloads
    from quantcap import optimize

    original, results = optimize.optimize_input_cutting_plane, []

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    with rebound(optimize, "optimize_input_cutting_plane", recorded):
        for name, seeds in FINGERPRINT_SEEDS.items():
            for seed in seeds:
                results.clear()
                done = workloads.WORKLOADS[name](seed)
                label = f"{name}-{seed}"
                for rank, r in enumerate(results):
                    floats = (float(v).hex() for v in (r.capacity, r.upper_bound, r.gamma))
                    print(
                        label, rank, *floats, r.iterations, str(r.converged).lower(),
                        hexes(r.dist.locations), hexes(r.dist.masses),
                    )
                print(f"{label} solves {len(results)} errors {len(done.errors)}")


def joint():
    from quantcap import optimize, quantopt

    original, calls = optimize.optimize_input_cutting_plane, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with rebound(optimize, "optimize_input_cutting_plane", counted):
        for bits, optimizer in (
            (2, quantopt.optimize_quantizer_2bit),
            (3, quantopt.optimize_quantizer_3bit_iterative),
        ):
            total, start = 0, time.thread_time()
            for db in JOINT_DBS:
                calls[0] = 0
                res = optimizer(10.0 ** (db / 10.0))
                thresholds = res.quantizer.thresholds
                halves = hexes(thresholds[len(thresholds) // 2 + 1:])
                capacity = float(res.capacity_result.capacity).hex()
                print(f"{bits}bit {db:+.1f} {capacity} {halves} {calls[0]}")
                total += calls[0]
            print(f"{bits}bit solves {total}")
            print(f"{bits}bit cpu_s {time.thread_time() - start:.2f}", file=sys.stderr)


def fuzz_specs():
    """(index, spec) of every fuzz draw, in order."""
    from quantcap import ChannelSpec, Quantizer

    rng = np.random.default_rng(0)
    for i in range(FUZZ_DRAWS):
        halves = np.sort(rng.uniform(0.2, 20.0, 3))
        snr_db = float(rng.uniform(-5.0, 20.0))
        thresholds = tuple(np.concatenate([-halves[::-1], [0.0], halves]).tolist())
        yield i, ChannelSpec.from_snr_db(snr_db, Quantizer(thresholds))


def own_law(spec, result):
    """The output law of `result`'s input, floored and renormalized as
    ``duality_upper_bound`` does."""
    from quantcap import OutputPmf
    from quantcap.channel import _R_FLOOR, bin_probability_matrix

    w = bin_probability_matrix(result.dist.locations, spec.quantizer.thresholds, spec.sigma)
    r = np.maximum(result.dist.masses @ w, _R_FLOOR)
    return OutputPmf(r / r.sum())


def fuzz():
    from quantcap import GridConfig, bounds, optimize_input_cutting_plane

    grid = GridConfig(point_count=FUZZ_POINTS)
    raised = unconverged = 0
    solve_cpu = cert_cpu = 0.0
    for i, spec in fuzz_specs():
        start = time.process_time()
        try:
            res = optimize_input_cutting_plane(spec, grid=grid)
        except Exception as exc:  # a raising draw is counted, not fatal
            raised += 1
            print(f"{i} raised {type(exc).__name__}: {exc}")
            continue
        finally:
            solve_cpu += time.process_time() - start
        start = time.process_time()
        cert = bounds._certified_bound(spec, own_law(spec, res))
        cert_cpu += time.process_time() - start
        unconverged += not res.converged
        print(
            f"{i} {res.capacity.hex()} {res.upper_bound.hex()} "
            f"{str(res.converged).lower()} {res.iterations} {cert.hex()}"
        )
    print(f"raised {raised}")
    print(f"unconverged {unconverged}")
    print(f"cpu_s {solve_cpu:.1f}", file=sys.stderr)
    print(f"certificate cpu_s {cert_cpu:.2f}", file=sys.stderr)


def certified_laws():
    """(group, label, spec, law) of every law the ``certs`` set certifies."""
    import workloads
    from quantcap import BenchmarkScheme, ChannelSpec, Quantizer, optimize

    table_i = Quantizer((-2.0, 0.0, 2.0))
    specs = [(f"tableI {db}", ChannelSpec.from_snr_db(db, table_i)) for db in range(-5, 31, 5)]
    for bins, dbs in ((8, (-10, 0, 10, 20)), (4, (30, 35, 40))):
        for db in dbs:
            quantizer = BenchmarkScheme.build(bins, 10 ** (db / 10)).quantizer
            specs.append((f"K{bins} {db}", ChannelSpec.from_snr_db(db, quantizer)))
    laws, label = [], None

    def polished(spec, out):  # `label` is that of the spec being certified
        laws.append(("polished", label, spec, out))
        return 0.0

    with rebound(optimize, "_certified_bound", polished):
        for label, spec in specs:
            optimize.duality_upper_bound(spec)

    for i, (_, db, thr) in enumerate(workloads.sweep_inputs(SWEEP_SEED)):
        spec = ChannelSpec(1.0, 10.0 ** (db / 10.0), Quantizer(thr))
        law = own_law(spec, optimize.optimize_input_cutting_plane(spec))
        laws.append(("sweep", f"sweep {i}", spec, law))
    return laws


def certs():
    from quantcap import bounds

    laws = certified_laws()
    rows, gammas = [0], [None]
    count_rows, envelope = bounds.bin_probability_matrix, bounds.minimize_max_affine

    def counted(x, *args):
        rows[0] += np.atleast_1d(x).size
        return count_rows(x, *args)

    def recorded(*args):
        found = envelope(*args)
        gammas[0] = found.gamma
        return found

    counts, cpu = {}, 0.0
    with (
        rebound(bounds, "bin_probability_matrix", counted),
        rebound(bounds, "minimize_max_affine", recorded),
    ):
        for group, label, spec, law in laws:
            rows[0] = 0
            start = time.process_time()
            cert = bounds._certified_bound(spec, law)
            cpu += time.process_time() - start
            counts.setdefault(group, []).append(rows[0])
            print(f"{label} {gammas[0].hex()} {cert.hex()}")
    for group, seen in counts.items():
        print(
            f"{group}: {len(seen)} laws, rows median {np.median(seen):g} max {max(seen)}",
            file=sys.stderr,
        )
    every = [n for seen in counts.values() for n in seen]
    print(f"all: {len(every)} laws, rows median {np.median(every):g}", file=sys.stderr)
    print(f"certificate cpu_s {cpu:.2f}", file=sys.stderr)


def cli():
    for argv in CLI_INVOCATIONS:
        done = subprocess.run(
            [sys.executable, "-m", "quantcap.cli", *argv], capture_output=True, text=True
        )
        print(f"$ quantcap {' '.join(argv)}")
        print("--- stdout")
        print(done.stdout, end="")
        print("--- stderr")
        print(done.stderr, end="")
        print(f"--- exit {done.returncode}")


def recorded_calls(module, name, copy, workload="capacity_sweep", seed=SWEEP_SEED):
    """copy(*args) of every outermost call of ``module.name`` in one pass of
    `workload`; a call made from inside a call is part of that call."""
    import workloads

    original, calls, depth = getattr(module, name), [], 0

    def recorded(*args, **kwargs):
        nonlocal depth
        if depth == 0:
            calls.append(copy(*args, **kwargs))
        depth += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth -= 1

    with rebound(module, name, recorded):
        workloads.WORKLOADS[workload](seed)
    return calls


def replayed(path, record, call):
    """The calls kept at `path`, recorded there by `record()` in this run's
    first tree, and the results of `call` on each, replayed MASS_REPEAT
    times; the replays' thread CPU goes to stderr."""
    path = Path(path)
    if not path.exists():
        path.write_bytes(pickle.dumps(record()))
    calls = pickle.loads(path.read_bytes())
    seconds = []
    for _ in range(MASS_REPEAT):
        start = time.thread_time()
        results = [call(*args) for args in calls]
        seconds.append(time.thread_time() - start)
    print(
        f"cpu_s best {min(seconds):.4f} median {statistics.median(seconds):.4f}", file=sys.stderr
    )
    return calls, results


def masses():
    from quantcap import optimize

    def copy(w, negent, xsq, power, start=None, careful=False):
        start = None if start is None else np.array(start, dtype=float)
        return w.copy(), negent.copy(), xsq.copy(), power, start

    calls, results = replayed(
        MASS_CALLS,
        lambda: recorded_calls(optimize, "_optimal_masses_rows", copy),
        lambda w, neg, xsq, power, s: optimize._optimal_masses_rows(w, neg, xsq, power, start=s),
    )
    for i, ((w, *_), (found, mi)) in enumerate(zip(calls, results)):
        print(f"{i} {w.shape[1]} {w.shape[0]} {float(mi).hex()} {hexes(found)}")
    print(f"calls {len(calls)}")


def envelope():
    from quantcap import bounds

    def copy(intercepts, slopes):
        return np.array(intercepts, dtype=float), np.array(slopes, dtype=float)

    calls, results = replayed(
        ENVELOPE_CALLS,
        lambda: recorded_calls(bounds, "minimize_max_affine", copy),
        bounds.minimize_max_affine,
    )
    for i, ((d, _), found) in enumerate(zip(calls, results)):
        print(f"{i} {d.size} {float(found.gamma).hex()} {float(found.value).hex()}")
    print(f"calls {len(calls)}")


def steps():
    from quantcap import ChannelSpec, Quantizer, mutual_information, quantopt

    calls, results = replayed(
        STEP_CALLS,
        lambda: recorded_calls(
            quantopt, "_threshold_step", lambda dist, halves, sigma: (dist, np.array(halves), sigma),
            "tables", TABLES_SEED,
        ),
        quantopt._threshold_step,
    )
    for i, ((dist, _, sigma), halves) in enumerate(zip(calls, results)):
        thresholds = np.concatenate([-halves[::-1], [0.0], halves])
        mi = mutual_information(dist, ChannelSpec(sigma * sigma, 1.0, Quantizer(thresholds)))
        print(f"{i} {hexes(halves)} {float(mi).hex()}")
    print(f"calls {len(calls)}")


PROBES = {
    "solves": solves, "joint": joint, "certs": certs, "fuzz": fuzz, "cli": cli, "masses": masses,
    "envelope": envelope, "steps": steps,
}
SETS = tuple(PROBES)


def probe(name: str) -> None:
    """Run set `name` in this process, after importing every ``quantcap``
    module, so that `rebound` reaches every binding."""
    import quantcap

    for info in pkgutil.iter_modules(quantcap.__path__):
        importlib.import_module(f"quantcap.{info.name}")
    PROBES[name]()


def run_set(name: str, tree: Path, workdir: str) -> tuple[str, str, str | None]:
    """(stdout, stderr, error) of set `name` probed in `tree` by a child
    process; the error is the last stderr line of a child that failed."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, name], cwd=workdir, env=child_env(tree),
        capture_output=True, text=True,
    )
    if done.returncode == 0:
        return done.stdout, done.stderr, None
    error = (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]
    return done.stdout, done.stderr, error


def compare(name: str, labels: list, runs: list) -> tuple[str, bool]:
    """The report of set `name` over two trees' (stdout, error), and whether
    the trees differ; a set that raised in either tree differs."""
    raised = [
        f"{name}: raised in {label}: {error}\n" for label, (_, error) in zip(labels, runs) if error
    ]
    if raised:
        return "".join(raised), True
    old, new = (out.splitlines(keepends=True) for out, _ in runs)
    if old == new:
        return f"{name}: identical, {len(old)} lines\n", False
    diff = difflib.unified_diff(old, new, f"{name} {labels[0]}", f"{name} {labels[1]}", n=0)
    return "".join(diff), True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "sets", nargs="+", metavar="SET", choices=(*SETS, "all"), help=", ".join((*SETS, "all"))
    )
    parser.add_argument(
        "--src", type=Path, action="append", help="a tree holding quantcap; twice to compare two"
    )
    args = parser.parse_args(argv)
    trees = args.src or [ROOT / "src"]
    if len(trees) > 2:
        parser.error("--src takes one tree or two")
    names = SETS if "all" in args.sets else tuple(dict.fromkeys(args.sets))
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            runs = [run_set(name, tree, workdir) for tree in trees]
            for tree, (_, err, _) in zip(trees, runs):
                sys.stderr.writelines(f"[{name} {tree}] {line}\n" for line in err.splitlines())
            if len(trees) == 1:
                out, _, error = runs[0]
                text, differs = out, error is not None
            else:
                labels = [str(tree) for tree in trees]
                text, differs = compare(name, labels, [(out, error) for out, _, error in runs])
            sys.stdout.write(text)
            sys.stdout.flush()
            failed |= differs
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
