"""Command-line front end: capacity runs, bounds, sweeps, table reproduction,
and self-verification.

A quantizer is given by --thresholds or by --bits (1 is the sign quantizer,
2 and 3 the uniform-PAM benchmark quantizer at each SNR).  `capacity`
reports the optimal input's support and masses per SNR, and `bound` the
duality upper bound certified for the output law of that input once its
support is polished over continuous x; `sweep` has two modes: capacity
cells per precision (1, 2, 3 bits and unquantized, or the one --bits
names), and with --curve q the 2-bit capacity at 200 symmetric thresholds
q per SNR and its best point.  --sigma2, the noise variance, scales
absolute thresholds; `benchmark` depends on the SNR alone and takes no
--sigma2.

Every command prints a human-readable summary to stdout; ``--out`` addition-
ally writes a machine-format report (CSV or JSON-lines, manifest embedded),
and ``--out -`` sends the machine format to stdout instead.  Exit codes:
0 success, 1 usage error, 2 computation error, 3 verification failure.  A
computation error names the command and SNR of the failed solve, with the
thresholds for `capacity` and `bound` and the precision for `sweep`.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

from .channel import ChannelSpec, Quantizer
from .optimize import _DEFAULT_TOL, GridConfig, duality_upper_bound, optimize_input_cutting_plane
from .quantopt import (
    BenchmarkScheme,
    benchmark_error_probability,
    benchmark_fano_lower_bound,
    benchmark_mutual_information,
    optimize_quantizer,
    two_bit_threshold_curve,
)
from .report import RunManifest, render_report
from .tables import _PRECISIONS, build_table, capacity_and_gamma
from .verify import all_passed, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

_PRECISION_LABELS = {1: "1-bit", 2: "2-bit", 3: "3-bit", "inf": "unquantized"}


class UsageError(Exception):
    """Bad flag values or combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on parse errors, which collides with the
    # computation-error code; funnel everything through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> float:
    """argparse type of the float flags: finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _db(text: str) -> float:
    """One SNR in dB whose linear value is finite and > 0; else ValueError."""
    value = float(text)
    try:
        linear = 10.0 ** (value / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(text)
    return value


def _snr_values(text: str, step: float):
    """A single dB value or an inclusive 'lo..hi' range walked by `step`."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = _db(lo_s), _db(hi_s)
            if hi < lo:
                raise UsageError(f"empty SNR range {text!r}")
            if not step > 0.0:
                raise UsageError(f"--step must be > 0, got {step!r}")
            out = []
            k = 0
            while True:
                v = round(lo + k * step, 10)
                if v > hi + 1e-9:
                    break
                out.append(min(v, hi))
                k += 1
            return out
        return [_db(text)]
    except ValueError:
        raise UsageError(f"invalid --snr-db value {text!r}") from None


def _parsed_thresholds(args):
    if getattr(args, "thresholds", None) is None:
        return None
    try:
        return tuple(float(tok) for tok in args.thresholds.split(","))
    except ValueError:
        raise UsageError(
            f"--thresholds must be comma-separated numbers, got {args.thresholds!r}"
        ) from None


def _quantizer_for(args, snr_db: float) -> Quantizer:
    thresholds = _parsed_thresholds(args)
    if thresholds is not None and args.bits is not None:
        raise UsageError("give at most one of --thresholds, --bits")
    if thresholds is not None:
        try:
            return Quantizer(thresholds)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.bits is not None:
        snr = 10.0 ** (snr_db / 10.0)
        scheme = BenchmarkScheme.build(2**args.bits, snr, noise_variance=args.sigma2)
        return scheme.quantizer
    raise UsageError("a quantizer is required: --thresholds or --bits")


#: what the manifest leaves out of the parsed arguments: the output
#: destination and format never change the numbers, so reports stay
#: byte-identical across them, and the SNRs are recorded resolved, not as
#: the range and step that give them
_UNRECORDED = ("command", "func", "out", "format", "step")


def _manifest(args, snrs=None, **extra) -> RunManifest:
    """Every parsed flag that is set, with the SNRs and thresholds resolved,
    and the `extra` facts of the run."""
    params = {k: v for k, v in vars(args).items() if v is not None and k not in _UNRECORDED}
    if snrs is not None:
        params["snr_db"] = [float(v) for v in snrs]
    thresholds = _parsed_thresholds(args)
    if thresholds is not None:
        params["thresholds"] = list(thresholds)
    params.update(extra)
    return RunManifest(command=args.command, parameters=params)


def _emit(args, manifest, header, rows, human_text: str) -> None:
    out = getattr(args, "out", None)
    if out == "-":
        sys.stdout.write(render_report(header, rows, args.format, manifest))
        return
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_report(header, rows, args.format, manifest))
    sys.stdout.write(human_text)


def _join(values) -> str:
    return " ".join(f"{float(v):.16e}" for v in values)


@contextmanager
def _named(args, db, detail=""):
    """Re-raise what the block raises under the command, the SNR `db` and
    `detail`, so a failed run names the solve that failed."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{args.command} at {db:g} dB{detail}: {exc}") from exc


def _per_snr(args, snrs, cell, head="", sep="\n", specs=None) -> int:
    """Emit the report rows and one human block per SNR, all from
    `cell(db) -> (rows, block)`.  Each row maps every report column to its
    value; the human text is `head`, then the blocks joined by `sep`.  A cell
    that raises is named by `_named`, with its thresholds given `specs`."""
    rows, blocks = [], []
    for db in snrs:
        detail = "" if specs is None else f", thresholds {specs[db].quantizer.thresholds}"
        with _named(args, db, detail):
            cell_rows, block = cell(db)
        rows.extend(list(row.values()) for row in cell_rows)
        blocks.append(block)
    header = list(cell_rows[-1])
    _emit(args, _manifest(args, snrs), header, rows, head + sep.join(blocks))
    return EXIT_OK


def _specs(args, snrs) -> dict:
    """The channel at each SNR; every quantizer is parsed before the first
    solve."""
    return {db: ChannelSpec.from_snr_db(db, _quantizer_for(args, db), args.sigma2) for db in snrs}


def cmd_capacity(args) -> int:
    snrs = _snr_values(args.snr_db, args.step)
    try:
        grid = GridConfig(point_count=args.grid_points)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    specs = _specs(args, snrs)

    def cell(db):
        res = optimize_input_cutting_plane(specs[db], grid=grid, tol=args.tol)
        row = {
            "snr_db": db,
            "capacity": res.capacity,
            "gamma": res.gamma,
            "kkt_max_violation": res.kkt_max_violation,
            "iterations": res.iterations,
            "support": _join(res.dist.locations),
            "masses": _join(res.dist.masses),
        }
        return [row], f"snr_db {db:g}\n" + res.to_text()

    return _per_snr(args, snrs, cell, specs=specs)


def cmd_bound(args) -> int:
    snrs = _snr_values(args.snr_db, args.step)
    specs = _specs(args, snrs)

    def cell(db):
        bound, out_pmf = duality_upper_bound(specs[db])
        if not math.isfinite(bound):
            # an output bin too far out or too thin for its log ratios
            raise ArithmeticError(f"the certificate is not finite: bound {bound!r}")
        pmf = _join(out_pmf.probs)
        row = {"snr_db": db, "bound": bound, "output_pmf": pmf}
        return [row], f"snr_db {db:g}\nbound {bound:.16e}\noutput_pmf {pmf}\n"

    return _per_snr(args, snrs, cell, specs=specs)


def cmd_benchmark(args) -> int:
    bins = 2**args.bits

    def cell(db):
        snr = 10.0 ** (db / 10.0)
        mi = benchmark_mutual_information(bins, snr)
        pe = benchmark_error_probability(bins, snr)
        fano = benchmark_fano_lower_bound(bins, snr)
        row = {
            "snr_db": db,
            "bits": args.bits,
            "mutual_information": mi,
            "error_probability": pe,
            "fano_lower_bound": fano,
        }
        return [row], f"{db:8.2f}  {mi:11.4f}  {pe:10.4f}  {fano:10.4f}\n"

    head = "  snr_db  mutual_info  error_prob  fano_bound\n"
    return _per_snr(args, _snr_values(args.snr_db, args.step), cell, head, sep="")


def cmd_optimize_quantizer(args) -> int:
    def cell(db):
        snr = 10.0 ** (db / 10.0)
        jr = optimize_quantizer(snr, 2**args.bits, noise_variance=args.sigma2, tol=args.tol)
        cr = jr.capacity_result
        row = {
            "snr_db": db,
            "bits": args.bits,
            "capacity": cr.capacity,
            "gamma": cr.gamma,
            "kkt_max_violation": cr.kkt_max_violation,
            "thresholds": _join(jr.quantizer.thresholds),
            "support": _join(cr.dist.locations),
            "masses": _join(cr.dist.masses),
        }
        return [row], f"snr_db {db:g}\n" + jr.to_text()

    return _per_snr(args, _snr_values(args.snr_db, args.step), cell)


def cmd_sweep(args) -> int:
    snrs = _snr_values(args.snr_db, args.step)
    if args.curve and args.bits is not None:
        raise UsageError("--curve q is the 2-bit threshold curve; it takes no --bits")
    if args.sigma2 is not None and not args.curve:
        raise UsageError(
            "--sigma2 scales q of --curve q; the capacity cells depend on the SNR alone"
        )

    if args.curve:
        if args.sigma2 is None:
            args.sigma2 = 1.0

        def cell(db):
            curve = two_bit_threshold_curve(10.0 ** (db / 10.0), args.sigma2)
            best_q, cap = max(curve, key=lambda point: point[1])
            rows = [{"snr_db": db, "q": q, "capacity": value} for q, value in curve]
            return rows, (
                f"snr_db {db:g}: {len(curve)} curve points, "
                f"best q {best_q:.4f} with capacity {cap:.4f}\n"
            )

        return _per_snr(args, snrs, cell, sep="")

    precisions = [args.bits] if args.bits is not None else list(_PRECISIONS)
    records = []
    for p in precisions:
        for db in snrs:
            with _named(args, db, f", precision {p}"):
                records.append((p, db, capacity_and_gamma(p, db)[0]))
    rows = [[str(p), db, cap] for p, db, cap in records]
    by_cell = {(p, db): cap for p, db, cap in records}
    labels = [_PRECISION_LABELS[p] for p in precisions]
    lines = ["  snr_db  " + "  ".join(f"{lab:>11}" for lab in labels)]
    for db in snrs:
        cells = "  ".join(f"{by_cell[(p, db)]:11.4f}" for p in precisions)
        lines.append(f"{db:8.2f}  {cells}")
    header = ["precision", "snr_db", "capacity"]
    manifest = _manifest(args, snrs, precisions=[str(p) for p in precisions])
    _emit(args, manifest, header, rows, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    table = build_table(args.table, cache={})
    human = table.to_human() + f"max |deviation| {table.max_deviation():.4f}\n"
    rows = [list(item) for item in table.machine_rows()]
    header = ["row", "provenance", "column", "value"]
    manifest = _manifest(args, column_label=table.reference.column_label)
    _emit(args, manifest, header, rows, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, cache={})
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}  margin {c.margin:.3e}  {c.detail}")
    passed = sum(1 for c in checks if c.passed)
    lines.append(f"{passed}/{len(checks)} checks passed")
    rows = [[c.name, c.passed, float(c.margin), c.detail] for c in checks]
    header = ["check", "passed", "margin", "detail"]
    _emit(args, _manifest(args), header, rows, "\n".join(lines) + "\n")
    return EXIT_OK if all_passed(checks) else EXIT_VERIFY


def _add_snr_flags(sp):
    sp.add_argument(
        "--snr-db",
        required=True,
        help="SNR in dB: a number or an inclusive range 'lo..hi'",
    )
    sp.add_argument("--step", type=_positive, default=1.0, help="dB step for SNR ranges")


def _add_sigma2_flag(sp, default=1.0):
    sp.add_argument("--sigma2", type=_positive, default=default, help="noise variance")


def _add_quantizer_flags(sp):
    sp.add_argument("--thresholds", help="comma-separated ascending quantizer thresholds")
    sp.add_argument(
        "--bits",
        type=int,
        choices=(1, 2, 3),
        help="the uniform-PAM benchmark quantizer with 2^bits levels "
        "(for 1 bit, the sign quantizer)",
    )


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument(
        "--out", help="write a machine-format report to this path ('-' for stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quantcap",
        description="Capacity tools for the power-constrained AWGN channel "
        "with few-bit output quantization.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    sp = sub.add_parser("capacity", help="optimal input for a fixed quantizer")
    _add_snr_flags(sp)
    _add_sigma2_flag(sp)
    _add_quantizer_flags(sp)
    sp.add_argument(
        "--grid-points", type=int, default=GridConfig().point_count, help="input grid size (odd)"
    )
    sp.add_argument("--tol", type=_positive, default=_DEFAULT_TOL, help="convergence tolerance")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser(
        "bound", help="duality upper bound from the capacity solve's output law"
    )
    _add_snr_flags(sp)
    _add_sigma2_flag(sp)
    _add_quantizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("benchmark", help="uniform-PAM benchmark rates")
    _add_snr_flags(sp)
    sp.add_argument("--bits", type=int, choices=(1, 2, 3), required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_benchmark)

    sp = sub.add_parser(
        "optimize-quantizer", help="jointly optimize thresholds and input"
    )
    _add_snr_flags(sp)
    _add_sigma2_flag(sp)
    sp.add_argument("--bits", type=int, choices=(2, 3), required=True)
    sp.add_argument("--tol", type=_positive, default=_DEFAULT_TOL, help="convergence tolerance")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_optimize_quantizer)

    sp = sub.add_parser(
        "sweep",
        help="capacity cells per precision over an SNR range, or the 2-bit "
        "threshold curve (for the optimal input per SNR, see capacity)",
    )
    _add_snr_flags(sp)
    _add_sigma2_flag(sp, default=None)
    sp.add_argument(
        "--bits",
        type=int,
        choices=(1, 2, 3),
        help="single precision to sweep (default: 1, 2, 3 and unquantized)",
    )
    sp.add_argument(
        "--curve",
        choices=("q",),
        help="instead of the cells, emit the 2-bit capacity at 200 symmetric "
        "thresholds q over (0, 4 max(sqrt(P), sigma)] per SNR, and print its "
        "best point; takes no --bits, and --sigma2 scales q",
    )
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("reproduce", help="recompute a published comparison table")
    sp.add_argument("--table", required=True, choices=("I", "II", "III", "IV", "V"))
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("verify", help="run a self-check suite")
    sp.add_argument(
        "suite", choices=("convexity", "kkt", "sandwich", "cardinality", "all")
    )
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


_VALUE_FLAGS = ("--thresholds", "--snr-db")


def _merge_negative_values(argv):
    """Join '--flag value' into '--flag=value' when the value starts with '-'.

    argparse classifies tokens like '-2,0,2' or '-20..20' as option strings
    (they are not plain negative numbers), so they never reach the flag that
    expects them unless pre-merged.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and argv[i + 1] != "-":
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_OK
    except Exception as exc:  # the CLI boundary: anything else is a failed run
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
