"""Tests for report plumbing (manifests, CSV/JSON-lines, comparison tables)
and the command-line front end, including the exit-code contract."""

import csv
import io
import json
import sys

import numpy as np
import pytest
import scipy

from quantcap import __version__, cli
from quantcap.cli import UsageError, _merge_negative_values, _snr_values, main
from quantcap.channel import ChannelSpec, OutputPmf
from quantcap.optimize import GridConfig, onebit_capacity, optimize_input_cutting_plane
from quantcap.quantopt import (
    BenchmarkScheme,
    benchmark_mutual_information,
    two_bit_threshold_curve,
)
from quantcap.reference import REFERENCE_TABLES, ReferenceTable
from quantcap.report import (
    INFEASIBLE,
    ReportTable,
    RunManifest,
    format_value,
    render_report,
    write_csv,
    write_jsonl,
)
from quantcap.verify import CheckResult


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """(manifest dict, header, rows) of a CSV report."""
    lines = text.splitlines()
    prefix = "# manifest: "
    assert lines[0].startswith(prefix)
    manifest = json.loads(lines[0][len(prefix):])
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return manifest, rows[0], rows[1:]


class TestRunManifest:
    def test_json_roundtrip(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        m = RunManifest("sweep", {"snr_db": [0.0, 5.0], "bits": 2})
        assert json.loads(m.to_json()) == {
            "command": "sweep",
            "parameters": {"snr_db": [0.0, 5.0], "bits": 2},
            "version": __version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": "2023-11-14T22:13:20Z",
        }

    def test_serialization_is_stable(self):
        m = RunManifest("capacity", {"b": 1, "a": 2})
        assert m.to_json() == m.to_json()
        assert '"a": 2' in m.to_json()

    def test_timestamp_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        m = RunManifest("verify", {})
        assert json.loads(m.to_json())["timestamp"] == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_record_the_versions(self, capsys, fmt):
        argv = ["benchmark", "--snr-db", "0", "--bits", "1", "--out", "-", "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        if fmt == "csv":
            manifest = parse_csv(out)[0]
        else:
            manifest = json.loads(out.splitlines()[0])["manifest"]
        assert manifest["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__


class TestWriters:
    MANIFEST = RunManifest("test", {"x": 1})

    def test_csv_layout(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        buf = io.StringIO()
        write_csv(buf, ["a", "b"], [[1.5, None], ["x,y", 2]], self.MANIFEST)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# manifest: {self.MANIFEST.to_json()}"
        assert lines[1] == "a,b"
        assert lines[2] == "1.5000000000000000e+00,-"
        # RFC-4180 quoting for cells containing the delimiter
        assert lines[3] == '"x,y",2'

    def test_jsonl_layout(self):
        buf = io.StringIO()
        write_jsonl(buf, ["a", "b"], [[1.5, None]], self.MANIFEST)
        lines = buf.getvalue().splitlines()
        head = json.loads(lines[0])
        assert head["manifest"]["command"] == "test"
        assert json.loads(lines[1]) == {"a": 1.5, "b": None}

    def test_float_precision_at_least_12_digits(self):
        third = 1.0 / 3.0
        assert format_value(third) == f"{third:.16e}"
        assert float(format_value(third)) == third

    def test_render_report_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(["a"], [[1.0]], "xml", self.MANIFEST)


class TestReportTable:
    @staticmethod
    def table():
        return ReportTable(
            reference=ReferenceTable("X", "snr_db", (0.0, 5.0), (("rate", (0.4552, 1.0)),)),
            computed=(("rate", (0.4551, None)),),
        )

    def test_rejects_ragged_rows(self):
        # computed rows must follow the reference's labels, order and widths
        ref = ReferenceTable("X", "snr_db", (0.0, 5.0), (("a", (1.0, 2.0)), ("b", (3.0, 4.0))))
        ReportTable(ref, (("a", (1.0, 2.0)), ("b", (3.0, None))))
        for computed in (
            (("a", (1.0,)), ("b", (3.0, 4.0))),
            (("a", (1.0, 2.0)), ("b", (3.0, 4.0, 5.0))),
            (("a", (1.0, 2.0)), ("c", (3.0, 4.0))),
            (("b", (3.0, 4.0)), ("a", (1.0, 2.0))),
            (("a", (1.0, 2.0)),),
            (("a", (1.0, 2.0)), ("b", (3.0, 4.0)), ("b", (3.0, 4.0))),
        ):
            with pytest.raises(ValueError):
                ReportTable(ref, computed)

    def test_deviations_skip_infeasible_cells(self):
        (label, devs), = self.table().deviations()
        assert label == "rate"
        assert devs[0] == pytest.approx(1e-4, abs=1e-12)
        assert devs[1] is None

    def test_max_deviation(self):
        assert self.table().max_deviation() == pytest.approx(1e-4, abs=1e-12)

    def test_to_human_rounds_and_marks_infeasible(self):
        text = self.table().to_human()
        assert "0.4551" in text and "0.4552" in text
        assert "rate (reference)" in text
        assert "rate (deviation)" in text
        assert INFEASIBLE in text
        # full precision never leaks into the human view
        assert "0.45510" not in text

    def test_machine_rows_provenance(self):
        rows = list(self.table().machine_rows())
        tags = {r[1] for r in rows}
        assert tags == {"computed", "reference", "deviation"}
        assert len(rows) == 6


class TestReferenceTables:
    def test_all_five_present(self):
        assert sorted(REFERENCE_TABLES) == ["I", "II", "III", "IV", "V"]

    def test_spot_values(self):
        t1 = REFERENCE_TABLES["I"]
        mi = dict(zip(t1.columns, dict(t1.rows)["Mutual information"]))
        assert mi[5.0] == 0.8668

    def test_infeasible_cells_marked_none(self):
        t5 = REFERENCE_TABLES["V"]
        assert None in dict(t5.rows)["1-bit"]
        assert None not in dict(t5.rows)["Unquantized"]


class TestSnrParsing:
    def test_single_value(self):
        assert _snr_values("5", 1.0) == [5.0]
        assert _snr_values("-7.5", 1.0) == [-7.5]

    def test_range_is_inclusive(self):
        assert _snr_values("-20..20", 10.0) == [-20.0, -10.0, 0.0, 10.0, 20.0]
        assert _snr_values("0..1", 0.3) == [0.0, 0.3, 0.6, 0.9]

    def test_bad_values_raise_usage_error(self):
        with pytest.raises(UsageError):
            _snr_values("abc", 1.0)
        with pytest.raises(UsageError):
            _snr_values("5..0", 1.0)
        with pytest.raises(UsageError):
            _snr_values("0..5", 0.0)

    def test_negative_value_merge(self):
        merged = _merge_negative_values(
            ["capacity", "--snr-db", "-20..20", "--thresholds", "-2,0,2"]
        )
        assert merged == ["capacity", "--snr-db=-20..20", "--thresholds=-2,0,2"]
        # bare '-' (stdout marker) and non-negative values pass through
        assert _merge_negative_values(["--snr-db", "5"]) == ["--snr-db", "5"]
        assert _merge_negative_values(["--out", "-"]) == ["--out", "-"]


class TestCapacityCommand:
    def test_reference_cell(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--snr-db", "5", "--thresholds", "-2,0,2"], capsys
        )
        assert code == 0
        cap = float(out.split("capacity ")[1].split()[0])
        assert cap == pytest.approx(0.8668, abs=5e-4)
        assert "point " in out

    def test_onebit_matches_closed_form(self, capsys):
        code, out, _ = run_cli(["capacity", "--snr-db", "0", "--bits", "1"], capsys)
        assert code == 0
        cap = float(out.split("capacity ")[1].split()[0])
        assert cap == pytest.approx(onebit_capacity(1.0), abs=1e-6)

    def test_support_column_matches_reference_points(self, capsys):
        code, out, _ = run_cli(
            ["capacity", "--snr-db", "5", "--thresholds", "-2,0,2", "--out", "-"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        (row,) = rows
        locs = [float(v) for v in row[header.index("support")].split()]
        masses = [float(v) for v in row[header.index("masses")].split()]
        assert locs == pytest.approx([-2.86, -0.52, 0.52, 2.86], abs=0.05)
        assert sum(masses) == pytest.approx(1.0, abs=1e-9)

    def test_solver_flags_reach_the_solve_and_the_manifest(self, capsys):
        argv = ["capacity", "--snr-db", "1", "--bits", "2", "--tol", "1e-6"]
        code, out, _ = run_cli(argv + ["--grid-points", "501", "--out", "-"], capsys)
        assert code == 0
        manifest, header, rows = parse_csv(out)
        assert manifest["parameters"]["tol"] == 1e-6
        assert manifest["parameters"]["grid_points"] == 501
        quantizer = BenchmarkScheme.build(4, 10.0**0.1, noise_variance=1.0).quantizer
        direct = optimize_input_cutting_plane(
            ChannelSpec.from_snr_db(1.0, quantizer, 1.0),
            grid=GridConfig(point_count=501),
            tol=1e-6,
        )
        (row,) = rows
        # 17 significant digits round-trip every double exactly
        assert float(row[header.index("capacity")]) == direct.capacity
        support = [float(v) for v in row[header.index("support")].split()]
        assert support == direct.dist.locations.tolist()

    @pytest.mark.parametrize("db", ["8", "10", "12"])
    def test_far_outer_thresholds_solve(self, capsys, db):
        # the 8-PAM input reaches the outer bins at 20 sigma with probability
        # near 1e-45, so the mass solve sees R near 0 there
        argv = ["capacity", "--snr-db", db, "--thresholds=-20,-7.96,-7.07,0,7.07,7.96,20"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        cap = float(out.split("capacity ")[1].split()[0])
        bound = float(out.split("upper_bound ")[1].split()[0])
        assert 0.0 < cap <= bound

    def test_pruned_support_keeps_a_tight_certificate(self, capsys):
        # the 8 dB solve converges, but pruning a 1e-10 mass moves its output
        # law; certified under the loop's own law, the gap stays within tol
        argv = ["capacity", "--snr-db", "8", "--thresholds=-20,-7.96,-7.07,0,7.07,7.96,20"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "converged true" in out
        assert float(out.split("kkt_max_violation ")[1].split()[0]) <= 1e-4

    def test_far_join_takes_its_ascent_step(self, capsys):
        # at 10 dB the Newton step after a far point joins would drop it
        # although its reduced gradient is bits, not rounding; the mass
        # solve takes the join step instead of stopping, so the loop closes
        argv = ["capacity", "--snr-db", "10", "--thresholds=-20,-7.96,-7.07,0,7.07,7.96,20"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "converged true" in out
        assert float(out.split("kkt_max_violation ")[1].split()[0]) <= 1e-4
        # capacity rises with power: between the same quantizer's 8 and 12 dB
        cap = float(out.split("capacity ")[1].split()[0])
        assert 1.0374023 < cap < 1.4766019

    def test_unordered_thresholds_usage_error(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--snr-db", "0", "--thresholds", "1,0"], capsys
        )
        assert code == 1
        assert "usage error" in err

    def test_duplicate_thresholds_usage_error(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--snr-db", "0", "--thresholds", "0,0"], capsys
        )
        assert code == 1

    def test_missing_quantizer_usage_error(self, capsys):
        code, _, err = run_cli(["capacity", "--snr-db", "0"], capsys)
        assert code == 1
        assert "quantizer" in err

    def test_conflicting_quantizer_flags(self, capsys):
        code, _, err = run_cli(
            ["capacity", "--snr-db", "0", "--thresholds", "0", "--bits", "1"], capsys
        )
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["capacity", "--nope"], capsys)
        assert code == 1

    def test_missing_command_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol", "0"],
            ["--tol", "nan"],
            ["--sigma2", "-1"],
            ["--sigma2", "inf"],
            ["--grid-points", "100"],
            ["--step", "0"],
            ["--snr-db", "nan"],
            ["--snr-db", "4000"],
            ["--snr-db=-4000"],
        ],
    )
    def test_bad_flag_value_is_usage_error(self, capsys, monkeypatch, flags):
        def unreached(*args, **kwargs):
            raise AssertionError("a bad flag must fail before any solve")

        monkeypatch.setattr(cli, "optimize_input_cutting_plane", unreached)
        argv = ["capacity", "--snr-db", "0..1", "--bits", "1"]
        code, _, err = run_cli(argv + flags, capsys)
        assert code == 1
        assert "usage error" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_computation_error_exit_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "optimize_input_cutting_plane", boom)
        code, _, err = run_cli(["capacity", "--snr-db", "0", "--bits", "1"], capsys)
        assert code == 2
        assert "computation error: capacity at 0 dB, thresholds (0.0,): solver blew up" in err

    def test_value_error_inside_solve_is_computation_error(self, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise ValueError("minimize_max_affine: failed to bracket")

        monkeypatch.setattr(cli, "optimize_input_cutting_plane", fails)
        code, _, err = run_cli(["capacity", "--snr-db", "0", "--bits", "1"], capsys)
        assert code == 2
        assert "computation error" in err
        assert "capacity at 0 dB, thresholds (0.0,): minimize_max_affine: failed" in err
        assert "usage error" not in err


class TestBenchmarkAndBoundCommands:
    def test_benchmark_values(self, capsys):
        code, out, _ = run_cli(
            ["benchmark", "--snr-db", "0", "--bits", "2", "--out", "-"], capsys
        )
        assert code == 0
        manifest, header, rows = parse_csv(out)
        assert manifest["command"] == "benchmark"
        assert header[2] == "mutual_information"
        assert float(rows[0][2]) == pytest.approx(
            benchmark_mutual_information(4, 1.0), rel=1e-12
        )

    def test_benchmark_requires_bits(self, capsys):
        code, _, _ = run_cli(["benchmark", "--snr-db", "0"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [[], ["--bits", "1"]], ids=["no-bits", "bits-1"])
    def test_optimize_quantizer_requires_two_or_three_bits(self, capsys, argv):
        code, out, err = run_cli(["optimize-quantizer", "--snr-db", "0"] + argv, capsys)
        assert code == 1
        assert "usage error" in err and "--bits" in err
        assert out == ""

    def test_two_bit_search_at_high_snr(self, capsys):
        # the coarse scan reaches q near 2 sqrt(P), where the 501-point mass
        # solve meets near-empty outer bins at every integer SNR here
        code, out, _ = run_cli(
            ["optimize-quantizer", "--bits", "2", "--snr-db", "25..33", "--out", "-"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        caps = [float(row[header.index("capacity")]) for row in rows]
        assert len(caps) == 9
        assert all(1.9 < c <= 2.0 for c in caps)

    def test_bound_command(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--snr-db", "0", "--thresholds", "-2,0,2"], capsys
        )
        assert code == 0
        val = float(out.split("bound ")[1].split()[0])
        assert val == pytest.approx(0.4046, abs=2e-3)

    def test_failed_bound_names_its_solve(self, capsys, monkeypatch):
        calls = []

        def fails_second(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise ZeroDivisionError("float division by zero")
            return 0.5, OutputPmf(np.array([0.5, 0.5]))

        monkeypatch.setattr(cli, "duality_upper_bound", fails_second)
        argv = ["bound", "--snr-db", "-1..0", "--thresholds", "-1,0,2"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "computation error: bound at 0 dB, thresholds (-1.0, 0.0, 2.0): float" in err

    def test_bound_of_a_support_on_the_power_budget(self, capsys):
        # the joint 2-bit quantizer at -10 dB, whose bound polish puts the
        # whole support on x^2 = P
        thresholds = "-0.9629701295720821,0,0.9629701295720821"
        code, out, _ = run_cli(["bound", "--snr-db", "-10", "--thresholds", thresholds], capsys)
        assert code == 0
        val = float(out.split("bound ")[1].split()[0])
        assert val == pytest.approx(0.0612889, abs=1e-6)

    def test_any_capacity_quantizer_is_bounded(self, capsys):
        # bound takes every quantizer that capacity takes, asymmetric or of
        # any bin count, and bounds its capacity from above
        for thresholds in ("-1,0.5", "-3,-2,-1,-0.5,0,0.5,1,2,3"):
            argv = ["--snr-db", "0..1", "--thresholds", thresholds, "--out", "-"]
            code, out, _ = run_cli(["capacity"] + argv, capsys)
            assert code == 0
            _, cap_header, caps = parse_csv(out)
            code, out, _ = run_cli(["bound"] + argv, capsys)
            assert code == 0
            _, header, bounds = parse_csv(out)
            assert len(bounds) == len(caps) == 2
            for cap, row in zip(caps, bounds):
                pmf = row[header.index("output_pmf")].split()
                assert len(pmf) == thresholds.count(",") + 2
                bound = float(row[header.index("bound")])
                assert bound >= float(cap[cap_header.index("capacity")]) - 1e-9


class TestSweepCommand:
    def test_onebit_curve_nondecreasing(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--snr-db=-20..20", "--step", "10", "--bits", "1", "--out", "-"],
            capsys,
        )
        assert code == 0
        manifest, header, rows = parse_csv(out)
        caps = [float(r[2]) for r in rows]
        assert caps == sorted(caps)
        assert manifest["parameters"]["snr_db"] == [-20.0, -10.0, 0.0, 10.0, 20.0]

    def test_precision_ordering_at_zero_db(self, capsys):
        code, out, _ = run_cli(["sweep", "--snr-db", "0", "--out", "-"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        caps = {r[0]: float(r[2]) for r in rows}
        assert caps["1"] <= caps["2"] <= caps["3"] <= caps["inf"]

    def test_rows_are_precision_major(self, capsys, monkeypatch):
        # one uncached capacity cell per (precision, SNR), precision-major
        calls = []

        def fake(precision, snr_db, cache=None):
            assert cache is None
            calls.append((str(precision), snr_db))
            return float(len(calls)), 0.0

        monkeypatch.setattr(cli, "capacity_and_gamma", fake)
        code, out, _ = run_cli(["sweep", "--snr-db=0..10", "--step", "10", "--out", "-"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["precision", "snr_db", "capacity"]
        assert [(r[0], float(r[1])) for r in rows] == [
            (p, db) for p in ("1", "2", "3", "inf") for db in (0.0, 10.0)
        ]
        assert calls == [(r[0], float(r[1])) for r in rows]
        assert [float(r[2]) for r in rows] == [float(i) for i in range(1, len(rows) + 1)]

    def test_failed_cell_names_its_snr_and_precision(self, capsys, monkeypatch):
        def fails_second(precision, snr_db, cache=None):
            if snr_db == 5.0:
                raise ValueError("cell blew up")
            return 1.0, 0.0

        monkeypatch.setattr(cli, "capacity_and_gamma", fails_second)
        code, _, err = run_cli(["sweep", "--snr-db", "0..5", "--step", "5"], capsys)
        assert code == 2
        assert "computation error: sweep at 5 dB, precision 1: cell blew up" in err

    def test_csv_deterministic(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        argv = ["sweep", "--snr-db=-5..5", "--step", "5", "--bits", "1"]
        paths = [tmp_path / f"r{i}.csv" for i in range(2)]
        for path in paths:
            code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_threshold_curve_endpoints_approach_onebit(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--curve", "q", "--snr-db", "10", "--out", "-"], capsys
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["snr_db", "q", "capacity"]
        assert len(rows) == 200
        caps = [float(r[2]) for r in rows]
        onebit = onebit_capacity(10.0)
        # q -> 0 merges the outer bins into the sign quantizer
        assert caps[0] == pytest.approx(onebit, abs=0.02)
        # every q refines the sign quantizer, and past the optimum the curve
        # decays toward the 1-bit value (the limit sits beyond the scan range
        # at this SNR: sub-power-budget mass beyond q stays informative)
        assert min(caps) >= onebit - 1e-9
        tail = caps[-10:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert caps[-1] < max(caps) - 0.3

    def test_threshold_curve_summary_is_its_best_row(self, capsys, monkeypatch):
        # the summary solves nothing beyond the curve
        monkeypatch.setattr(cli, "optimize_input_cutting_plane", None)
        monkeypatch.setattr(cli, "optimize_quantizer", None)
        code, out, _ = run_cli(["sweep", "--curve", "q", "--snr-db", "-5"], capsys)
        assert code == 0
        best_q, cap = max(two_bit_threshold_curve(10.0**-0.5, 1.0), key=lambda p: p[1])
        assert out == (
            f"snr_db -5: 200 curve points, best q {best_q:.4f} with capacity {cap:.4f}\n"
        )

    def test_curve_failure_names_its_snr(self, capsys, monkeypatch):
        # the curve runs in the per-SNR loop, so a failed curve names its SNR
        def curve(snr, sigma2):
            if snr == 1.0:
                raise ValueError("no curve")
            return [(1.0, 0.5)]

        monkeypatch.setattr(cli, "two_bit_threshold_curve", curve)
        argv = ["sweep", "--snr-db=-5..5", "--step", "5", "--curve", "q"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "computation error: sweep at 0 dB: no curve" in err
        assert out == ""

    @pytest.mark.parametrize("mode", [["--bits", "2"], ["--curve", "q"]], ids=["bits", "q"])
    @pytest.mark.parametrize("flags", [["--tol", "0.5"], ["--grid-points", "101"]])
    def test_solver_flags_without_dump_dist_are_usage_errors(self, capsys, mode, flags):
        # no sweep mode passes them to a solver, so sweep does not take them
        code, _, err = run_cli(["sweep", "--snr-db", "0"] + mode + flags, capsys)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("mode", [[], ["--bits", "1"]], ids=["all", "bits"])
    def test_sigma2_without_curve_is_usage_error(self, capsys, monkeypatch, mode):
        # a capacity cell depends on the SNR alone; only --curve q scales q
        def unreached(*args, **kwargs):
            raise AssertionError("a bad flag must fail before any solve")

        monkeypatch.setattr(cli, "capacity_and_gamma", unreached)
        argv = ["sweep", "--snr-db", "0", "--sigma2", "4", "--out", "-"] + mode
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "usage error" in err and "--sigma2" in err
        assert out == ""

    def test_cells_manifest_has_no_sigma2(self, capsys):
        code, out, _ = run_cli(["sweep", "--snr-db", "0", "--bits", "1", "--out", "-"], capsys)
        assert code == 0
        manifest, _, _ = parse_csv(out)
        assert "sigma2" not in manifest["parameters"]

    @pytest.mark.parametrize("bits", ["1", "2", "3"])
    def test_curve_with_bits_is_usage_error(self, capsys, monkeypatch, bits):
        # the curve is always the 2-bit one
        def unreached(*args, **kwargs):
            raise AssertionError("a bad flag must fail before any solve")

        monkeypatch.setattr(cli, "two_bit_threshold_curve", unreached)
        argv = ["sweep", "--snr-db", "0", "--curve", "q", "--bits", bits, "--out", "-"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "usage error" in err and "--bits" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "convexity"],
        ["reproduce", "--table", "I"],
        ["benchmark", "--snr-db", "0", "--bits", "1"],
    ],
    ids=["verify", "reproduce", "benchmark"],
)
def test_manifest_has_no_sigma2_without_the_flag(capsys, argv):
    code, out, _ = run_cli(argv + ["--out", "-"], capsys)
    assert code == 0
    manifest, _, _ = parse_csv(out)
    assert "sigma2" not in manifest["parameters"]


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--snr-db=-1..1", "--step", "2", "--sigma2", "2", "--thresholds=-1,0,1",
         "--grid-points", "301", "--tol", "1e-5"],
        ["capacity", "--snr-db", "0", "--bits", "2"],
        ["optimize-quantizer", "--snr-db", "0", "--sigma2", "2", "--bits", "2", "--tol", "1e-5"],
        ["sweep", "--snr-db", "0", "--curve", "q", "--sigma2", "2"],
        ["reproduce", "--table", "I"],
        ["verify", "kkt"],
    ],
    ids=["capacity-thresholds", "capacity-bits", "optimize-quantizer", "sweep-curve",
         "reproduce", "verify"],
)
def test_manifest_records_every_flag_given(capsys, argv):
    # the output flags never change the numbers, and the SNRs are recorded
    # resolved, so --out, --format and --step stay out
    code, out, _ = run_cli(argv + ["--out", "-", "--format", "json"], capsys)
    assert code == 0
    params = json.loads(out.splitlines()[0])["manifest"]["parameters"]
    given = {tok[2:].split("=")[0].replace("-", "_") for tok in argv if tok.startswith("--")}
    given = (given - {"step"}) | ({"suite"} if argv[0] == "verify" else set())
    assert given <= set(params)
    assert not {"out", "format", "step"} & set(params)
    if "--thresholds=-1,0,1" in argv:
        assert params["snr_db"] == [-1.0, 1.0]
        assert params["thresholds"] == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "argv, settings",
    [
        (["capacity", "--snr-db", "0", "--bits", "2"], {"tol": 1e-4, "grid_points": 2001}),
        (["optimize-quantizer", "--snr-db", "0", "--bits", "2"], {"tol": 1e-4}),
    ],
    ids=["capacity", "optimize-quantizer"],
)
def test_manifest_records_the_solver_defaults(capsys, argv, settings):
    # the defaults are the library's, so a manifest reruns the run exactly
    # even where no solver flag is given
    code, out, _ = run_cli(argv + ["--out", "-", "--format", "json"], capsys)
    assert code == 0
    params = json.loads(out.splitlines()[0])["manifest"]["parameters"]
    assert {k: params[k] for k in settings} == settings


class TestVerifyCommand:
    def test_convexity_passes(self, capsys):
        code, out, _ = run_cli(["verify", "convexity"], capsys)
        assert code == 0
        assert "3/3 checks passed" in out
        assert "FAIL" not in out

    def test_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_suite",
            lambda name, cache=None: [CheckResult("broken", -1.0, "")],
        )
        code, out, _ = run_cli(["verify", "kkt"], capsys)
        assert code == 3
        assert "FAIL" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "nope"], capsys)
        assert code == 1

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            ["verify", "convexity", "--out", "-", "--format", "json"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0])["manifest"]["parameters"]["suite"] == "convexity"
        records = [json.loads(line) for line in lines[1:]]
        assert all(r["passed"] is True for r in records)


class TestReproduceCommand:
    def test_table_i_machine_report(self, capsys):
        code, out, _ = run_cli(["reproduce", "--table", "I", "--out", "-"], capsys)
        assert code == 0
        manifest, header, rows = parse_csv(out)
        assert manifest["parameters"]["table"] == "I"
        assert header == ["row", "provenance", "column", "value"]
        # 2 computed + 2 reference + 2 deviation rows, 6 columns each
        assert len(rows) == 36
        mi_devs = [
            float(r[3])
            for r in rows
            if r[0] == "Mutual information" and r[1] == "deviation"
        ]
        assert len(mi_devs) == 6
        assert max(mi_devs) <= 0.005

    def test_unknown_table_is_usage_error(self, capsys):
        code, _, _ = run_cli(["reproduce", "--table", "VI"], capsys)
        assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--snr-db", "0", "--onebit"],
        ["bound", "--snr-db", "0", "--onebit"],
        ["sweep", "--snr-db", "0", "--onebit"],
        ["sweep", "--snr-db", "0", "--thresholds", "-1,0,1"],
        ["sweep", "--snr-db", "0", "--dump-dist", "--bits", "2"],
        ["capacity", "--snr-db", "0", "--bits", "2", "--bound"],
        ["benchmark", "--snr-db", "0", "--bits", "2", "--sigma2", "4"],
    ],
    ids=[
        "capacity-onebit",
        "bound-onebit",
        "sweep-onebit",
        "sweep-thresholds",
        "sweep-dump-dist",
        "capacity-bound",
        "benchmark-sigma2",
    ],
)
def test_removed_flags_are_usage_errors(capsys, monkeypatch, argv):
    # the sign quantizer is --bits 1, capacity reports the optimal input's
    # support and masses per SNR, the bound command runs the bound search,
    # and the benchmark rates depend on the SNR alone
    def unreached(*args, **kwargs):
        raise AssertionError("a removed flag must fail before any solve")

    for name in (
        "optimize_input_cutting_plane",
        "duality_upper_bound",
        "capacity_and_gamma",
        "benchmark_mutual_information",
    ):
        monkeypatch.setattr(cli, name, unreached)
    code, out, err = run_cli(argv + ["--out", "-"], capsys)
    assert code == 1
    assert "unrecognized arguments" in err
    assert out == ""

