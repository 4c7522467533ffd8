"""Tests for the comparison-table builders and the self-check suites.  Numerical agreement with the published cells is asserted
end-to-end in test_acceptance.py; here the focus is structure, caching, and
the invariant suites themselves."""

import math

import numpy as np
import pytest

from quantcap.channel import ChannelSpec, Quantizer
from quantcap.optimize import CapacityResult, onebit_capacity, optimize_input_cutting_plane
from quantcap.quantopt import JointResult, unquantized_capacity
from quantcap.reference import REFERENCE_TABLES
from quantcap import cli, quantopt, tables
from quantcap.tables import build_table, capacity_and_gamma, joint_cell
from quantcap.verify import CheckResult, all_passed, run_suite


class TestCells:
    def test_cells_are_cached(self, cell_cache):
        first = joint_cell(2, 0.0, cell_cache)
        again = joint_cell(2, 0.0, cell_cache)
        assert again is first
        assert ("2bit", 0.0) in cell_cache

    def test_joint_cells_and_the_cli_run_the_searches_quantopt_binds(self, monkeypatch, capsys):
        # the benchmark's tracer times a joint search by replacing its name in
        # quantopt, so the search must be looked up there at call time
        spec = ChannelSpec(1.0, 10.0, Quantizer((-1.0, 0.0, 1.0)))
        result = optimize_input_cutting_plane(spec)
        calls = []
        for name in ("optimize_quantizer_2bit", "optimize_quantizer_3bit_iterative"):

            def fake(snr, *, noise_variance, tol, name=name):
                calls.append((name, snr, noise_variance))
                return JointResult(spec.quantizer, result, (result.capacity,))

            monkeypatch.setattr(quantopt, name, fake)
        for bits in (2, 3):
            assert joint_cell(bits, 10.0).capacity_result is result
        for bits in ("2", "3"):
            argv = ["optimize-quantizer", "--bits", bits, "--snr-db", "10", "--sigma2", "2"]
            assert cli.main(argv) == 0
        assert calls == [
            ("optimize_quantizer_2bit", 10.0, 1.0),
            ("optimize_quantizer_3bit_iterative", 10.0, 1.0),
            ("optimize_quantizer_2bit", 10.0, 2.0),
            ("optimize_quantizer_3bit_iterative", 10.0, 2.0),
        ]
        assert capsys.readouterr().out.count("threshold -1.0000000000000000e+00") == 2

    def test_three_bit_cell_dominates_two_bit(self, cell_cache):
        two = joint_cell(2, 0.0, cell_cache).capacity_result.capacity
        three = joint_cell(3, 0.0, cell_cache).capacity_result.capacity
        assert three >= two - 1e-9

    def test_sweep_cell_closed_forms(self):
        assert capacity_and_gamma(1, 0.0)[0] == pytest.approx(onebit_capacity(1.0), rel=1e-12)
        assert capacity_and_gamma("inf", 10.0)[0] == pytest.approx(
            unquantized_capacity(10.0), rel=1e-12
        )
        with pytest.raises(ValueError):
            capacity_and_gamma(4, 0.0)


class TestCurves:
    """The per-precision (capacity, dC/dP) curves that Table V inverts,
    sampled at the Table IV SNRs, whose joint cells the tables share."""

    LADDER_DB = REFERENCE_TABLES["IV"].columns

    def test_onebit_curve_matches_closed_form(self):
        # past about 31.5 dB Q(sqrt P) underflows to 0 and so does the slope
        for db in (-10.0, 0.0, 7.0, 15.0, 31.5, 40.0):
            cap, slope = capacity_and_gamma(1, db)
            assert cap == onebit_capacity(10.0 ** (db / 10.0))
            assert math.isfinite(slope) and slope >= 0.0

    def test_curves_cached_by_precision(self, cell_cache):
        for precision, kind in ((2, "2bit"), (3, "3bit")):
            cap, gamma = capacity_and_gamma(precision, 0.0, cell_cache)
            cell = cell_cache[(kind, 0.0)].capacity_result
            assert (cap, gamma) == (cell.capacity, cell.gamma)

    def test_quantized_curves_nondecreasing_and_capped(self, cell_cache):
        for precision in (2, 3):
            points = [capacity_and_gamma(precision, db, cell_cache) for db in self.LADDER_DB]
            bits = np.array([cap for cap, _ in points])
            assert np.all(np.diff(bits) >= -1e-9)
            assert bits[-1] <= precision + 1e-9
            assert all(gamma > 0.0 for _, gamma in points)

    def test_precision_ordering_along_ladder(self, cell_cache):
        for db in self.LADDER_DB:
            c1, c2, c3, cinf = (
                capacity_and_gamma(p, db, cell_cache)[0] for p in (1, 2, 3, "inf")
            )
            assert c1 <= c2 + 1e-9
            assert c2 <= c3 + 1e-9
            assert c3 <= cinf + 1e-9

    @pytest.mark.parametrize("precision", [1, "inf"])
    @pytest.mark.parametrize("snr_db", [-10.0, -3.0, 0.0, 1.8, 6.0, 12.0])
    def test_closed_form_slopes_match_central_differences(self, precision, snr_db):
        _, slope = capacity_and_gamma(precision, snr_db)
        power, h = 10.0 ** (snr_db / 10.0), 1e-5
        up = capacity_and_gamma(precision, 10.0 * math.log10(power + h))[0]
        down = capacity_and_gamma(precision, 10.0 * math.log10(power - h))[0]
        assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-6)

    def test_unknown_precision(self):
        with pytest.raises(ValueError):
            capacity_and_gamma(4, 0.0)


class TestTableBuilders:
    @pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
    def test_layout_mirrors_reference(self, name, cell_cache):
        table = build_table(name, cell_cache)
        ref = REFERENCE_TABLES[name]
        assert table.reference is ref
        assert [label for label, _ in table.computed] == [label for label, _ in ref.rows]
        assert all(len(cells) == len(ref.columns) for _, cells in table.computed)

    def test_only_table_v_has_infeasible_cells(self, cell_cache):
        for name in ("I", "II", "III", "IV"):
            table = build_table(name, cell_cache)
            for _, cells in table.computed:
                assert all(c is not None and np.isfinite(c) for c in cells)
        t5 = build_table("V", cell_cache)
        assert any(None in cells for _, cells in t5.computed)

    def test_table_v_joint_cells_reach_target_at_reported_snr(self, cell_cache):
        # each reported SNR is the key of the joint cell solved there; its
        # capacity is within 0.005 dB times the local slope of the target
        table = build_table("V", cell_cache)
        rows = dict(table.computed)
        for label, bits in (("2-bit", 2), ("3-bit", 3)):
            for target, db in zip(table.reference.columns, rows[label]):
                if db is None:
                    continue
                res = joint_cell(bits, db, cell_cache).capacity_result
                per_db = res.gamma * 10.0 ** (db / 10.0) * np.log(10.0) / 10.0
                assert abs(res.capacity - target) <= 0.005 * per_db, (label, target)

    def test_cache_keys_keep_the_benchmark_contract(self, cell_cache):
        # perfbench/workloads.py collects the solves its checker verifies
        # from these keys and values
        for name in ("I", "II", "III", "IV", "V"):
            build_table(name, cell_cache)
        for key, value in cell_cache.items():
            kind, db = key
            assert kind in {"t1mi", "t1ub", "2bit", "3bit"}
            assert db == round(db, 6)
            if kind in ("2bit", "3bit"):
                assert isinstance(value, JointResult)
            elif kind == "t1mi":
                assert isinstance(value, CapacityResult)
        for table, kind in (("II", "2bit"), ("III", "3bit")):
            for db in REFERENCE_TABLES[table].columns:
                assert (kind, round(db, 6)) in cell_cache

    def test_unknown_table_name(self):
        with pytest.raises(ValueError):
            build_table("VI")


class TestVerifySuites:
    def test_all_suites_pass(self, cell_cache):
        checks = run_suite("all", cell_cache)
        failed = [c for c in checks if not c.passed]
        assert not failed, failed
        assert all_passed(checks)
        assert len(checks) == 3 + 3 + 6 + 12

    def test_margins_are_positive_on_pass(self, cell_cache):
        for check in run_suite("convexity", cell_cache):
            assert check.passed
            assert check.margin > 0.0

    def test_witness_below_one_fails(self, monkeypatch):
        # the witness certifies convexity only where it exceeds 1
        from quantcap import verify

        real = verify.convexity_witness
        monkeypatch.setattr(
            verify,
            "convexity_witness",
            lambda y: np.full(np.shape(y), 0.5) if np.ndim(y) else real(y),
        )
        checks = {c.name: c for c in run_suite("convexity")}
        tail = checks["witness above 1 on [2, 60]"]
        assert not tail.passed
        assert tail.margin == pytest.approx(-0.5, abs=1e-15)
        assert all(c.passed for name, c in checks.items() if name != tail.name)

    def test_bound_below_rate_fails(self, monkeypatch, cell_cache):
        # the certificate carries its own rounding allowance, so a bound
        # below the rate fails by however little
        from quantcap import verify

        def bound(db, cache=None):
            return tables.table_i_mutual_information(db, cache).capacity - 5e-10

        monkeypatch.setattr(verify, "table_i_upper_bound", bound)
        checks = run_suite("sandwich", cell_cache)
        assert len(checks) == 6
        assert not any(c.passed for c in checks)
        assert all(c.margin == pytest.approx(-5e-10, rel=1e-5) for c in checks)

    def test_cardinality_reads_table_i_solves_from_the_cache(self, monkeypatch, cell_cache):
        # with Table I's solves cached, only the six sign-quantizer cases solve
        from quantcap import verify

        for db in REFERENCE_TABLES["I"].columns:
            tables.table_i_mutual_information(db, cell_cache)
        solved = []
        real = verify.optimize_input_cutting_plane

        def counted(spec, **kwargs):
            solved.append(spec.quantizer.thresholds)
            return real(spec, **kwargs)

        for module in (verify, tables):
            monkeypatch.setattr(module, "optimize_input_cutting_plane", counted)
        checks = run_suite("cardinality", cell_cache)
        assert all(c.passed for c in checks)
        assert solved == [(0.0,)] * 6

    def test_single_suite_selection(self, cell_cache):
        names = {c.name for c in run_suite("cardinality", cell_cache)}
        assert len(names) == 12
        assert all("support size" in n for n in names)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_check_result_is_frozen(self):
        check = CheckResult("x", 1.0)
        with pytest.raises(AttributeError):
            check.passed = False
