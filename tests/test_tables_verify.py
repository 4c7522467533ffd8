"""Tests for the comparison-table builders and the self-check suites.  Numerical agreement with the published cells is asserted
end-to-end in test_acceptance.py; here the focus is structure, caching, and
the invariant suites themselves."""

import math

import numpy as np
import pytest

from quantcap.optimize import onebit_capacity
from quantcap.quantopt import unquantized_capacity
from quantcap.reference import REFERENCE_TABLES
from quantcap.tables import (
    build_table,
    capacity_and_gamma,
    run_sweep,
    sweep_cell,
    three_bit_cell,
    two_bit_cell,
)
from quantcap.verify import CheckResult, all_passed, run_suite


class TestCells:
    def test_cells_are_cached(self, cell_cache):
        first = two_bit_cell(0.0, cell_cache)
        again = two_bit_cell(0.0, cell_cache)
        assert again is first
        assert ("2bit", 0.0) in cell_cache

    def test_three_bit_cell_dominates_two_bit(self, cell_cache):
        two = two_bit_cell(0.0, cell_cache).capacity_result.capacity
        three = three_bit_cell(0.0, cell_cache).capacity_result.capacity
        assert three >= two - 1e-9

    def test_sweep_cell_closed_forms(self):
        assert sweep_cell(1, 0.0) == pytest.approx(onebit_capacity(1.0), rel=1e-12)
        assert sweep_cell("inf", 10.0) == pytest.approx(
            unquantized_capacity(10.0), rel=1e-12
        )
        with pytest.raises(ValueError):
            sweep_cell(4, 0.0)

    def test_run_sweep_preserves_order(self):
        records = run_sweep([1, "inf"], [0.0, 10.0])
        assert [(p, db) for p, db, _ in records] == [
            (1, 0.0),
            (1, 10.0),
            ("inf", 0.0),
            ("inf", 10.0),
        ]
        for p, db, cap in records:
            assert cap == pytest.approx(sweep_cell(p, db), rel=1e-12)


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
        assert table.columns == ref.columns
        assert [label for label, _ in table.computed] == [label for label, _ in ref.rows]
        assert table.reference == ref.rows

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
        for label, cell in (("2-bit", two_bit_cell), ("3-bit", three_bit_cell)):
            for target, db in zip(table.columns, rows[label]):
                if db is None:
                    continue
                res = cell(db, cell_cache).capacity_result
                per_db = res.gamma * 10.0 ** (db / 10.0) * np.log(10.0) / 10.0
                assert abs(res.capacity - target) <= 0.005 * per_db, (label, target)

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

    def test_single_suite_selection(self, cell_cache):
        names = {c.name for c in run_suite("cardinality", cell_cache)}
        assert len(names) == 12
        assert all("support size" in n for n in names)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_check_result_is_frozen(self):
        check = CheckResult("x", True, 1.0)
        with pytest.raises(AttributeError):
            check.passed = False
