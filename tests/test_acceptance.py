"""Acceptance gate: computed table cells against the published values.

The joint 2-bit cells, the Table II "2-bit optimal" row and the Table IV
"2-bit" row, pass only when they are within 2e-3 bits of the published value
AND within 2% of it.  The relative part matters at low SNR,
where every capacity is small: a threshold scan that stops at 4 sqrt(P)
returns 0.005748 at -20 dB against a published 0.0063, which the absolute
tolerance alone would accept.  The largest absolute deviation left, 1.6e-3
at the column labelled 7 dB, comes from the published column being computed
at linear SNR 5 (6.99 dB); the cell at 10^0.7 is still within the gate.

The closed-form rows, the Table I bound and Table V are each gated in the
direction of their documented deviation.  The 3-bit rows are not gated: the
joint 3-bit search ends in local optima at 12-20 dB.
"""

import math

import pytest

from quantcap.optimize import onebit_capacity
from quantcap.quantopt import benchmark_mutual_information, optimize_quantizer_2bit
from quantcap.reference import REFERENCE_TABLES
from quantcap.tables import (
    build_table,
    joint_cell,
    table_i_mutual_information,
    table_i_upper_bound,
)

ABS_TOL = 2e-3
REL_TOL = 0.02


def _within_gate(ours, published):
    dev = abs(ours - published)
    return dev <= ABS_TOL and dev <= REL_TOL * abs(published)


def _cells(table, row):
    ref = REFERENCE_TABLES[table]
    return [
        pytest.param(db, published, id=f"{table}-{db:g}dB")
        for db, published in zip(ref.columns, dict(ref.rows)[row])
    ]


def test_gate_rejects_edge_of_scan_value():
    assert not _within_gate(0.005748, 0.0063)
    assert _within_gate(0.006341, 0.0063)


@pytest.mark.parametrize(
    "snr_db, published",
    _cells("II", "2-bit optimal") + _cells("IV", "2-bit"),
)
def test_two_bit_optimal_cell(snr_db, published, cell_cache):
    ours = joint_cell(2, snr_db, cell_cache).capacity_result.capacity
    assert _within_gate(ours, published), (
        f"{snr_db:g} dB: ours {ours:.6f}, published {published}"
    )


@pytest.mark.parametrize(
    "snr_db, published",
    zip(REFERENCE_TABLES["I"].columns, dict(REFERENCE_TABLES["I"].rows)["Upper bound"]),
)
def test_table_i_bound_between_mutual_information_and_published(
    snr_db, published, cell_cache
):
    # ours is a certified duality bound for the Table I quantizer, tighter
    # than the published one and above the achieved mutual information
    mi = table_i_mutual_information(snr_db, cell_cache).capacity
    ours = table_i_upper_bound(snr_db, cell_cache)
    assert mi <= ours <= published


@pytest.mark.parametrize("column, snr", [(3.0, 2.0), (7.0, 5.0)])
def test_table_ii_columns_3_and_7_db_are_linear_snr_2_and_5(column, snr):
    ref = REFERENCE_TABLES["II"]
    i = ref.columns.index(column)
    published = dict(ref.rows)
    assert onebit_capacity(snr) == pytest.approx(published["1-bit"][i], abs=5e-5)
    assert benchmark_mutual_information(4, snr) == pytest.approx(
        published["2-bit benchmark"][i], abs=5e-5
    )


def test_table_ii_onebit_15_db_published_value_is_an_error():
    ours = onebit_capacity(10.0**1.5)
    published = dict(REFERENCE_TABLES["II"].rows)["1-bit"][-1]
    # Table IV prints this same closed-form cell as 0.9999; Table II's 0.9974
    # is 2.6e-3 below it
    assert dict(REFERENCE_TABLES["IV"].rows)["1-bit"][5] == 0.9999
    assert 0.9999 <= ours <= 1.0
    assert ours - published > 2e-3


def test_table_v_cells_feasible_or_blank_as_published(cell_cache):
    table = build_table("V", cell_cache)
    for (label, cells), (_, published) in zip(table.computed, table.reference.rows):
        for ours, pub in zip(cells, published):
            assert (ours is None) == (pub is None), label
            assert ours is None or math.isfinite(ours)


def test_table_v_two_bit_one_bit_per_use(cell_cache):
    # published 6.13 dB; the published Tables II and IV, interpolated,
    # already cross 1.0 bit/use near 6.06 dB
    table = build_table("V", cell_cache)
    i = table.reference.columns.index(1.0)
    ours = dict(table.computed)["2-bit"][i]
    assert ours < dict(REFERENCE_TABLES["V"].rows)["2-bit"][i]
    direct = optimize_quantizer_2bit(10.0 ** (ours / 10.0)).capacity_result
    assert abs(direct.capacity - 1.0) <= 1e-3
