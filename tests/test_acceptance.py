"""Acceptance gate: computed table cells against the published values.

Covers the joint 2-bit cells, the Table II "2-bit optimal" row and the
Table IV "2-bit" row.  A cell passes only when it is within 2e-3 bits of the
published value AND within 2% of it.  The relative part matters at low SNR,
where every capacity is small: a threshold scan that stops at 4 sqrt(P)
returns 0.005748 at -20 dB against a published 0.0063, which the absolute
tolerance alone would accept.  The largest absolute deviation left, 1.6e-3
at the column labelled 7 dB, comes from the published column being computed
at linear SNR 5 (6.99 dB); the cell at 10^0.7 is still within the gate.
"""

import pytest

from quantcap.reference import REFERENCE_TABLES
from quantcap.tables import two_bit_cell

ABS_TOL = 2e-3
REL_TOL = 0.02


def _within_gate(ours, published):
    dev = abs(ours - published)
    return dev <= ABS_TOL and dev <= REL_TOL * abs(published)


def _cells(table, row):
    ref = REFERENCE_TABLES[table]
    return [
        pytest.param(db, published, id=f"{table}-{db:g}dB")
        for db, published in zip(ref.columns, ref.row(row))
    ]


def test_gate_rejects_edge_of_scan_value():
    assert not _within_gate(0.005748, 0.0063)
    assert _within_gate(0.006341, 0.0063)


@pytest.mark.parametrize(
    "snr_db, published",
    _cells("II", "2-bit optimal") + _cells("IV", "2-bit"),
)
def test_two_bit_optimal_cell(snr_db, published, cell_cache):
    ours = two_bit_cell(snr_db, cell_cache).capacity_result.capacity
    assert _within_gate(ours, published), (
        f"{snr_db:g} dB: ours {ours:.6f}, published {published}"
    )
