"""The five benchmark comparison tables, computed cell by cell.

`reference.py` holds each table's layout, its columns and its labelled rows;
this module holds only the cell function of each row.  Every cell is
computed from scratch (the published values are attached for deviation
reporting only), and `build_table` accepts a shared cache dict so
that overlapping tables reuse each other's optimizer runs: the joint 2- and
3-bit cells of the cross-precision grid, and those that Table V's Newton
solves evaluate on their way to each target rate.
"""

from __future__ import annotations

import math

from .channel import ChannelSpec, Quantizer
from .optimize import duality_upper_bound, onebit_capacity, optimize_input_cutting_plane
from .quantopt import (
    benchmark_mutual_information,
    optimize_quantizer,
    snr_for_spectral_efficiency,
    unquantized_capacity,
)
from .reference import REFERENCE_TABLES
from .report import ReportTable
from .special import gaussian_q

TABLE_I_QUANTIZER = Quantizer((-2.0, 0.0, 2.0))


def _snr(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _cached(cache, key, compute):
    if cache is None:
        return compute()
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def joint_cell(bits: int, snr_db: float, cache=None):
    """`quantopt.optimize_quantizer`'s joint 2- or 3-bit result at one SNR,
    rounded to 1e-6 dB (cached under ("2bit", db) or ("3bit", db))."""
    db = round(snr_db, 6)
    return _cached(cache, (f"{bits}bit", db), lambda: optimize_quantizer(_snr(db), 2**bits))


def capacity_and_gamma(precision, snr_db: float, cache=None):
    """Capacity in bits and its slope dC/dP in bits per unit power at one SNR.

    `precision` is 1, 2, 3 bits or "inf".  A joint cell's slope is its power
    multiplier gamma* (envelope theorem, see `snr_for_spectral_efficiency`);
    the 1-bit row differentiates 1 - h(q) with q = Q(sqrt P), and the
    unquantized row 0.5 log2(1 + P).
    """
    power = _snr(snr_db)
    if precision == 1:
        root = math.sqrt(power)
        q = gaussian_q(root)
        if q == 0.0:  # above about 31.5 dB; the slope has underflowed too
            return onebit_capacity(power), 0.0
        density = math.exp(-0.5 * power) / math.sqrt(2.0 * math.pi)
        log_odds = math.log2(1.0 - q) - math.log2(q)
        return onebit_capacity(power), log_odds * density / (2.0 * root)
    if precision in (2, 3):
        result = joint_cell(precision, snr_db, cache).capacity_result
        return result.capacity, result.gamma
    if precision == "inf":
        return unquantized_capacity(power), 1.0 / (2.0 * math.log(2.0) * (1.0 + power))
    raise ValueError(f"precision must be 1, 2, 3 or 'inf', got {precision!r}")


def table_i_mutual_information(snr_db: float, cache=None):
    def compute():
        spec = ChannelSpec.from_snr_db(snr_db, TABLE_I_QUANTIZER)
        return optimize_input_cutting_plane(spec)

    return _cached(cache, ("t1mi", round(snr_db, 6)), compute)


def table_i_upper_bound(snr_db: float, cache=None):
    def compute():
        spec = ChannelSpec.from_snr_db(snr_db, TABLE_I_QUANTIZER)
        return duality_upper_bound(spec, table_i_mutual_information(snr_db, cache))[0]

    return _cached(cache, ("t1ub", round(snr_db, 6)), compute)


def _capacity(precision):
    return lambda snr_db, cache: capacity_and_gamma(precision, snr_db, cache)[0]


def _benchmark(bins):
    return lambda snr_db, cache: benchmark_mutual_information(bins, _snr(snr_db))


def _snr_for_rate(precision):
    """SNR for one target rate, one bracketed Newton solve per cell (see
    `snr_for_spectral_efficiency`); log2 of the bin count is each quantized
    row's unattainable ceiling."""
    supremum = None if precision == "inf" else float(precision)

    def cell(target, cache):
        def curve(snr_db):
            return capacity_and_gamma(precision, snr_db, cache)

        return snr_for_spectral_efficiency(target, curve, supremum)

    return cell


_PRECISIONS = (1, 2, 3, "inf")

#: per table, the cell(column, cache) of each row, in `reference.py`'s row order
_ROWS = {
    "I": (
        table_i_upper_bound,
        lambda db, cache: table_i_mutual_information(db, cache).capacity,
    ),
    "II": (_capacity(1), _capacity(2), _benchmark(4)),
    "III": (_capacity(3), _benchmark(8)),
    "IV": tuple(_capacity(p) for p in _PRECISIONS),
    "V": tuple(_snr_for_rate(p) for p in _PRECISIONS),
}


def build_table(name: str, cache=None) -> ReportTable:
    try:
        cells = _ROWS[name]
    except KeyError:
        raise ValueError(f"unknown table {name!r}; expected one of {sorted(_ROWS)}") from None
    ref = REFERENCE_TABLES[name]
    return ReportTable(
        reference=ref,
        computed=tuple(
            (label, tuple(cell(col, cache) for col in ref.columns))
            for (label, _), cell in zip(ref.rows, cells, strict=True)
        ),
    )
