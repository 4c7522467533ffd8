"""Builders for the five benchmark comparison tables.

Every builder computes its cells from scratch (reference values are attached
for deviation reporting only) and accepts a shared cache dict so that
overlapping tables reuse each other's optimizer runs: the joint 2- and 3-bit
cells of the cross-precision grid, and those that Table V's Newton solves
evaluate on their way to each target rate.
"""

from __future__ import annotations

import math

from .channel import ChannelSpec, Quantizer
from .optimize import duality_upper_bound, onebit_capacity, optimize_input_cutting_plane
from .quantopt import (
    benchmark_mutual_information,
    optimize_quantizer_2bit,
    optimize_quantizer_3bit_iterative,
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


def two_bit_cell(snr_db: float, cache=None):
    """Joint-optimal symmetric 2-bit result at one SNR, rounded to 1e-6 dB (cached)."""
    db = round(snr_db, 6)
    return _cached(cache, ("2bit", db), lambda: optimize_quantizer_2bit(_snr(db)))


def three_bit_cell(snr_db: float, cache=None):
    """Iteratively optimized 3-bit result at one SNR, rounded to 1e-6 dB (cached)."""
    db = round(snr_db, 6)
    return _cached(
        cache, ("3bit", db), lambda: optimize_quantizer_3bit_iterative(_snr(db))
    )


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
        cell = two_bit_cell if precision == 2 else three_bit_cell
        result = cell(snr_db, cache).capacity_result
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


def build_table_i(cache=None) -> ReportTable:
    ref = REFERENCE_TABLES["I"]
    cols = ref.columns
    ub = tuple(table_i_upper_bound(db, cache) for db in cols)
    mi = tuple(table_i_mutual_information(db, cache).capacity for db in cols)
    return ReportTable(
        name="I",
        column_label=ref.column_label,
        columns=cols,
        computed=(("Upper bound", ub), ("Mutual information", mi)),
        reference=ref.rows,
    )


def build_table_ii(cache=None) -> ReportTable:
    ref = REFERENCE_TABLES["II"]
    cols = ref.columns
    onebit = tuple(onebit_capacity(_snr(db)) for db in cols)
    opt = tuple(two_bit_cell(db, cache).capacity_result.capacity for db in cols)
    bench = tuple(benchmark_mutual_information(4, _snr(db)) for db in cols)
    return ReportTable(
        name="II",
        column_label=ref.column_label,
        columns=cols,
        computed=(
            ("1-bit", onebit),
            ("2-bit optimal", opt),
            ("2-bit benchmark", bench),
        ),
        reference=ref.rows,
    )


def build_table_iii(cache=None) -> ReportTable:
    ref = REFERENCE_TABLES["III"]
    cols = ref.columns
    opt = tuple(three_bit_cell(db, cache).capacity_result.capacity for db in cols)
    bench = tuple(benchmark_mutual_information(8, _snr(db)) for db in cols)
    return ReportTable(
        name="III",
        column_label=ref.column_label,
        columns=cols,
        computed=(("3-bit optimal", opt), ("3-bit benchmark", bench)),
        reference=ref.rows,
    )


def build_table_iv(cache=None) -> ReportTable:
    ref = REFERENCE_TABLES["IV"]
    cols = ref.columns
    rows = (
        ("1-bit", tuple(onebit_capacity(_snr(db)) for db in cols)),
        ("2-bit", tuple(two_bit_cell(db, cache).capacity_result.capacity for db in cols)),
        ("3-bit", tuple(three_bit_cell(db, cache).capacity_result.capacity for db in cols)),
        ("Unquantized", tuple(unquantized_capacity(_snr(db)) for db in cols)),
    )
    return ReportTable(
        name="IV",
        column_label=ref.column_label,
        columns=cols,
        computed=rows,
        reference=ref.rows,
    )


def build_table_v(cache=None) -> ReportTable:
    """SNR per target rate, one bracketed Newton solve per cell (see
    `snr_for_spectral_efficiency`); log2 of the bin count is each quantized
    row's unattainable ceiling."""
    ref = REFERENCE_TABLES["V"]
    targets = ref.columns
    rows = []
    for label, precision, supremum in (
        ("1-bit", 1, 1.0),
        ("2-bit", 2, 2.0),
        ("3-bit", 3, 3.0),
        ("Unquantized", "inf", None),
    ):

        def curve(snr_db, precision=precision):
            return capacity_and_gamma(precision, snr_db, cache)

        rows.append(
            (label, tuple(snr_for_spectral_efficiency(t, curve, supremum) for t in targets))
        )
    return ReportTable(
        name="V",
        column_label=ref.column_label,
        columns=targets,
        computed=tuple(rows),
        reference=ref.rows,
    )


_BUILDERS = {
    "I": build_table_i,
    "II": build_table_ii,
    "III": build_table_iii,
    "IV": build_table_iv,
    "V": build_table_v,
}


def build_table(name: str, cache=None) -> ReportTable:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown table {name!r}; expected one of {sorted(_BUILDERS)}"
        ) from None
    return builder(cache)


def sweep_cell(precision, snr_db: float) -> float:
    """One uncached (precision, SNR) capacity cell."""
    return capacity_and_gamma(precision, snr_db)[0]


def run_sweep(precisions, snr_dbs):
    """Capacity cells for every (precision, SNR) pair, in input order."""
    return [(p, db, sweep_cell(p, db)) for p in precisions for db in snr_dbs]
