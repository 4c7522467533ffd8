"""The five benchmark tables as published: their layout and their values.

This module is the one statement of each table's layout: its columns (the
SNRs, or target rates, that `tables.build_table` computes each cell at), its
row labels and its row order.  The published cell values are kept for
deviation reporting only; no computation reads them.  `None` marks a cell
published as infeasible ("-").

Known wart, preserved as published: the 1-bit cell of table II at 15 dB reads
0.9974, while the closed form (and table IV) give 0.9999; deviation reports
for that cell therefore show ~2.6e-3 against a correct computation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReferenceTable:
    """One published table: column axis plus labelled rows of cells, each
    row as long as the column axis."""

    name: str
    column_label: str
    columns: tuple
    rows: tuple  # of (row_label, cell tuple)

    def __post_init__(self):
        for label, cells in self.rows:
            if len(cells) != len(self.columns):
                raise ValueError(
                    f"table {self.name} row {label!r} has {len(cells)} cells, "
                    f"expected {len(self.columns)}"
                )


TABLE_I = ReferenceTable(
    name="I",
    column_label="snr_db",
    columns=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    rows=(
        ("Upper bound", (0.1631, 0.4055, 0.8669, 1.3859, 1.5127, 1.5146)),
        ("Mutual information", (0.1547, 0.4046, 0.8668, 1.3792, 1.4838, 1.4839)),
    ),
)

TABLE_II = ReferenceTable(
    name="II",
    column_label="snr_db",
    columns=(-20.0, -10.0, -5.0, 0.0, 3.0, 7.0, 10.0, 15.0),
    rows=(
        ("1-bit", (0.0046, 0.0449, 0.1353, 0.3689, 0.6026, 0.9020, 0.9908, 0.9974)),
        ("2-bit optimal", (0.0063, 0.0613, 0.1792, 0.4552, 0.6932, 1.0981, 1.4731, 1.9304)),
        ("2-bit benchmark", (0.0049, 0.0527, 0.1658, 0.4401, 0.6868, 1.0639, 1.4086, 1.9211)),
    ),
)

TABLE_III = ReferenceTable(
    name="III",
    column_label="snr_db",
    columns=(-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    rows=(
        ("3-bit optimal", (0.0069, 0.0667, 0.1926, 0.4817, 0.9753, 1.5844, 2.2538, 2.8367)),
        ("3-bit benchmark", (0.0050, 0.0557, 0.1768, 0.4707, 0.9547, 1.5332, 2.1384, 2.8084)),
    ),
)

TABLE_IV = ReferenceTable(
    name="IV",
    column_label="snr_db",
    columns=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    rows=(
        ("1-bit", (0.0449, 0.1353, 0.3689, 0.7684, 0.9908, 0.9999, 0.9999)),
        ("2-bit", (0.0613, 0.1792, 0.4552, 0.8889, 1.4731, 1.9304, 1.9997)),
        ("3-bit", (0.0667, 0.1926, 0.4817, 0.9753, 1.5844, 2.2538, 2.8367)),
        ("Unquantized", (0.0688, 0.1982, 0.5000, 1.0286, 1.7297, 2.5138, 3.3291)),
    ),
)

TABLE_V = ReferenceTable(
    name="V",
    column_label="spectral_efficiency",
    columns=(0.25, 0.5, 1.0, 1.73, 2.5),
    rows=(
        ("1-bit", (-2.04, 1.79, None, None, None)),
        ("2-bit", (-3.32, 0.59, 6.13, 12.30, None)),
        ("3-bit", (-3.67, 0.23, 5.19, 11.04, 16.90)),
        ("Unquantized", (-3.83, 0.00, 4.77, 10.00, 14.91)),
    ),
)

REFERENCE_TABLES = {t.name: t for t in (TABLE_I, TABLE_II, TABLE_III, TABLE_IV, TABLE_V)}
