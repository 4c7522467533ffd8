"""Report plumbing: run manifests, CSV / JSON-lines writers, and the
rendering of a computed table beside its published one, whose layout
`reference.py` holds.

Machine formats carry full float precision (16 significant digits); the
human rendering rounds to 4 decimals to match the published tables.  Every
file embeds the manifest that produced it — as a leading ``# manifest:``
comment in CSV and as a header object in JSON-lines — so a report is always
traceable to its exact invocation.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .reference import ReferenceTable

INFEASIBLE = "-"


def _timestamp() -> str:
    """ISO timestamp honoring SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


@dataclass(frozen=True)
class RunManifest:
    """Resolved invocation record embedded into every report file; the
    package version, the Python, numpy and scipy versions and the timestamp
    are stamped when it is written."""

    command: str
    parameters: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "version": __version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": _timestamp(),
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def format_value(value) -> str:
    """Machine cell format: full-precision float, infeasible marker, or text."""
    if value is None:
        return INFEASIBLE
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def write_csv(stream, header, rows, manifest: RunManifest) -> None:
    """CSV with RFC-4180 quoting and the manifest as a leading comment line."""
    stream.write(f"# manifest: {manifest.to_json()}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])


def write_jsonl(stream, header, rows, manifest: RunManifest) -> None:
    """JSON-lines with the manifest as the header object."""
    stream.write(json.dumps({"manifest": json.loads(manifest.to_json())}, sort_keys=True))
    stream.write("\n")
    for row in rows:
        stream.write(json.dumps(dict(zip(header, row)), sort_keys=True))
        stream.write("\n")


def render_report(header, rows, fmt: str, manifest: RunManifest) -> str:
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    buf = io.StringIO()
    if fmt == "csv":
        write_csv(buf, header, rows, manifest)
    else:
        write_jsonl(buf, header, rows, manifest)
    return buf.getvalue()


@dataclass(frozen=True)
class ReportTable:
    """A published table beside its computed cells.

    `reference`, from `reference.py`, is the table's layout (columns, row
    labels, row order) and its published rows; `computed` holds one
    (row_label, cells) row per reference row, under the same label and in
    the same order.  Each label gets three provenance-tagged variants
    (``computed`` / ``reference`` / ``deviation``); infeasible cells hold
    None.
    """

    reference: ReferenceTable
    computed: tuple  # of (row_label, cells)

    def __post_init__(self):
        shape = [(label, len(cells)) for label, cells in self.computed]
        expected = [(label, len(self.reference.columns)) for label, _ in self.reference.rows]
        if shape != expected:
            raise ValueError(
                f"table {self.reference.name}: computed rows {shape} do not match "
                f"the reference layout {expected}"
            )

    def deviations(self) -> tuple:
        """Absolute computed-vs-reference deviation per row."""
        return tuple(
            (
                label,
                tuple(
                    abs(c - r) if (c is not None and r is not None) else None
                    for c, r in zip(cells, published)
                ),
            )
            for (label, cells), (_, published) in zip(self.computed, self.reference.rows)
        )

    def max_deviation(self) -> float:
        worst = 0.0
        for _, devs in self.deviations():
            for d in devs:
                if d is not None and d > worst:
                    worst = d
        return worst

    def machine_rows(self):
        """Long-form rows: (row_label, provenance, column value, cell)."""
        blocks = (
            ("computed", self.computed),
            ("reference", self.reference.rows),
            ("deviation", self.deviations()),
        )
        for provenance, block in blocks:
            for label, cells in block:
                for col, cell in zip(self.reference.columns, cells):
                    yield (label, provenance, col, cell)

    def to_human(self) -> str:
        """4-decimal aligned text: computed, reference, and deviation rows."""
        ref = self.reference
        suffixes = ("", " (reference)", " (deviation)")
        width = len(suffixes[1]) + max((len(label) for label, _ in ref.rows), default=0)
        cols = [f"{c:g}" for c in ref.columns]
        cell_w = max([8] + [len(c) for c in cols])
        lines = [
            f"table {ref.name}  ({ref.column_label})",
            " " * width + "  " + "  ".join(f"{c:>{cell_w}}" for c in cols),
        ]
        for variants in zip(self.computed, ref.rows, self.deviations()):
            for suffix, (label, cells) in zip(suffixes, variants):
                lines.append(self._human_row(label + suffix, cells, width, cell_w))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _human_row(label, cells, width, cell_w):
        rendered = [
            INFEASIBLE if v is None else f"{v:.4f}" for v in cells
        ]
        return f"{label:<{width}}  " + "  ".join(f"{v:>{cell_w}}" for v in rendered)
