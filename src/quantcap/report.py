"""Report plumbing: run manifests, CSV / JSON-lines writers, table rendering.

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
import time
from dataclasses import dataclass

from . import __version__

INFEASIBLE = "-"


def _timestamp() -> str:
    """ISO timestamp honoring SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch is not None else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


@dataclass(frozen=True)
class RunManifest:
    """Resolved invocation record embedded into every report file; the
    package version and the timestamp are stamped when it is written."""

    command: str
    parameters: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "version": __version__,
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
    """A rectangular comparison grid: computed rows beside reference rows.

    Each logical row label appears with provenance-tagged variants
    (``computed`` / ``reference`` / ``deviation``); infeasible cells hold
    None.  `column_label` names the column axis (SNR in dB or target rate).
    """

    name: str
    column_label: str
    columns: tuple
    computed: tuple  # of (row_label, cells)
    reference: tuple  # of (row_label, cells)

    def __post_init__(self):
        for label, cells in self.computed + self.reference:
            if len(cells) != len(self.columns):
                raise ValueError(
                    f"row {label!r} has {len(cells)} cells for "
                    f"{len(self.columns)} columns"
                )

    def deviations(self) -> tuple:
        """Absolute computed-vs-reference deviation per shared row label."""
        ref = dict(self.reference)
        out = []
        for label, cells in self.computed:
            if label not in ref:
                continue
            devs = tuple(
                abs(c - r) if (c is not None and r is not None) else None
                for c, r in zip(cells, ref[label])
            )
            out.append((label, devs))
        return tuple(out)

    def max_deviation(self) -> float:
        worst = 0.0
        for _, devs in self.deviations():
            for d in devs:
                if d is not None and d > worst:
                    worst = d
        return worst

    def machine_rows(self):
        """Long-form rows: (row_label, provenance, column value, cell)."""
        for provenance, block in (("computed", self.computed), ("reference", self.reference)):
            for label, cells in block:
                for col, cell in zip(self.columns, cells):
                    yield (label, provenance, col, cell)
        for label, devs in self.deviations():
            for col, cell in zip(self.columns, devs):
                yield (label, "deviation", col, cell)

    def to_human(self) -> str:
        """4-decimal aligned text: computed, reference, and deviation rows."""
        width = max(
            [len(str(label)) + len(" (reference)") for label, _ in self.computed + self.reference]
            + [12]
        )
        cols = [f"{c:g}" for c in self.columns]
        cell_w = max([8] + [len(c) for c in cols])
        lines = [
            f"table {self.name}  ({self.column_label})",
            " " * width + "  " + "  ".join(f"{c:>{cell_w}}" for c in cols),
        ]
        ref = dict(self.reference)
        devs = dict(self.deviations())
        for label, cells in self.computed:
            lines.append(self._human_row(f"{label}", cells, width, cell_w))
            if label in ref:
                lines.append(
                    self._human_row(f"{label} (reference)", ref[label], width, cell_w)
                )
                lines.append(
                    self._human_row(f"{label} (deviation)", devs[label], width, cell_w)
                )
        for label, cells in self.reference:
            if label not in dict(self.computed):
                lines.append(self._human_row(f"{label} (reference)", cells, width, cell_w))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _human_row(label, cells, width, cell_w):
        rendered = [
            INFEASIBLE if v is None else f"{v:.4f}" for v in cells
        ]
        return f"{label:<{width}}  " + "  ".join(f"{v:>{cell_w}}" for v in rendered)
