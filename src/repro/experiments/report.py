"""Tabular output for the figure drivers: aligned ASCII and CSV."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["FigureResult", "format_table"]


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render dict rows as an aligned text table (figure series as rows)."""
    if not rows:
        return "(no data)\n"
    columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    rendered = []
    for row in rows:
        r = {c: str(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(r[c]))
        rendered.append(r)
    out = io.StringIO()
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for r in rendered:
        out.write("  ".join(r[c].ljust(widths[c]) for c in columns) + "\n")
    return out.getvalue()


@dataclass
class FigureResult:
    """Everything a figure driver produced: rows plus free-form notes."""

    figure: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"=== {self.figure}: {self.title} ===\n")
        out.write(format_table(self.rows))
        for note in self.notes:
            out.write(f"note: {note}\n")
        return out.getvalue()

    def to_csv(self, path: str) -> None:
        if not self.rows:
            raise ValueError("no rows to write")
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(self.rows[0].keys()))
            writer.writeheader()
            writer.writerows(self.rows)

    def series(self, heuristic: str, y: str = "moves") -> List[tuple]:
        """Extract one heuristic's ``(x, y)`` series from the rows."""
        return [
            (row["x"], row[y])
            for row in self.rows
            if row.get("heuristic") == heuristic
        ]
