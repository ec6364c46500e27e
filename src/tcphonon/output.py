"""Deterministic CSV / JSON table emission for scans and reports.

CSV: leading '# key = value' metadata comments (sorted), one header row,
17-significant-digit values, no locale dependence.  JSON: metadata record
plus columns as named arrays, sorted keys.  Re-running the same command
reproduces the output byte for byte (no timestamps, fixed seed).
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

__all__ = ["format_table", "write_table"]


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def format_table(header: Sequence[str], rows: Sequence[Sequence], metadata: dict, fmt: str) -> str:
    """Render a table as a CSV or JSON document string."""
    if fmt == "csv":
        lines = [f"# {key} = {_fmt_cell(metadata[key])}" for key in sorted(metadata)]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        return json.dumps({"metadata": metadata, "columns": columns}, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")


def write_table(
    path: str | None,
    header: Sequence[str],
    rows: Sequence[Sequence],
    metadata: dict,
    fmt: str,
) -> None:
    """Write the rendered table to a file, or to stdout when path is None/'-'."""
    _write_text(path, format_table(header, rows, metadata, fmt))


def _write_text(path: str | None, text: str) -> None:
    """Write text to a file, or to stdout when path is None/'-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
