"""The CSV row formatting that cli._emit replaced: one cell at a time.

Ints (bools included) go through str, floats through format_float, and
everything else through str; the cells of a row are joined by commas.
cli._emit now takes one %-format from the table's first row, repeats it
once per row and applies it once to all the table's cells flattened. It
must reproduce this text byte for byte on any table whose columns each
hold one cell type, and raise TypeError on a row whose width differs from
the first row's, as the per-row format did, even where the widths of two
ragged rows cancel out.
"""
from __future__ import annotations

from dasqos.config import format_float


def _format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def emit_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
