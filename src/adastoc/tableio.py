"""Deterministic CSV output.

All experiment commands write through these helpers so that identical inputs
produce byte-identical files: floats are rendered in full-precision scientific
notation, integers verbatim, booleans as 0/1.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Iterable, Sequence


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17e")
    return str(value)


def format_row(cells: Sequence) -> str:
    return ",".join(format_cell(c) for c in cells)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    _write_lines(path, header, map(format_row, rows))


def write_formatted_csv(
    path: str | Path, header: Sequence[str], row_format: str, rows: Iterable[tuple]
) -> None:
    """write_csv for rows of fixed cell types, each row formatted by one `%` format string.

    row_format holds one %d, %.17e or %s per cell, which print as format_cell
    does: %d prints ints of any size and bools as 1/0, %.17e prints floats
    including nan, inf, -inf, -0.0 and subnormals, and %s takes a cell the
    caller formatted already with format_cell, so a value that repeats
    down a column is formatted once.  A row must be a tuple.
    """
    _write_lines(path, header, map(row_format.__mod__, rows))


_CHUNK_LINES = 1 << 14


def _write_lines(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header and the lines, each newline-terminated, joining _CHUNK_LINES lines at a time.

    lines may be a generator: at most one chunk of it is held as text, so a
    file of any length is written in bounded memory.
    """
    lines = iter(lines)
    with open(path, "w") as fh:
        fh.write(",".join(header))
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            fh.write("\n")
            fh.write("\n".join(chunk))
        fh.write("\n")
