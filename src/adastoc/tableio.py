"""Deterministic CSV output.

All experiment commands write through these helpers so that identical inputs
produce byte-identical files: floats are rendered in full-precision scientific
notation, integers verbatim, booleans as 0/1.  `write_lines` writes every
file; `write_csv` hands it rows whose cells `format_cell` prints.
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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    write_lines(path, header, (",".join(map(format_cell, row)) for row in rows))


_CHUNK_LINES = 1 << 14


def write_lines(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header and the lines, each newline-terminated, joining _CHUNK_LINES lines at a time.

    lines may be a generator: at most one chunk of it is held as text, so a
    file of any length is written in bounded memory.  A caller that formats
    its own lines prints each cell as format_cell does: `%d` prints ints of
    any size and bools as 1/0, and `%.17e` prints floats including nan,
    inf, -inf, -0.0 and subnormals.
    """
    lines = iter(lines)
    with open(path, "w") as fh:
        fh.write(",".join(header))
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            fh.write("\n")
            fh.write("\n".join(chunk))
        fh.write("\n")
