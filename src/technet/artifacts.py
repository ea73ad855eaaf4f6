"""Plain-text artifact I/O: one writer and one reader per line grammar.

Year-keyed rows `year,c1,...,cn` hold W_, F_, M_, C_ and labels_: they are
tagged rows whose tag is the year. They are written by joining whole rows and
read as n cell columns from one join and split of the text's lines, once a
check on that split shows every line to be the year and n cells; on a mismatch
the tagged-row reader names the first bad row. `scatter` places key columns on
a dense array over given index tuples. Labelled dense matrices hold B_ and P_:
an optional `# key=value ...` meta line, a `field,f1,...,fn` header, then one
row per field in header order. The assist sidecar's tagged rows share the row
reader. Each reader raises the ValueError subclass its caller passes. Output
tables that no stage reads back (summaries, stats, dynamics) are rows of Python
scalars written by `rows_to_text` under its one cell rule.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_text(rows: Iterable[Iterable]) -> str:
    """Comma-joined rows of Python scalars: None empty, bools true/false, floats by repr."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def tagged_rows(text: str, widths: Mapping[str, int], error=ValueError) -> dict[str, list]:
    """The non-blank rows `tag,c1,...,cn` by tag, without it; n is widths[tag]."""
    groups: dict[str, list] = {tag: [] for tag in widths}
    for line in filter(str.strip, text.splitlines()):
        cells = line.split(",")
        tag = cells.pop(0)
        if len(cells) != widths.get(tag):
            raise error(f"row {line!r}: expected a key of {list(widths)} and its cells")
        groups[tag].append(cells)
    return groups


def year_rows_to_text(year: int, rows: Iterable[Sequence[str]]) -> str:
    lines = list(map(",".join, rows))
    prefix = f"{year},"
    return prefix + ("\n" + prefix).join(lines) + "\n" if lines else ""


def year_rows_from_text(
    text: str, width: int, *, year: int | None = None, error=ValueError
) -> tuple[int, list[list[str]]]:
    """The year, `year` or else the first row's, and the `width` cell columns after it."""
    lines = list(filter(str.strip, text.splitlines()))
    if year is None:
        first = lines[0] if lines else ""
        try:
            year = int(first.split(",")[0])
        except ValueError:
            raise error(f"no year at the start of {first!r}") from None
    tag, stride = str(year), width + 1
    # Joined by ",\n", a line's first cell is the only one to start with "\n". When the
    # n - 1 such cells after the first line all sit at multiples of the stride and
    # read the tag, every line is the tag and `width` cells.
    cells = ",\n".join(lines).split(",") if lines else []
    if len(cells) != stride * len(lines) or (
        lines and (cells[0] != tag or cells[stride::stride].count("\n" + tag) != len(lines) - 1)
    ):
        tagged_rows(text, {tag: width}, error)  # raises for the first row that is not
    return year, [cells[k::stride] for k in range(1, stride)]


def scatter(columns: Sequence[Sequence[str]], axes, values, dtype, error=ValueError) -> np.ndarray:
    """Zeros over the index tuples `axes`, and `values` where row r of column a keys axis a.

    Two rows with the same keys are an error, not a cell that the last one wins.
    """
    cells = []
    for column, axis in zip(columns, axes):
        index = dict(zip(axis, range(len(axis))))
        try:
            cells.append(np.fromiter(map(index.__getitem__, column), np.intp, len(column)))
        except KeyError as exc:
            raise error(f"unknown key {exc.args[0]!r}") from None
    out = np.zeros([len(axis) for axis in axes], dtype=dtype)
    flat = np.ravel_multi_index(cells, out.shape)
    n_duplicates = flat.size - np.unique(flat).size
    if n_duplicates:
        raise error(f"{n_duplicates} of {flat.size} rows repeat an earlier row's keys")
    out[tuple(cells)] = values
    return out


def dense_to_text(fields: Sequence[str], values: np.ndarray, meta: Mapping | None = None) -> str:
    """A labelled dense matrix; each cell is the repr of its Python value."""
    lines = [] if meta is None else ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(("field", *fields)))
    lines.extend(",".join((code, *map(repr, row))) for code, row in zip(fields, values.tolist()))
    return "\n".join(lines) + "\n"


def dense_from_text(text: str, cast, error=ValueError) -> tuple[dict, tuple[str, ...], np.ndarray]:
    """The meta items, fields and values of a dense matrix; `cast` is float or int."""
    lines = list(filter(str.strip, text.splitlines()))
    meta = {}
    if lines and lines[0].startswith("#"):
        meta = dict(item.partition("=")[::2] for item in lines.pop(0)[1:].split())
    header = lines.pop(0).split(",") if lines else [""]
    fields = tuple(header[1:])
    if header[0] != "field" or len(lines) != len(fields):
        raise error(f"expected a 'field,...' header and one row per field, got {len(lines)}")
    values = []
    for code, line in zip(fields, lines):
        label, *cells = line.split(",")
        try:
            if label != code or len(cells) != len(fields):
                raise ValueError(f"{len(cells)} cells where {code!r} is expected")
            values.append(list(map(cast, cells)))
        except ValueError as exc:
            raise error(f"row {label!r}: {exc}") from None
    return meta, fields, np.array(values, dtype=cast).reshape(len(fields), len(fields))
