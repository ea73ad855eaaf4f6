"""Plain-text artifact I/O: one writer and one reader per line grammar.

Year-keyed rows `year,c1,...,cn` hold W_, F_, M_, C_ and labels_: they are
tagged rows whose tag is the year, and `scatter` places them on a dense array
over given index tuples. Labelled dense matrices hold B_ and P_: an optional
`# key=value ...` meta line, a `field,f1,...,fn` header, then one row per
field in header order. The assist sidecar's tagged rows share the row reader.
Each reader raises the ValueError subclass its caller passes. Output tables
that no stage reads back (summaries, stats, dynamics) are rows of Python
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
    prefix = f"{year},"
    return "".join(prefix + ",".join(row) + "\n" for row in rows)


def year_rows_from_text(
    text: str, width: int, *, year: int | None = None, error=ValueError
) -> tuple[int, list[list[str]]]:
    """Rows of `width` cells after one year: `year`, or else the first row's."""
    if year is None:
        first = next(filter(str.strip, text.splitlines()), "")
        try:
            year = int(first.split(",")[0])
        except ValueError:
            raise error(f"no year at the start of {first!r}") from None
    return year, tagged_rows(text, {str(year): width}, error)[str(year)]


def scatter(rows: Sequence[Sequence[str]], axes, values, dtype, error=ValueError) -> np.ndarray:
    """Zeros over the index tuples `axes`, and `values` where cell a of a row keys axis a."""
    cells = []
    for a, axis in enumerate(axes):
        index = {key: i for i, key in enumerate(axis)}
        try:
            cells.append([index[row[a]] for row in rows])
        except KeyError as exc:
            raise error(f"unknown key {exc.args[0]!r}") from None
    out = np.zeros([len(axis) for axis in axes], dtype=dtype)
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
        if label != code or len(cells) != len(fields):
            raise error(f"row {label!r} of {len(cells)} cells where {code!r} is expected")
        values.append(list(map(cast, cells)))
    return meta, fields, np.array(values, dtype=cast).reshape(len(fields), len(fields))
