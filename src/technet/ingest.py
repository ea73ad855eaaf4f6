"""Event parsing, family weight splitting, and per-year occurrence matrices.

An event is one (family, year, region, code) attribution. Every family active
in a year carries total weight 1, split evenly over its unique (region, field)
combinations for that year, so the occurrence matrix mass equals the number of
active families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import artifacts
from .hierarchy import CodeHierarchy

EVENT_COLUMNS = ("family_id", "year", "region_id", "code")
# Why a line was rejected: too few columns, an empty family or region id, a
# year that is not an integer, one outside the range, an unresolvable code.
REJECTION_KINDS = ("columns", "empty_id", "year_format", "year_range", "unknown_code")


class IngestError(ValueError):
    """Raised on unusable event input (bad header, unknown index, ...)."""


class EventRecord(NamedTuple):
    family_id: str
    year: int
    region_id: str
    code: str


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    reason: str
    kind: str


@dataclass
class ParseResult:
    records: list[EventRecord]
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.issues)

    @property
    def rejected_by_reason(self) -> dict[str, int]:
        """Rejected line count per kind, every kind of REJECTION_KINDS present."""
        counts = Counter(issue.kind for issue in self.issues)
        return {kind: counts[kind] for kind in REJECTION_KINDS}


def parse_events(
    lines: Iterable[str],
    hierarchy: CodeHierarchy,
    granularity: str | int,
    *,
    delimiter: str = ",",
    year_min: int = 1980,
    year_max: int = 2011,
) -> ParseResult:
    """Parse delimiter-separated event lines into deduplicated records.

    The first line must be a header containing the columns family_id, year,
    region_id and code (extra columns are ignored). Codes are resolved to the
    requested granularity; records collapsing to the same (family, year,
    region, code) tuple are kept once, in the order of their first line. Bad
    lines never abort the parse: each yields a ParseIssue carrying its 1-based
    line number and its kind, one of REJECTION_KINDS.
    """
    it = iter(lines)
    try:
        header = next(it).rstrip("\n").rstrip("\r")
    except StopIteration:
        raise IngestError("empty event stream") from None
    columns = [c.strip() for c in header.split(delimiter)]
    try:
        idx = {name: columns.index(name) for name in EVENT_COLUMNS}
    except ValueError:
        missing = [name for name in EVENT_COLUMNS if name not in columns]
        raise IngestError(f"event header missing columns {missing}") from None
    needed = max(idx.values()) + 1
    i_family, i_year, i_region, i_code = (idx[name] for name in EVENT_COLUMNS)

    unique: dict[EventRecord, None] = {}  # insertion-ordered set of records
    issues: list[ParseIssue] = []
    resolved: dict[str, str | None] = {}  # raw code -> code at granularity
    for line_no, raw in enumerate(it, start=2):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split(delimiter)
        if len(cells) < needed:
            issues.append(
                ParseIssue(line_no, f"expected >= {needed} columns, got {len(cells)}", "columns")
            )
            continue
        family = cells[i_family].strip()
        region = cells[i_region].strip()
        raw_code = cells[i_code].strip()
        year_text = cells[i_year].strip()
        if not family or not region:
            issues.append(ParseIssue(line_no, "empty family_id or region_id", "empty_id"))
            continue
        try:
            year = int(year_text)
        except ValueError:
            issues.append(ParseIssue(line_no, f"non-integer year {year_text!r}", "year_format"))
            continue
        if not year_min <= year <= year_max:
            issues.append(
                ParseIssue(line_no, f"year {year} outside [{year_min}, {year_max}]", "year_range")
            )
            continue
        try:
            code = resolved[raw_code]
        except KeyError:
            code = resolved[raw_code] = hierarchy.resolve(raw_code, granularity)
        if code is None:
            issues.append(ParseIssue(line_no, f"unknown code {raw_code!r}", "unknown_code"))
            continue
        unique[EventRecord(family, year, region, code)] = None
    return ParseResult(records=list(unique), issues=issues)


@dataclass(frozen=True, eq=False)
class OccurrenceMatrix:
    """Region x field weight matrix W for one year; mass = number of families."""

    year: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (len(self.regions), len(self.fields)):
            raise IngestError("weight matrix shape does not match index sets")
        if np.any(self.weights < 0):
            raise IngestError("occurrence weights must be nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def build_occurrence_matrix(
    records: Iterable[EventRecord],
    year: int,
    *,
    regions: Sequence[str] | None = None,
    fields: Sequence[str] | None = None,
) -> OccurrenceMatrix:
    """Accumulate family shares for one year into a weight matrix.

    When index sets are not supplied they are derived from the year's records,
    sorted. Supplying them keeps indexing stable across years.
    """
    # The year's distinct records in sorted family order. A family adds at
    # most one share to a cell, so every cell sums from 0.0 in sorted family
    # order, whatever the order of the records.
    unique = sorted({r for r in records if r.year == year}, key=itemgetter(0))
    n_pairs = Counter(map(itemgetter(0), unique))

    if regions is None:
        regions = sorted({r.region_id for r in unique})
    if fields is None:
        fields = sorted({r.code for r in unique})
    region_index = {r: i for i, r in enumerate(regions)}
    field_index = {f: i for i, f in enumerate(fields)}

    n_fields = len(fields)
    cell_weights: dict[int, float] = {}  # flat index region * n_fields + field
    try:
        for family, _year, region, code in unique:
            cell = region_index[region] * n_fields + field_index[code]
            cell_weights[cell] = cell_weights.get(cell, 0.0) + 1.0 / n_pairs[family]
    except KeyError as exc:
        raise IngestError(f"record references unknown index {exc}") from None
    weights = np.zeros((len(regions), n_fields), dtype=np.float64)
    weights.flat[list(cell_weights)] = list(cell_weights.values())
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)


def occurrence_to_text(m: OccurrenceMatrix) -> str:
    """Year-keyed 'year,region,field,weight' rows of the nonzero cells, in index order."""
    ri, fi = np.nonzero(m.weights)
    cells = zip(
        [m.regions[i] for i in ri.tolist()], [m.fields[j] for j in fi.tolist()],
        map(repr, m.weights[ri, fi].tolist()),
    )
    return artifacts.year_rows_to_text(m.year, cells)


def occurrence_from_text(
    text: str, *, regions: Sequence[str], fields: Sequence[str], year: int | None = None
) -> OccurrenceMatrix:
    year, rows = artifacts.year_rows_from_text(text, 3, year=year, error=IngestError)
    weights = artifacts.scatter(
        rows, (regions, fields), [float(w) for _r, _f, w in rows], np.float64, IngestError
    )
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)
