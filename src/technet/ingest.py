"""Event parsing, family weight splitting, and per-year occurrence matrices.

An event is one (family, year, region, code) attribution. Every family active
in a year carries total weight 1, split evenly over its unique (region, field)
combinations for that year, so the occurrence matrix mass equals the number of
active families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .hierarchy import CodeHierarchy

EVENT_COLUMNS = ("family_id", "year", "region_id", "code")


class IngestError(ValueError):
    """Raised on unusable event input (bad header, empty family group, ...)."""


@dataclass(frozen=True)
class EventRecord:
    family_id: str
    year: int
    region_id: str
    code: str


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    records: list[EventRecord]
    issues: list[ParseIssue] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.issues)


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
    region, code) tuple are kept once. Bad lines never abort the parse: each
    yields a ParseIssue carrying its 1-based line number.
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

    records: list[EventRecord] = []
    issues: list[ParseIssue] = []
    seen: set[tuple[str, int, str, str]] = set()
    for line_no, raw in enumerate(it, start=2):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        cells = line.split(delimiter)
        if len(cells) < needed:
            issues.append(ParseIssue(line_no, f"expected >= {needed} columns, got {len(cells)}"))
            continue
        family = cells[idx["family_id"]].strip()
        region = cells[idx["region_id"]].strip()
        raw_code = cells[idx["code"]].strip()
        year_text = cells[idx["year"]].strip()
        if not family or not region:
            issues.append(ParseIssue(line_no, "empty family_id or region_id"))
            continue
        try:
            year = int(year_text)
        except ValueError:
            issues.append(ParseIssue(line_no, f"non-integer year {year_text!r}"))
            continue
        if not year_min <= year <= year_max:
            issues.append(ParseIssue(line_no, f"year {year} outside [{year_min}, {year_max}]"))
            continue
        code = hierarchy.resolve(raw_code, granularity)
        if code is None:
            issues.append(ParseIssue(line_no, f"unknown code {raw_code!r}"))
            continue
        key = (family, year, region, code)
        if key in seen:
            continue
        seen.add(key)
        records.append(EventRecord(family, year, region, code))
    return ParseResult(records=records, issues=issues)


def split_family_weights(records: Sequence[EventRecord]) -> list[tuple[str, str, float]]:
    """Split one family-year's unit weight evenly over unique (region, field) pairs."""
    if not records:
        raise IngestError("cannot split weights of an empty family group")
    family = records[0].family_id
    year = records[0].year
    for r in records:
        if r.family_id != family or r.year != year:
            raise IngestError(
                f"family group mixes ({family}, {year}) with ({r.family_id}, {r.year})"
            )
    pairs = sorted({(r.region_id, r.code) for r in records})
    share = 1.0 / len(pairs)
    return [(region, code, share) for region, code in pairs]


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
    year_records = [r for r in records if r.year == year]
    by_family: dict[str, list[EventRecord]] = {}
    for r in year_records:
        by_family.setdefault(r.family_id, []).append(r)

    if regions is None:
        regions = sorted({r.region_id for r in year_records})
    if fields is None:
        fields = sorted({r.code for r in year_records})
    region_index = {r: i for i, r in enumerate(regions)}
    field_index = {f: i for i, f in enumerate(fields)}

    weights = np.zeros((len(regions), len(fields)), dtype=np.float64)
    for family in sorted(by_family):
        for region, code, share in split_family_weights(by_family[family]):
            try:
                weights[region_index[region], field_index[code]] += share
            except KeyError as exc:
                raise IngestError(f"record references unknown index {exc}") from None
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)


def occurrence_to_text(m: OccurrenceMatrix) -> str:
    """Serialize as 'year,region,field,weight' triplets sorted by (region, field)."""
    lines = []
    for ri, region in enumerate(m.regions):
        row = m.weights[ri]
        for fi in np.nonzero(row)[0]:
            lines.append(f"{m.year},{region},{m.fields[fi]},{float(row[fi])!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def occurrence_from_text(
    text: str,
    *,
    regions: Sequence[str] | None = None,
    fields: Sequence[str] | None = None,
    year: int | None = None,
) -> OccurrenceMatrix:
    entries: list[tuple[str, str, float]] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        y, region, code, weight = raw.split(",")
        y_int = int(y)
        if year is None:
            year = y_int
        elif y_int != year:
            raise IngestError(f"mixed years {year} and {y_int} in occurrence text")
        entries.append((region, code, float(weight)))
    if year is None:
        raise IngestError("cannot infer year from an empty occurrence file")
    if regions is None:
        regions = sorted({e[0] for e in entries})
    if fields is None:
        fields = sorted({e[1] for e in entries})
    region_index = {r: i for i, r in enumerate(regions)}
    field_index = {f: i for i, f in enumerate(fields)}
    weights = np.zeros((len(regions), len(fields)), dtype=np.float64)
    for region, code, weight in entries:
        weights[region_index[region], field_index[code]] += weight
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)
