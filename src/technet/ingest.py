"""Event parsing into id columns, and per-year occurrence matrices by bincount.

An event is one (family, year, region, code) attribution. Every family active
in a year carries total weight 1, split evenly over its unique (region, field)
combinations for that year, so the occurrence matrix mass equals the number of
active families.
"""

from __future__ import annotations

import codecs
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import artifacts
from .hierarchy import CodeHierarchy

EVENT_COLUMNS = ("family_id", "year", "region_id", "code")
# Why a line was rejected: too few columns, an empty family or region id, a
# year that is not an integer, one outside the range, an unresolvable code.
REJECTION_KINDS = ("columns", "empty_id", "year_format", "year_range", "unknown_code")
# EventLines reads this many bytes at a time; the events file is never held whole.
READ_BLOCK = 1 << 16
# Every character str.splitlines() ends a line at ("\r\n" ends with "\n").
LINE_BREAKS = ("\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class IngestError(ValueError):
    """Raised on unusable event input (bad header, unknown index, ...)."""


class EventLines:
    """The lines of a UTF-8 events file, exactly as `read_text().splitlines()` gives them.

    The file is read in READ_BLOCK-byte blocks and decoded as UTF-8, a leading
    byte-order mark dropped. Each block is split by `str.splitlines`, and the
    partial last line, or a last line ended by a "\r" that a "\n" may
    complete, is carried into the next block. Iterating reads the file again;
    `len()` counts its lines in one more pass. A byte that is not UTF-8 is an
    IngestError naming its line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._blocks())

    def __len__(self) -> int:
        return sum(map(len, self._blocks()))

    def _blocks(self) -> Iterator[list[str]]:
        decode = codecs.getincrementaldecoder("utf-8-sig")().decode
        carry, n_lines = "", 0  # the lines yielded so far end where carry starts
        with open(self.path, "rb") as f:
            while True:
                block = f.read(READ_BLOCK)
                try:
                    text = carry + decode(block, final=not block)
                except UnicodeDecodeError as exc:
                    # the bytes before the bad one decoded; count the breaks among them
                    good = exc.object[:exc.start].decode("utf-8")
                    line_no = n_lines + len((carry + good + ".").splitlines())
                    raise IngestError(
                        f"{self.path}: line {line_no} is not UTF-8 text ({exc.reason})"
                    ) from None
                lines = text.splitlines()
                if not block:
                    yield lines
                    return
                if text.endswith("\r"):  # a "\n" opening the next block ends the same line
                    carry = lines.pop() + "\r"
                elif text and not text.endswith(LINE_BREAKS):
                    carry = lines.pop()
                else:
                    carry = ""
                n_lines += len(lines)
                yield lines


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    reason: str
    kind: str


@dataclass(eq=False)
class ParseResult:
    """The distinct events as id columns, sorted by family id.

    A family id is the rank of the family's name in str order among the
    families of the kept lines; the names themselves are dropped once ranked,
    since no stage reads them. Region and code ids index the sorted name
    tables: `codes` holds every field at the granularity, `regions` the names
    seen.
    """

    regions: tuple[str, ...]
    codes: tuple[str, ...]
    family: np.ndarray
    year: np.ndarray
    region: np.ndarray
    code: np.ndarray
    issues: list[ParseIssue]

    def __eq__(self, other) -> bool:  # the dataclass one cannot compare array fields
        return isinstance(other, ParseResult) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values())
        )

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
    """Parse delimiter-separated event lines into deduplicated event columns.

    The first line must be a header containing the columns family_id, year,
    region_id and code (extra columns are ignored). Codes are resolved to the
    requested granularity, and events collapsing to one (family, year, region,
    code) are kept once. Bad lines never abort the parse: each yields a
    ParseIssue carrying its 1-based line number and its kind.
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

    # Ids are assigned on first lookup; a kept line leaves four 32-bit ints and no object.
    family_ids, region_ids = defaultdict(count().__next__), defaultdict(count().__next__)
    codes = hierarchy.codes_at(granularity)
    code_ids = dict(zip(codes, count()))
    resolved: dict[str, int | None] = {}  # raw code -> id of its code at granularity
    kept = [array("i") for _ in EVENT_COLUMNS]  # family, year, region and code per line
    add_family, add_year, add_region, add_code = (column.append for column in kept)
    issues: list[tuple[int, str, str]] = []  # line number, reason, kind
    reject = issues.append
    # Every cell read is stripped. A blank line, skipped, has too few cells or no family id.
    for line_no, line in enumerate(it, start=2):
        cells = line.split(delimiter)
        if len(cells) < needed:
            if line.strip():
                reject((line_no, f"expected >= {needed} columns, got {len(cells)}", "columns"))
            continue
        family = cells[i_family].strip()
        region = cells[i_region].strip()
        if not family or not region:
            if line.strip():
                reject((line_no, "empty family_id or region_id", "empty_id"))
            continue
        try:
            year = int(cells[i_year])  # int() ignores surrounding whitespace
        except ValueError:
            reject((line_no, f"non-integer year {cells[i_year].strip()!r}", "year_format"))
            continue
        if not year_min <= year <= year_max:
            reject((line_no, f"year {year} outside [{year_min}, {year_max}]", "year_range"))
            continue
        raw_code = cells[i_code]
        try:
            code = resolved[raw_code]
        except KeyError:
            code = resolved[raw_code] = code_ids.get(hierarchy.resolve(raw_code, granularity))
        if code is None:
            reject((line_no, f"unknown code {raw_code.strip()!r}", "unknown_code"))
            continue
        try:
            add_family(family_ids[family])
            add_year(year)
            add_region(region_ids[region])
            add_code(code)
        except OverflowError:
            raise IngestError(f"line {line_no}: year {year} or an id does not fit 32 bits") from None

    # Renumber families and regions in str order, then keep each event once. No
    # stage reads a family's name, so the names go before the event key is built.
    n_families = len(family_ids)
    by_name = np.fromiter(map(family_ids.__getitem__, sorted(family_ids)), np.int64, n_families)
    del family_ids
    family = np.argsort(by_name)[kept[0]]  # the inverse permutation maps an id to its rank
    regions = sorted(region_ids)
    region = np.argsort(list(map(region_ids.__getitem__, regions)))[kept[2]]
    year, code = (np.frombuffer(kept[i], dtype=np.intc).astype(np.int64) for i in (1, 3))
    del kept
    n_years = year_max - year_min + 1
    if n_families * n_years * len(regions) * len(codes) >= 2**63:
        raise IngestError("too many distinct families, regions and codes for a 64-bit event key")
    key = ((family * n_years + (year - year_min)) * len(regions) + region) * len(codes) + code
    one = np.unique(key, return_index=True)[1]  # a row of each distinct event, in key order
    return ParseResult(tuple(regions), codes, family[one], year[one], region[one], code[one],
                       [ParseIssue(*issue) for issue in issues])


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
        if not np.all((self.weights >= 0) & (self.weights < np.inf)):  # NaN fails both
            raise IngestError("occurrence weights must be finite and nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def build_occurrence_matrix(events: ParseResult, year: int) -> OccurrenceMatrix:
    """Accumulate family shares for one year into a weight matrix over the parse's tables."""
    # The parse keeps rows in family id order. A family adds at most one share to a cell
    # and bincount adds in input order, so every cell sums from 0.0 in sorted family order.
    rows = events.year == year
    family, shape = events.family[rows], (len(events.regions), len(events.codes))
    cells = events.region[rows] * shape[1] + events.code[rows]
    weights = np.bincount(cells, 1.0 / np.bincount(family)[family], shape[0] * shape[1])
    return OccurrenceMatrix(year, events.regions, events.codes, weights.reshape(shape))


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
    try:
        values = [float(w) for _r, _f, w in rows]
    except ValueError as exc:
        raise IngestError(f"occurrence weight is not a number: {exc}") from None
    weights = artifacts.scatter(rows, (regions, fields), values, np.float64, IngestError)
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)
