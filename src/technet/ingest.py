"""Event parsing into id columns, and per-year occurrence matrices by bincount.

An event is one (family, year, region, code) attribution. Every family active
in a year carries total weight 1, split evenly over its unique (region, field)
combinations for that year, so the occurrence matrix mass equals the number of
active families.
"""

from __future__ import annotations

import codecs
import functools
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import artifacts
from .hierarchy import CodeHierarchy

EVENT_COLUMNS = ("family_id", "year", "region_id", "code")
# Why a line was rejected: too few columns, an empty family or region id, a
# year that is not an integer, one outside the range, an unresolvable code.
REJECTION_KINDS = ("columns", "empty_id", "year_format", "year_range", "unknown_code")
# EventLines reads this many bytes at a time; the events file is never held whole.
READ_BLOCK = 1 << 16
# parse_events takes this many lines at a time and parses their canonical ones as columns.
PARSE_BATCH = 1 << 13
# A bytes array of names is as wide as its longest name, so it holds at most this many
# bytes of each; longer names come from _parse_lines alone, and rank by their full bytes.
NAME_BYTES = 64
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


@dataclass(frozen=True)
class _LineRules:
    """What the per-line rules read: the header's cell positions and the parse's arguments.

    `code_id` maps a raw code cell to the position of its code at the
    granularity in the parse's code table, or to None when it does not resolve.
    """

    delimiter: str
    family: int
    year: int
    region: int
    code: int
    year_min: int
    year_max: int
    code_id: Callable[[str], int | None]

    @functools.cached_property
    def needed(self) -> int:
        return max(self.family, self.year, self.region, self.code) + 1


@dataclass
class _Kept:
    """The lines that `_parse_lines` keeps, and the issues of those it rejects.

    Family and region ids are given on first lookup; a kept line leaves four
    32-bit ints (family id, year, region id, code id) and no object.
    """

    family_ids: defaultdict = field(default_factory=lambda: defaultdict(count().__next__))
    region_ids: defaultdict = field(default_factory=lambda: defaultdict(count().__next__))
    columns: tuple = field(default_factory=lambda: tuple(array("i") for _ in EVENT_COLUMNS))
    issues: list = field(default_factory=list)


def _parse_lines(numbered: Iterable[tuple[int, str]], rules: _LineRules, kept: _Kept) -> None:
    """The reference rules: add the event or issue of each (line number, line) to `kept`.

    Every cell read is stripped. A blank line, skipped, has too few cells or no family id.
    """
    delimiter, needed, year_min, year_max, code_id = (
        rules.delimiter, rules.needed, rules.year_min, rules.year_max, rules.code_id
    )
    i_family, i_year, i_region, i_code = rules.family, rules.year, rules.region, rules.code
    family_ids, region_ids = kept.family_ids, kept.region_ids
    add_family, add_year, add_region, add_code = (column.append for column in kept.columns)
    reject = kept.issues.append
    for line_no, line in numbered:
        cells = line.split(delimiter)
        if len(cells) < needed:
            if line.strip():
                reject(ParseIssue(line_no, f"expected >= {needed} columns, got {len(cells)}",
                                  "columns"))
            continue
        family = cells[i_family].strip()
        region = cells[i_region].strip()
        if not family or not region:
            if line.strip():
                reject(ParseIssue(line_no, "empty family_id or region_id", "empty_id"))
            continue
        try:
            year = int(cells[i_year])  # int() ignores surrounding whitespace
        except ValueError:
            reject(ParseIssue(line_no, f"non-integer year {cells[i_year].strip()!r}",
                              "year_format"))
            continue
        if not year_min <= year <= year_max:
            reject(ParseIssue(line_no, f"year {year} outside [{year_min}, {year_max}]",
                              "year_range"))
            continue
        raw_code = cells[i_code]
        code = code_id(raw_code)
        if code is None:
            reject(ParseIssue(line_no, f"unknown code {raw_code.strip()!r}", "unknown_code"))
            continue
        try:
            add_family(family_ids[family])
            add_year(year)
            add_region(region_ids[region])
            add_code(code)
        except OverflowError:
            raise IngestError(f"line {line_no}: year {year} or an id does not fit 32 bits") from None


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

    The lines are read in batches of PARSE_BATCH. A batch's canonical lines
    (see `_canonical_lines`) are split and converted as whole columns; every
    other line goes through `_parse_lines`, whose rules the columns reproduce.
    After a batch with more lines that are not canonical than are, only every
    eighth batch is looked at for canonical lines until one is mostly canonical.
    """
    it = iter(lines)
    try:
        header = next(it).rstrip("\n").rstrip("\r")
    except StopIteration:
        raise IngestError("empty event stream") from None
    columns = [c.strip() for c in header.split(delimiter)]
    try:
        idx = [columns.index(name) for name in EVENT_COLUMNS]
    except ValueError:
        missing = [name for name in EVENT_COLUMNS if name not in columns]
        raise IngestError(f"event header missing columns {missing}") from None
    codes = hierarchy.codes_at(granularity)
    code_ids = dict(zip(codes, count()))
    code_id = functools.cache(lambda raw: code_ids.get(hierarchy.resolve(raw, granularity)))
    rules = _LineRules(delimiter, *idx, year_min, year_max, code_id)

    parts = []  # per batch that the numpy pass reads: its canonical lines' columns
    kept = _Kept()  # the other lines, by _parse_lines
    line_no, columnar = 2, True
    for n, batch in enumerate(iter(lambda: list(islice(it, PARSE_BATCH)), [])):
        # After a batch that was mostly not canonical, only every eighth batch is
        # looked at, so input of another form costs little more than the rules.
        if columnar or n % 8 == 0:
            canonical, part = _canonical_lines(batch, rules)
            parts.append(part)
            other = np.flatnonzero(~canonical).tolist()
            columnar = 2 * len(other) <= len(batch)
            _parse_lines(zip([line_no + i for i in other], map(batch.__getitem__, other)),
                         rules, kept)
        else:
            _parse_lines(enumerate(batch, line_no), rules, kept)
        line_no += len(batch)
    part, long_regions = _kept_columns(kept)
    issues = kept.issues
    del kept
    family, family_tail, year, region_prefix, region_tail, code = (
        np.concatenate(column) for column in zip(*parts, part)
    )
    del parts

    # Rank families and regions in str order, then keep each event once. No
    # stage reads a family's name, so the names go before the event key is built.
    family, distinct = _rank(family, family_tail)
    n_families = distinct.size
    region, distinct = _rank(region_prefix, region_tail)
    regions = tuple(
        (long_regions[tail - NAME_BYTES - 1] if tail > NAME_BYTES else prefix.ljust(tail, b"\0"))
        .decode("utf-8", "surrogatepass")
        for prefix, tail in zip(region_prefix[distinct].tolist(), region_tail[distinct].tolist())
    )
    year, code = year.astype(np.int64), code.astype(np.int64)
    n_years = year_max - year_min + 1
    if n_families * n_years * len(regions) * len(codes) >= 2**63:
        raise IngestError("too many distinct families, regions and codes for a 64-bit event key")
    key = ((family * n_years + (year - year_min)) * len(regions) + region) * len(codes) + code
    one = np.unique(key, return_index=True)[1]  # a row of each distinct event, in key order
    return ParseResult(regions, codes, family[one], year[one], region[one], code[one], issues)


# Event columns: family prefix and tail, year, region prefix and tail, code id (see _rank).
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _canonical_lines(batch: list[str], rules: _LineRules) -> tuple[np.ndarray, _Columns]:
    """Which lines of a batch are canonical, and their columns.

    A line is canonical when the delimiter is one ASCII character, every other
    byte is printable ASCII, a space stands only inside a cell (not next to a
    delimiter nor at the line's start or end, where the per-line rules strip
    it), it has the needed cells, its family and region cells are not empty,
    its year cell is 1-9 ASCII digits inside the year range, its raw code
    resolves, and its family, region and code cells hold at most NAME_BYTES.
    _parse_lines keeps such a line with its cells as they are, so the columns
    are read straight from the bytes. Only the batch's odd bytes are looked at
    for spaces, so a batch without any pays nothing for them.
    """
    n = len(batch)
    if not (len(rules.delimiter) == 1 and rules.delimiter.isascii()):
        return np.zeros(n, bool), _kept_columns(_Kept())[0]
    text = "\n".join(batch)
    data = text.encode("utf-8", "surrogatepass")
    if len(data) == len(text):  # ASCII: one byte per character
        lengths = np.fromiter(map(len, batch), np.intp, n)
    else:
        lengths = np.fromiter((len(line.encode("utf-8", "surrogatepass")) for line in batch),
                              np.intp, n)
    padded = np.frombuffer(data + bytes(NAME_BYTES), np.uint8)  # a cell's window fits
    buf = padded[:len(data)]
    ends = np.cumsum(lengths + 1) - 1  # the "\n" after each line, or the end of the text
    starts = ends - lengths
    delimiter = ord(rules.delimiter)
    odd = np.flatnonzero((buf - np.uint8(0x21) > 0x7E - 0x21) & (buf != delimiter))
    space = buf[odd] == ord(" ")
    if space.any():  # a space is odd only at a cell's edge
        at, edge = odd[space], (delimiter, ord("\n"))
        space[space] = ~((at == 0) | np.isin(buf[at - 1], edge)
                         | (at + 1 == len(buf)) | np.isin(padded[at + 1], edge))
        odd = odd[~space]
    stop = buf == delimiter
    stop[ends[:-1]] = True
    stops = np.append(np.flatnonzero(stop), len(buf))  # every cell ends at a stop
    first = np.searchsorted(stops, starts)  # where each line's cells end, in stops
    n_cells = np.searchsorted(stops, ends) - first + 1
    clean = np.searchsorted(odd, starts) == np.searchsorted(odd, ends)
    rows = np.flatnonzero(clean & (n_cells >= rules.needed))
    first = first[rows]

    def cell(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Where cell k of each row begins, and its length."""
        begin = starts[rows] if k == 0 else stops[first + k - 1] + 1
        return begin, stops[first + k] - begin

    family, region, code, (year_at, year_len) = (
        cell(k) for k in (rules.family, rules.region, rules.code, rules.year)
    )
    at = (year_at + year_len)[:, None] - np.arange(9, 0, -1)  # the cell's last nine bytes
    inside = at >= year_at[:, None]
    digits = np.where(inside, buf[at.clip(0)] - ord("0"), 0)  # a non-digit wraps to >= 10
    year = digits.astype(np.int64) @ 10 ** np.arange(8, -1, -1)
    # A code cell longer than NAME_BYTES is cut to fit the window; its row is not canonical.
    raw, which = np.unique(_cell_bytes(padded, code[0], np.minimum(code[1], NAME_BYTES)),
                           return_inverse=True)
    ids = [rules.code_id(raw_code.decode()) for raw_code in raw.tolist()]
    code_id = np.array([-1 if i is None else i for i in ids], dtype=np.int32)[which]
    good = ((family[1] > 0) & (family[1] <= NAME_BYTES) & (region[1] > 0)
            & (region[1] <= NAME_BYTES) & (code[1] <= NAME_BYTES) & (code_id >= 0)
            & (year_len > 0) & (year_len <= 9) & (digits < 10).all(axis=1)
            & (year >= rules.year_min) & (year <= rules.year_max))
    canonical = np.zeros(n, bool)
    canonical[rows[good]] = True
    (family_at, family_len), (region_at, region_len) = (
        (begin[good], length[good]) for begin, length in (family, region)
    )
    return canonical, (
        _cell_bytes(padded, family_at, family_len), family_len.astype(np.int32),
        year[good].astype(np.int32),
        _cell_bytes(padded, region_at, region_len), region_len.astype(np.int32), code_id[good],
    )


def _cell_bytes(padded: np.ndarray, begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The cells padded[begin:begin + length] as one bytes array; padded runs on past any."""
    width = max(int(length.max(initial=0)), 1)
    windows = sliding_window_view(padded, width)[begin]
    return (windows * (np.arange(width) < length[:, None])).view(f"S{width}").ravel()


def _kept_columns(kept: _Kept) -> tuple[_Columns, list[bytes]]:
    """The columns of the lines that _parse_lines kept, and their sorted long region names."""
    (family_prefix, family_tail, _), (region_prefix, region_tail, long_regions) = (
        _names(list(kept.family_ids)), _names(list(kept.region_ids))
    )
    family, year, region, code = (np.frombuffer(column, np.intc) for column in kept.columns)
    return (
        family_prefix[family], family_tail[family], year,
        region_prefix[region], region_tail[region], code,
    ), long_regions


def _names(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """The distinct UTF-8 names' prefixes and tails (see _rank), and the sorted long names."""
    encoded = [name.encode("utf-8", "surrogatepass") for name in names]
    tail = np.fromiter(map(len, encoded), np.int32, len(encoded))
    at = np.flatnonzero(tail > NAME_BYTES).tolist()
    long = sorted(encoded[i] for i in at)
    tail_of = {name: NAME_BYTES + 1 + rank for rank, name in enumerate(long)}
    for i in at:
        encoded[i], tail[i] = encoded[i][:NAME_BYTES], tail_of[encoded[i]]
    return np.array(encoded, dtype="S"), tail, long


def _rank(prefix: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each name's rank among the distinct names in str order, and a row of each.

    A name is its first NAME_BYTES UTF-8 bytes, held in a bytes array, and a
    tail: its byte length, or for a longer name NAME_BYTES + 1 + its rank among
    the longer ones. UTF-8 byte order is code point order. The array drops
    trailing NUL bytes, so names that it holds equal are ordered by tail: a
    shorter name is a prefix of the other, and a longer name's rank orders it.
    """
    order = np.lexsort((tail, prefix))
    prefix, tail = prefix[order], tail[order]
    new = np.ones(order.size, bool)
    new[1:] = (prefix[1:] != prefix[:-1]) | (tail[1:] != tail[:-1])
    rank = np.empty(order.size, np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


@dataclass(frozen=True, eq=False)
class OccurrenceMatrix:
    """Region x field weight matrix W for one year; mass = number of families."""

    year: int
    regions: tuple[str, ...]
    fields: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != (len(self.regions), len(self.fields)):
            raise ValueError("weight matrix shape does not match index sets")


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
    return artifacts.year_matrix_to_text(m.year, (m.regions, m.fields), m.weights, repr)


def occurrence_from_text(
    text: str, *, regions: Sequence[str], fields: Sequence[str], year: int | None = None
) -> OccurrenceMatrix:
    year, weights = artifacts.year_matrix_from_text(
        text, (regions, fields), np.float64, year=year, cast=float
    )
    if not np.all((weights >= 0) & (weights < np.inf)):  # NaN fails both
        raise artifacts.ArtifactError("occurrence weights must be finite and nonnegative")
    return OccurrenceMatrix(year=year, regions=tuple(regions), fields=tuple(fields), weights=weights)
