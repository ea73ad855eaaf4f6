"""Artifact readers reject truncated and malformed text with ArtifactError."""

import re

import numpy as np
import pytest

from technet import artifacts
from technet.acs import decomposition_from_text
from technet.artifacts import ArtifactError
from technet.assist import (
    assist_from_text,
    assist_matrix,
    assist_sidecar_text,
    assist_to_text,
)
from technet.fdr import network_from_text
from technet.ingest import occurrence_from_text
from technet.nullmodel import (
    exceedance_counts,
    exceedance_test,
    fit_bicm,
    pvalues_from_counts,
    pvalues_from_text,
    pvalues_to_text,
)
from technet.rca import PresenceMatrix, presence_from_text
from technet.stats import field_counts_from_text

YEAR = 2000
REGIONS = ("r0", "r1", "r2")
FIELDS = ("A", "B", "C")


def _pair():
    rng = np.random.default_rng(5)
    m_t, m_lag = (
        PresenceMatrix(year, REGIONS, FIELDS, (rng.random((3, 3)) < 0.6).astype(np.uint8))
        for year in (YEAR, YEAR + 1)
    )
    return assist_matrix(m_t, m_lag), fit_bicm(m_t), fit_bicm(m_lag)


def _assist_texts():
    b = _pair()[0]
    return assist_to_text(b), assist_sidecar_text(b)


def _pvalues_text():
    b_emp, fit_t, fit_lag = _pair()
    test = exceedance_test(b_emp)
    (counts,) = exceedance_counts({YEAR: fit_t, YEAR + 1: fit_lag}, [test], range(4), 3)
    return pvalues_to_text(pvalues_from_counts(test, counts, 4))


# reader name -> (read(text), good text)
READERS = {
    "occurrence": (
        lambda text: occurrence_from_text(text, regions=REGIONS, fields=FIELDS, year=YEAR),
        "2000,r0,A,0.5\n2000,r1,B,0.25\n2000,r2,C,1.0\n",
    ),
    "presence": (
        lambda text: presence_from_text(text, regions=REGIONS, fields=FIELDS, year=YEAR),
        "2000,r0,A\n2000,r1,B\n2000,r2,C\n",
    ),
    "network": (
        lambda text: network_from_text(text, FIELDS, year=YEAR),
        "2000,A,B\n2000,B,C\n2000,C,A\n",
    ),
    "field_counts": (
        lambda text: field_counts_from_text(text, FIELDS, year=YEAR),
        "2000,A,3\n2000,B,1\n2000,C,2\n",
    ),
    "labels": (
        lambda text: decomposition_from_text(text, FIELDS, year=YEAR),
        "2000,A,core\n2000,B,core\n2000,C,outside\n",
    ),
    "assist": (
        lambda text: assist_from_text(
            text, _assist_texts()[1], regions=REGIONS, fields=FIELDS, year=YEAR
        ),
        _assist_texts()[0],
    ),
    "assist_sidecar": (
        lambda text: assist_from_text(
            _assist_texts()[0], text, regions=REGIONS, fields=FIELDS, year=YEAR
        ),
        _assist_texts()[1],
    ),
    "pvalues": (lambda text: pvalues_from_text(text, year=YEAR), _pvalues_text()),
}

DENSE = ("assist", "pvalues")


def _lines(text):
    return text.splitlines(keepends=True)


def _tamper_last_line(text, change):
    *head, last = _lines(text)
    return "".join(head) + change(last.rstrip("\n")) + "\n"


def missing_last_row(text):
    return "".join(_lines(text)[:-1])


def out_of_order_row(text):
    *head, before_last, last = _lines(text)
    return "".join(head) + last + before_last


def short_row(text):
    return _tamper_last_line(text, lambda line: line.rsplit(",", 1)[0])


def wrong_column_count(text):
    return _tamper_last_line(text, lambda line: line + ",0")


def second_year(text):
    return _tamper_last_line(
        text, lambda line: line + "\n" + line.replace(f"{YEAR},", f"{YEAR + 1},", 1)
    )


def unknown_key(text):
    # the last row's first key, the region or field after the year or the row label
    def rename(line):
        cells = line.split(",")
        cells[0 if cells[0] != str(YEAR) else 1] = "ZZZ"
        return ",".join(cells)

    return _tamper_last_line(text, rename)


def other_meta_year(text):
    return text.replace(f"base_year={YEAR}", f"base_year={YEAR + 1}", 1)


def other_regions(text):
    return re.sub(r"\br2\b", "r9", text)


def other_fields(text):
    return re.sub(r"\bC\b", "Z", text)


def other_year(text):
    return text.replace(f"base_year,{YEAR}", f"base_year,{YEAR + 1}", 1)


def non_integer_cell(tag, value):
    # the first `tag` row's last cell becomes `value`
    return lambda text: re.sub(rf"^({tag},(?:[^,\n]*,)?)[^,\n]*$", rf"\g<1>{value}", text,
                               count=1, flags=re.M)


def no_replicates(text):
    return re.sub(r"replicates=\d+", "replicates=0", text, count=1)


def count_above_replicates(text):
    return _tamper_last_line(text, lambda line: line.rsplit(",", 1)[0] + ",999")


def negative_count(text):
    return _tamper_last_line(text, lambda line: line.rsplit(",", 1)[0] + ",-5")


def last_cell(value):
    return lambda text: _tamper_last_line(text, lambda line: line.rsplit(",", 1)[0] + "," + value)


def duplicate_row(text):
    return _tamper_last_line(text, lambda line: line + "\n" + line)


CASES = {
    "missing_last_row": (missing_last_row, ("labels", *DENSE)),
    "out_of_order_row": (out_of_order_row, ("labels", *DENSE)),
    "short_row": (short_row, tuple(READERS)),
    "wrong_column_count": (wrong_column_count, tuple(READERS)),
    "second_year": (second_year, ("occurrence", "presence", "network", "field_counts", "labels")),
    "unknown_key": (unknown_key, tuple(READERS)),
    "other_meta_year": (other_meta_year, ("pvalues",)),
    "other_regions": (other_regions, ("assist_sidecar",)),
    "other_fields": (other_fields, ("assist", "assist_sidecar")),
    "other_year": (other_year, ("assist_sidecar",)),
    "non_integer_base_year": (non_integer_cell("base_year", "twenty"), ("assist_sidecar",)),
    "non_integer_lag": (non_integer_cell("lag", "one"), ("assist_sidecar",)),
    "non_integer_d": (non_integer_cell("d", "x"), ("assist_sidecar",)),
    "non_integer_u": (non_integer_cell("u", "1.5"), ("assist_sidecar",)),
    "no_replicates": (no_replicates, ("pvalues",)),
    "count_above_replicates": (count_above_replicates, ("pvalues",)),
    "negative_count": (negative_count, ("pvalues", "field_counts")),
    "duplicate_row": (duplicate_row, ("occurrence", "presence", "network", "field_counts", "labels")),
    "nan_value": (last_cell("nan"), ("occurrence", "assist")),
    "inf_value": (last_cell("inf"), ("occurrence", "assist")),
    "negative_value": (last_cell("-0.5"), ("occurrence", "assist")),
    "non_numeric_value": (last_cell("x"), ("occurrence", "field_counts", *DENSE)),
}


@pytest.mark.parametrize(
    "reader, case",
    [(reader, case) for case, (_fn, readers) in CASES.items() for reader in readers],
)
def test_malformed_text_is_rejected(reader, case):
    read, text = READERS[reader]
    read(text)
    tampered = CASES[case][0](text)
    with pytest.raises(ArtifactError):
        read(tampered)


@pytest.mark.parametrize(
    "sidecar_change",
    [
        lambda rows: rows + ["base_year,2001"],  # a second year
        lambda rows: rows[:-1],  # a missing ubiquity row
        lambda rows: rows[:-1] + [rows[-1].replace("u,C,", "u,ZZZ,")],  # an unknown field
        lambda rows: rows[:1] + rows[2:],  # a missing lag row
        lambda rows: rows + ["x,1"],  # an unknown tag
    ],
)
def test_malformed_assist_sidecar_is_rejected(sidecar_change):
    text, sidecar = _assist_texts()
    rows = sidecar.splitlines()
    with pytest.raises(ArtifactError):
        assist_from_text(
            text, "\n".join(sidecar_change(rows)) + "\n", regions=REGIONS, fields=FIELDS, year=YEAR
        )


YEAR_ROW_READERS = ("occurrence", "presence", "network", "field_counts", "labels")
LABELS_ORDER = "labels are not over the given fields in their order"


def year_row_error(reader, case, tampered):
    """The error text the row-by-row reader gave for each tampered year-row text."""
    if case == "unknown_key":
        return LABELS_ORDER if reader == "labels" else "unknown key 'ZZZ'"
    if case == "duplicate_row":
        return LABELS_ORDER if reader == "labels" else "1 of 4 rows repeat an earlier row's keys"
    return f"row {tampered.splitlines()[-1]!r}: expected a key of ['{YEAR}'] and its cells"


@pytest.mark.parametrize("reader", YEAR_ROW_READERS)
@pytest.mark.parametrize(
    "case", ["wrong_column_count", "short_row", "second_year", "unknown_key", "duplicate_row"]
)
def test_year_row_errors_keep_their_text(reader, case):
    read, text = READERS[reader]
    tampered = CASES[case][0](text)
    expected = re.escape(year_row_error(reader, case, tampered))
    with pytest.raises(ArtifactError, match=f"^{expected}$"):
        read(tampered)


@pytest.mark.parametrize("reader", YEAR_ROW_READERS)
def test_year_rows_skip_blank_lines_and_read_crlf(reader):
    read, text = READERS[reader]
    lines = text.splitlines()
    messy = "\r\n".join(["", " ", *lines[:1], "\t", *lines[1:], "  "]) + "\r\n"
    clean, got = read(text), read(messy)
    if isinstance(clean, dict):
        assert got == clean
    else:
        assert vars(got).keys() == vars(clean).keys()
        for name, value in vars(clean).items():
            assert np.array_equal(getattr(got, name), value), name


def test_year_rows_from_text_gives_columns():
    text = "\n2000,a,1\n  \n2000,b,2\r\n"
    assert artifacts.year_rows_from_text(text, 2) == (2000, [["a", "b"], ["1", "2"]])
    assert artifacts.year_rows_from_text(text, 2, year=2000) == (2000, [["a", "b"], ["1", "2"]])
    assert artifacts.year_rows_from_text(" \n", 2, year=2000) == (2000, [[], []])
    with pytest.raises(ArtifactError, match="no year at the start of ''"):
        artifacts.year_rows_from_text(" \n", 2)


def rows_to_text_by_cell(rows):
    return "".join(",".join(map(artifacts._cell, row)) + "\n" for row in rows)


def year_rows_to_text_by_row(year, rows):
    return "".join(f"{year}," + ",".join(row) + "\n" for row in rows)


WRITER_ROWS = [
    ("code", "parent"),
    (None, True, False, 1.5, 1e-300, 0.1, -0.0, float("nan"), float("inf"), 3, -7, "x", ""),
    ["a", 1, 2.0],
    (False, 2, "b", 0.5),
    (np.float64(0.5), np.int64(2), np.str_("s")),
    (),
    (None,),
]
YEAR_ROWS = [("r0", "A", "0.5"), ["r1", "B"], (), ("x",)]


def test_writers_keep_their_bytes():
    for rows in (WRITER_ROWS, WRITER_ROWS[4:], []):
        assert artifacts.rows_to_text(rows) == rows_to_text_by_cell(rows)
    assert artifacts.rows_to_text(iter(map(iter, WRITER_ROWS))) == rows_to_text_by_cell(WRITER_ROWS)
    for rows in (YEAR_ROWS, YEAR_ROWS[:1], YEAR_ROWS[2:3], []):
        assert artifacts.year_rows_to_text(2000, rows) == year_rows_to_text_by_row(2000, rows)
    assert artifacts.year_rows_to_text(2000, iter(YEAR_ROWS)) == year_rows_to_text_by_row(
        2000, YEAR_ROWS
    )


def dense_to_text_by_cell(fields, values, meta=None):
    lines = [] if meta is None else ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(("field", *fields)))
    lines.extend(",".join((code, *(repr(cell) for cell in row)))
                 for code, row in zip(fields, values.tolist()))
    return "\n".join(lines) + "\n"


def test_dense_to_text_writes_each_cells_repr():
    rng = np.random.default_rng(8)
    floats = np.round(rng.random((9, 9)) * 4) / 3
    other_nan = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    floats.ravel()[:8] = [-0.0, 0.0, np.nan, other_nan, np.inf, -np.inf, 5e-324, -5e-324]
    integers = rng.integers(-(2**62), 2**62, (9, 9))
    integers.ravel()[:3] = [0, -1, 2**63 - 1]
    fields = tuple(f"f{i}" for i in range(9))
    for values in (floats, floats.T, integers, (integers % 3).astype(np.uint8)):
        for meta in (None, {"year": 2000, "replicates": 7}):
            text = artifacts.dense_to_text(fields, values, meta)
            assert text == dense_to_text_by_cell(fields, values, meta)
    assert artifacts.dense_to_text((), np.zeros((0, 0))) == "field\n"


@pytest.mark.parametrize("keys", [["a", "b", "b", "c"], ["c", "b", "a", "b"]])
def test_scatter_counts_repeated_keys_in_and_out_of_order(keys):
    axes = (("a", "b", "c"),)
    assert artifacts.scatter([["a", "b", "c"]], axes, [1, 2, 3], np.int64).tolist() == [1, 2, 3]
    assert artifacts.scatter([["c", "a"]], axes, [3, 1], np.int64).tolist() == [1, 0, 3]
    with pytest.raises(ArtifactError, match="^1 of 4 rows repeat an earlier row's keys$"):
        artifacts.scatter([keys], axes, [1, 2, 3, 4], np.int64)
