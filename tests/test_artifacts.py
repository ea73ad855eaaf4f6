"""Artifact readers reject truncated and malformed text with their stage's ValueError."""

import re

import numpy as np
import pytest

from technet.acs import decomposition_from_text
from technet.assist import (
    AssistError,
    assist_from_text,
    assist_matrix,
    assist_sidecar_text,
    assist_to_text,
)
from technet.fdr import network_from_text
from technet.ingest import IngestError, occurrence_from_text
from technet.nullmodel import (
    exceedance_counts,
    exceedance_test,
    fit_bicm,
    pvalues_from_counts,
    pvalues_from_text,
    pvalues_to_text,
)
from technet.rca import PresenceMatrix, presence_from_text
from technet.stats import StatsError, field_counts_from_text

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


# reader name -> (read(text), good text, error class of its module)
READERS = {
    "occurrence": (
        lambda text: occurrence_from_text(text, regions=REGIONS, fields=FIELDS, year=YEAR),
        "2000,r0,A,0.5\n2000,r1,B,0.25\n2000,r2,C,1.0\n",
        IngestError,
    ),
    "presence": (
        lambda text: presence_from_text(text, regions=REGIONS, fields=FIELDS, year=YEAR),
        "2000,r0,A\n2000,r1,B\n2000,r2,C\n",
        ValueError,
    ),
    "network": (
        lambda text: network_from_text(text, FIELDS, year=YEAR),
        "2000,A,B\n2000,B,C\n2000,C,A\n",
        ValueError,
    ),
    "field_counts": (
        lambda text: field_counts_from_text(text, FIELDS, year=YEAR),
        "2000,A,3\n2000,B,1\n2000,C,2\n",
        StatsError,
    ),
    "labels": (
        lambda text: decomposition_from_text(text, FIELDS, year=YEAR),
        "2000,A,core\n2000,B,core\n2000,C,outside\n",
        ValueError,
    ),
    "assist": (
        lambda text: assist_from_text(
            text, _assist_texts()[1], regions=REGIONS, fields=FIELDS, year=YEAR
        ),
        _assist_texts()[0],
        AssistError,
    ),
    "assist_sidecar": (
        lambda text: assist_from_text(
            _assist_texts()[0], text, regions=REGIONS, fields=FIELDS, year=YEAR
        ),
        _assist_texts()[1],
        AssistError,
    ),
    "pvalues": (lambda text: pvalues_from_text(text, year=YEAR), _pvalues_text(), ValueError),
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
    read, text, error = READERS[reader]
    read(text)
    tampered = CASES[case][0](text)
    with pytest.raises(error):
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
    with pytest.raises(AssistError):
        assist_from_text(
            text, "\n".join(sidecar_change(rows)) + "\n", regions=REGIONS, fields=FIELDS, year=YEAR
        )
