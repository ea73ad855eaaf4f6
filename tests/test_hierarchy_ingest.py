import codecs
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from technet import ingest
from technet.hierarchy import CodeHierarchy, HierarchyError, hierarchy_to_text, parse_hierarchy
from technet.ingest import (
    REJECTION_KINDS,
    EventLines,
    IngestError,
    build_occurrence_matrix,
    occurrence_from_text,
    occurrence_to_text,
    parse_events,
)
from technet.pipeline import RunConfig, RunPaths, stage_ingest
from technet.stats import family_field_counts
from technet.synth import SynthConfig, generate_events

from oracles import field_counts_by_record_set, occurrence_by_record_loop

IPC_LIKE = CodeHierarchy.from_pairs(
    [
        ("A", None), ("H", None),
        ("A01", "A"), ("A21", "A"), ("H01", "H"), ("H02", "H"),
        ("A01B", "A01"), ("H01L", "H01"), ("H01S", "H01"),
    ]
)


def make_lines(rows, header="family_id,year,region_id,code"):
    return [header] + rows


def parse(rows, granularity="class"):
    return parse_events(make_lines(rows), IPC_LIKE, granularity, year_min=1980, year_max=2011)


def records(result, families=()):
    """The parsed events as (family, year, region, code) tuples, in the parse's order.

    A family id is decoded as a rank among the sorted distinct `families`, the
    family names of the input's kept lines, so a wrong rank reads as another name.
    """
    names = sorted(set(families))
    columns = (result.family, result.year, result.region, result.code)
    return [
        (names[f], y, result.regions[r], result.codes[c])
        for f, y, r, c in zip(*(column.tolist() for column in columns))
    ]


def occurrence(rows, year=1998):
    return build_occurrence_matrix(parse(rows), year)


def cells(w):
    """The nonzero cells of an occurrence matrix by (region, field)."""
    return {
        (w.regions[r], w.fields[f]): w.weights[r, f] for r, f in zip(*np.nonzero(w.weights))
    }


class TestHierarchy:
    def test_levels_and_sections(self):
        assert IPC_LIKE.sections == ("A", "H")
        assert IPC_LIKE.codes_at("class") == ("A01", "A21", "H01", "H02")
        assert IPC_LIKE.codes_at("subclass") == ("A01B", "H01L", "H01S")

    def test_resolution_is_longest_prefix_then_walk_up(self):
        assert IPC_LIKE.resolve("H01L21/02", "class") == "H01"
        assert IPC_LIKE.resolve("H01L21/02", "subclass") == "H01L"
        assert IPC_LIKE.resolve("H01", "section") == "H"
        # a bare section cannot be resolved at class granularity
        assert IPC_LIKE.resolve("A", "class") is None
        assert IPC_LIKE.resolve("X99", "class") is None

    def test_resolve_rejects_unknown_level(self):
        # the level is checked before any prefix is tried, matched or not
        for raw in ("H01L", "X99"):
            with pytest.raises(HierarchyError):
                IPC_LIKE.resolve(raw, "group")

    def test_section_of(self):
        assert IPC_LIKE.section_of("H01L") == "H"

    def test_rejects_cycles_and_orphans(self):
        with pytest.raises(HierarchyError):
            CodeHierarchy.from_pairs([("A", "B"), ("B", "A")])
        with pytest.raises(HierarchyError):
            CodeHierarchy.from_pairs([("A01", "A")])

    def test_round_trip(self):
        text = hierarchy_to_text(IPC_LIKE)
        again = parse_hierarchy(text)
        assert again.parent == IPC_LIKE.parent
        assert again.depth == IPC_LIKE.depth


class TestParseEvents:
    def test_truncates_code_to_class(self):
        result = parse(["F1,1998,DE-A1,H01L"])
        assert records(result, ["F1"]) == [("F1", 1998, "DE-A1", "H01")]
        assert result.codes == IPC_LIKE.codes_at("class")
        assert result.n_rejected == 0

    def test_collapses_subgroup_duplicates(self):
        result = parse(["F1,1998,DE-A1,H01L21", "F1,1998,DE-A1,H01L33"])
        assert records(result, ["F1"]) == [("F1", 1998, "DE-A1", "H01")]

    def test_rejects_out_of_range_year(self):
        result = parse(["F1,2025,DE-A1,H01L"])
        assert records(result) == []
        assert result.n_rejected == 1
        assert "2025" in result.issues[0].reason

    def test_malformed_line_reports_line_number(self):
        result = parse(["F1,1998,DE-A1,H01L", "garbage-line", "F2,1999,FR-B2,A01B"])
        assert records(result, ["F1", "F2"]) == [
            ("F1", 1998, "DE-A1", "H01"), ("F2", 1999, "FR-B2", "A01")
        ]
        assert result.issues[0].line_no == 3

    def test_unknown_code_counted(self):
        result = parse(["F1,1998,DE-A1,Z99X"])
        assert records(result) == []
        assert result.n_rejected == 1

    def test_missing_header_column_is_error(self):
        with pytest.raises(IngestError):
            parse_events(["family_id,year,code", "F1,1998,H01L"], IPC_LIKE, "class")

    def test_custom_delimiter(self):
        result = parse_events(
            ["family_id;year;region_id;code", "F1;1998;DE-A1;H01L"],
            IPC_LIKE, "class", delimiter=";", year_min=1980, year_max=2011,
        )
        assert records(result, ["F1"]) == [("F1", 1998, "DE-A1", "H01")]

    def test_blank_lines_are_skipped_with_a_whitespace_delimiter(self):
        body = ["", "   ", "\t\t\t", "F1\t1998\tr1\tH01L\r", "\t\tr1\tH01"]
        result = parse_events(
            ["family_id\tyear\tregion_id\tcode", *body],
            IPC_LIKE, "class", delimiter="\t", year_min=1980, year_max=2011,
        )
        assert records(result, ["F1"]) == [("F1", 1998, "r1", "H01")]
        assert [(issue.line_no, issue.kind) for issue in result.issues] == [(6, "empty_id")]

    def test_year_beyond_32_bits_is_an_ingest_error(self):
        lines = make_lines(["F1,1998,r1,H01L", f"F2,{2**31},r1,H01L"])
        with pytest.raises(IngestError, match=f"line 3: year {2**31}"):
            parse_events(lines, IPC_LIKE, "class", year_min=1980, year_max=2**31)


class TestBuildOccurrenceMatrix:
    def test_single_pair_gets_unit_weight(self):
        assert cells(occurrence(["F1,1998,r1,H01"])) == {("r1", "H01"): 1.0}

    def test_four_pairs_quarter_each(self):
        w = occurrence(["F1,1998,r1,H01", "F1,1998,r1,A01", "F1,1998,r2,H01", "F1,1998,r2,A01"])
        assert cells(w) == {
            ("r1", "A01"): 0.25, ("r1", "H01"): 0.25, ("r2", "A01"): 0.25, ("r2", "H01"): 0.25,
        }
        assert w.weights.sum() == 1.0

    def test_three_unique_pairs_third_each(self):
        # hand enumeration: {(r1,i), (r1,j), (r2,i)} -> three entries of 1/3
        w = occurrence([
            "F1,1998,r1,H01",
            "F1,1998,r1,A01",
            "F1,1998,r2,H01",
            "F1,1998,r2,H01",  # duplicate pair collapses
        ])
        assert w.regions == ("r1", "r2") and w.fields == ("A01", "A21", "H01", "H02")
        got = cells(w)
        assert set(got) == {("r1", "A01"), ("r1", "H01"), ("r2", "H01")}
        for weight in got.values():
            assert abs(weight - 1 / 3) < 1e-15

    def test_empty_year_gives_zero_mass(self):
        w = occurrence(["F1,1999,r1,H01"], year=1998)
        assert w.weights.shape == (1, 4)
        assert w.weights.sum() == 0.0

    def test_two_families_same_cell(self):
        assert cells(occurrence(["F1,1998,r1,H01", "F2,1998,r1,H01"])) == {("r1", "H01"): 2.0}

    def test_hand_summed_shares(self):
        # F1 splits over (r1, H01), (r1, A01); F2 entirely (r1, H01)
        w = occurrence(["F1,1998,r1,H01", "F1,1998,r1,A01", "F2,1998,r1,H01"])
        assert cells(w) == {("r1", "H01"): 1.5, ("r1", "A01"): 0.5}

    def test_mass_conservation_property(self):
        rng = np.random.default_rng(5)
        regions = [f"r{i}" for i in range(6)]
        codes = ["A01", "A21", "H01", "H02"]
        for _ in range(25):
            n_families = int(rng.integers(1, 12))
            rows = []
            for f in range(n_families):
                for _ in range(int(rng.integers(1, 5))):
                    region = regions[rng.integers(0, len(regions))]
                    rows.append(f"F{f},1998,{region},{codes[rng.integers(0, len(codes))]}")
            w = occurrence(rows)
            assert abs(w.weights.sum() - n_families) < 1e-9


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        weights = np.where(rng.random((4, 3)) < 0.5, rng.random((4, 3)) * 7, 0.0)
        from technet.ingest import OccurrenceMatrix

        w = OccurrenceMatrix(
            year=1998,
            regions=("r1", "r2", "r3", "r4"),
            fields=("A01", "H01", "H02"),
            weights=weights,
        )
        text = occurrence_to_text(w)
        again = occurrence_from_text(
            text, regions=w.regions, fields=w.fields, year=w.year
        )
        assert again.year == w.year
        assert np.array_equal(again.weights, w.weights)
        assert occurrence_to_text(again) == text

    def test_granularity_aggregation_consistency(self):
        # subclass-level matrix aggregated by the hierarchy equals the
        # class-level matrix built from the same events
        lines = make_lines(
            [
                "F1,1998,r1,H01L",
                "F1,1998,r1,H01S",
                "F2,1998,r2,H01L",
                "F2,1998,r2,A01B",
                "F3,1998,r1,A01B",
            ]
        )
        sub = parse_events(lines, IPC_LIKE, "subclass", year_min=1980, year_max=2011)
        cls = parse_events(lines, IPC_LIKE, "class", year_min=1980, year_max=2011)
        w_sub = build_occurrence_matrix(sub, 1998)
        w_cls = build_occurrence_matrix(cls, 1998)
        for ci, code in enumerate(w_cls.fields):
            for ri in range(len(w_cls.regions)):
                agg = sum(
                    w_sub.weights[ri, si]
                    for si, sub_code in enumerate(w_sub.fields)
                    if IPC_LIKE.ancestor_at(sub_code, "class") == code
                )
                assert abs(agg - w_cls.weights[ri, ci]) < 1e-9


# Event lines after the header. Synthetic inputs carry one code per family, so
# this file is what exercises weight splitting: families over 2 regions x 2
# codes, duplicates that collapse only after truncation to class, codes deeper
# than subclass, blank lines, one line per rejection kind and a family (F2)
# active in both years.
GOLDEN_BODY = [
    "F1,1998,r1,H01L21/02",
    "F1,1998,r1,A01B33/00",
    "F1,1998,r2,H01S3/10",
    "F1,1998,r2,A01B",
    "F1,1998,r1,H01L33/00",
    "",
    "F2,1998,r1,H01",
    "F2,1998,r3,H02",
    "F2,1999,r3,H02",
    "F2,1999,r2,A21",
    "F3,1999,r1,A01B12/00",
    "F3,1999,r1,A01B1/02",
    "F4,1998,r2,H01L",
    "   ",
    "garbage",
    ",1998,r1,H01",
    "F5,19x8,r1,H01",
    "F5,2025,r1,H01",
    "F5,1998,r1,Z99",
    "F5,1998,r1,A",
    "F6,1998,r4,A21",
    "F6,1998,r4,H02",
    "F6,1998,r1,H01",
    "F7,1998,r4,A21",
    "F7,1998,r4,H02S",
    "F7,1998,r1,H01S",
    "F8,1998,r1,H01",
    "F8,1998,r1,H02",
    "F8,1998,r2,H02",
    "F8,1998,r3,A01",
    "F8,1998,r4,A21",
    "F9, 1999 ,r4,H01L",
    "F9,1999,r4,H02",
]

GOLDEN_HASHES = {
    "index/regions.txt": "b374cd37eec0446166815f275db609e62fafc8e4d1f4c7525dc9712fa6b02998",
    "occurrence/F_1998.csv": "28892f9eb32c5e3367d7f933c168a7cf52bc24033deff7e22d836137549ca643",
    "occurrence/F_1999.csv": "97a4171c7eafff42667c844d0229dc8e9484ecbec12846017a8adf10cc43b2cb",
    "occurrence/W_1998.csv": "ee37750e692b3febe7c46499825c1bfea3acee46320f80ccc395ad2079117545",
    "occurrence/W_1999.csv": "9401d2794177776b329cb4982c50a09c2b8c6cff13d0e4f36054535469338528",
}
GOLDEN_ISSUES = [
    {"line": 16, "reason": "expected >= 4 columns, got 1"},
    {"line": 17, "reason": "empty family_id or region_id"},
    {"line": 18, "reason": "non-integer year '19x8'"},
    {"line": 19, "reason": "year 2025 outside [1998, 1999]"},
    {"line": 20, "reason": "unknown code 'Z99'"},
    {"line": 21, "reason": "unknown code 'A'"},
]


def run_golden_ingest(root, body, prefix=b""):
    """Write the events with CRLF line endings and run the ingest stage on them.

    `prefix` opens both the events and the hierarchy file.
    """
    root.mkdir(parents=True)
    events = root / "events.csv"
    lines = ["family_id,year,region_id,code", *body]
    events.write_bytes(prefix + ("\r\n".join(lines) + "\r\n").encode())
    hierarchy = root / "hierarchy.csv"
    hierarchy.write_bytes(prefix + hierarchy_to_text(IPC_LIKE).encode())
    cfg = RunConfig(
        events_path=str(events), hierarchy_path=str(hierarchy), out_dir=str(root / "run"),
        year_min=1998, year_max=1999,
    )
    paths = RunPaths(cfg.out_dir)
    paths.ensure()
    stage_ingest(cfg, paths)
    return paths


def artifact_hashes(paths):
    return {
        name: hashlib.sha256((paths.root / name).read_bytes()).hexdigest()
        for name in sorted(GOLDEN_HASHES)
    }


class TestIngestGolden:
    def test_occurrence_artifacts_match_golden(self, tmp_path):
        # recorded on the commit before the ingest rewrite
        paths = run_golden_ingest(tmp_path / "golden", GOLDEN_BODY)
        assert artifact_hashes(paths) == GOLDEN_HASHES
        report = json.loads((paths.root / "index" / "ingest_report.json").read_text())
        assert report["n_records"] == 23
        assert report["n_rejected"] == 6
        assert report["issues"] == GOLDEN_ISSUES
        assert report["rejected_by_reason"] == {
            "columns": 1, "empty_id": 1, "year_format": 1, "year_range": 1, "unknown_code": 2,
        }

    def test_carriage_returns_are_stripped(self):
        lines = "\r\n".join(["family_id,year,region_id,code", *GOLDEN_BODY, ""])
        kept = parse_events(lines.split("\n"), IPC_LIKE, "class", year_min=1998, year_max=1999)
        split = parse_events(lines.splitlines(), IPC_LIKE, "class", year_min=1998, year_max=1999)
        assert kept == split

    def test_occurrence_does_not_depend_on_line_order(self, tmp_path):
        body = list(GOLDEN_BODY)
        random.Random(5).shuffle(body)
        assert body != GOLDEN_BODY
        shuffled = run_golden_ingest(tmp_path / "shuffled", body)
        assert artifact_hashes(shuffled) == GOLDEN_HASHES

    def test_events_are_never_read_whole(self, tmp_path, monkeypatch):
        for name in ("read_text", "read_bytes"):
            def guarded(path, *args, _read=getattr(Path, name), **kwargs):
                assert path.name != "events.csv", "the events file was read whole"
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(Path, name, guarded)
        paths = run_golden_ingest(tmp_path / "streamed", GOLDEN_BODY)
        assert artifact_hashes(paths) == GOLDEN_HASHES

    def test_byte_order_mark_changes_no_byte(self, tmp_path):
        plain = run_golden_ingest(tmp_path / "plain", GOLDEN_BODY)
        marked = run_golden_ingest(tmp_path / "marked", GOLDEN_BODY, prefix=codecs.BOM_UTF8)
        assert tree_bytes(marked.root) == tree_bytes(plain.root)
        assert artifact_hashes(marked) == GOLDEN_HASHES


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# str.splitlines ends a line at each of these; "\r\n" is one break.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
READER_TEXTS = [
    *(f"h{b}a,1{b}{b}b é{b}" for b in LINE_BREAKS),  # a blank line, a final break
    *(f"h{b}a{b}€😀" for b in LINE_BREAKS),  # no final break, multi-byte last line
    "h\r\n\r\n\r\r\na\n\r\nb\r",  # \r\n pairs, lone \r, \n\r
    "é\r\n€\r\n😀\r\nx",  # every block size splits a \r\n or a character somewhere
    "",
    "no break at all",
]


class TestEventLines:
    @pytest.mark.parametrize("block", range(1, 9))
    def test_lines_and_length_equal_splitlines_at_every_block_size(
        self, tmp_path, monkeypatch, block
    ):
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        path = tmp_path / "events.csv"
        for text in READER_TEXTS:
            path.write_bytes(text.encode())
            expected = path.read_text(encoding="utf-8").splitlines()
            assert list(EventLines(path)) == expected, repr(text)
            assert len(EventLines(path)) == len(expected), repr(text)

    def test_a_block_boundary_splits_a_pair_and_a_character(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "READ_BLOCK", 3)
        path = tmp_path / "events.csv"
        path.write_bytes("ab\r\n€\n".encode())
        assert [path.read_bytes()[i:i + 3] for i in (0, 3, 6)] == [b"ab\r", b"\n\xe2\x82", b"\xac\n"]
        assert list(EventLines(path)) == ["ab", "€"]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 16])
    def test_undecodable_byte_names_its_line(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(ingest, "READ_BLOCK", block)
        path = tmp_path / "events.csv"
        # with 1-byte blocks the lone \r before the bad byte is carried
        path.write_bytes("h\r\né\r\n\n€x\r".encode() + b"\xff,1\n")
        with pytest.raises(IngestError, match=r"events\.csv: line 5 is not UTF-8 text"):
            list(EventLines(path))


# Four sections of five classes of three subclasses each.
WIDE = CodeHierarchy.from_pairs(
    [(section, None) for section in "ABCD"]
    + [(f"{s}{c:02d}", s) for s in "ABCD" for c in range(1, 6)]
    + [(f"{s}{c:02d}{k}", f"{s}{c:02d}") for s in "ABCD" for c in range(1, 6) for k in "KLM"]
)
# One line per rejection kind, for the years 1990-1995.
REJECTED_LINES = {
    "columns": "F0,1990",
    "empty_id": " ,1990,r1,A01K",
    "year_format": "F0,199O,r1,A01K",
    "year_range": "F0,1989,r1,A01K",
    "unknown_code": "F0,1990,r1,Z99",
}


def random_event_lines(seed):
    """Shuffled event lines over 1990-1995 with none in 1993, and the (family, year,
    region, raw code) of every line that is not one of REJECTED_LINES, twice each.

    Families span one or two years and up to six (region, code) pairs; a quarter
    of the lines repeat; raw codes are subclasses, deeper codes, or classes, which
    resolve at class granularity only. Family ids sort in another order as strings
    than as numbers or by first line.
    """
    rng = random.Random(seed)
    events = []
    for _ in range(rng.randint(60, 150)):
        family = f"F{rng.randrange(10**4)}"
        for year in rng.sample([1990, 1991, 1992, 1994, 1995], rng.randint(1, 2)):
            for _ in range(rng.randint(1, 6)):
                code = rng.choice(WIDE.codes_at("subclass"))
                raw = rng.choice([code, f"{code}{rng.randrange(100)}/{rng.randrange(100):02d}",
                                  code[:3]])
                events.append((family, year, f"r{rng.randrange(8)}", raw))
    events += rng.choices(events, k=len(events) // 4)
    lines = [f"{f},{y},{r},{c}" for f, y, r, c in events] + 2 * list(REJECTED_LINES.values())
    rng.shuffle(lines)
    return lines, events


@pytest.mark.parametrize("granularity", ["class", "subclass"])
@pytest.mark.parametrize("seed", range(4))
def test_columnar_ingest_matches_record_loop(seed, granularity):
    lines, events = random_event_lines(seed)
    kept = [(f, y, r, WIDE.resolve(raw, granularity)) for f, y, r, raw in events]
    kept = [event for event in kept if event[3] is not None]
    n_unknown = len(events) - len(kept)
    assert 0 < n_unknown < len(events) if granularity == "subclass" else n_unknown == 0
    reshuffled = random.Random(seed + 100).sample(lines, len(lines))
    for body in (lines, reshuffled):
        parsed = parse_events(make_lines(body), WIDE, granularity, year_min=1990, year_max=1995)
        assert parsed.regions == tuple(sorted({r for _f, _y, r, _c in kept}))
        assert parsed.codes == WIDE.codes_at(granularity)
        assert records(parsed, [f for f, _y, _r, _c in kept]) == sorted(set(kept))
        assert parsed.rejected_by_reason == {
            kind: 2 + (n_unknown if kind == "unknown_code" else 0) for kind in REJECTION_KINDS
        }
        for year in range(1990, 1996):
            w = build_occurrence_matrix(parsed, year)
            expected = occurrence_by_record_loop(kept, year, parsed.regions, parsed.codes)
            assert w.weights.tobytes() == expected.tobytes()
            assert family_field_counts(parsed, year) == field_counts_by_record_set(kept, year)
        assert not build_occurrence_matrix(parsed, 1993).weights.any()
        assert family_field_counts(parsed, 1993) == {}


# Cells that only the per-line rules read: whitespace that they strip, non-ASCII
# and long names, a NUL that a bytes array would drop, and years and codes that
# int() or the hierarchy reads otherwise, or not at all. Inner spaces, which
# neither strips, are read by both.
ODD_CELLS = {
    "family_id": [" F1", "F1\t", "\x1cF1\x1f", "\xa0F1", "\x1dF1", "Fé", "F€😀", "", "F1\x00",
                  "F", "F\x00", "F" + "x" * 80, "F" + "x" * 80 + "y", "é" * 40, "F 1", "F  1"],
    "year": ["+1990", "1_990", "１９９０", "01990", "0000001990", "1979", "2012", str(2**31),
             " 1990", "19 90", "", "x", "1990.0", "-1990"],
    "region_id": ["r1 ", "\x1er1", "ré", "", "r1\x00", "r" * 70, "r" * 70 + "\x00", "r 1"],
    "code": ["Z99", " H01L", "H01L\t", "", "h01l", "H01L21/02", "H" + "0" * 70, "H01L 21/02",
             "H01L 21/02 ", "H01 "],
}
ODD_HEADER = ("code", "extra", "region_id", "year", "family_id")


def event_corpus(header, delimiter, seed=0):
    """Shuffled event lines: good ones, each odd cell in a copy of a good one, too
    few and extra cells, and blank lines."""
    rng = random.Random(seed)
    good = [
        {"family_id": f"F{rng.randrange(40)}", "year": str(rng.randint(1980, 2011)),
         "region_id": f"r{rng.randrange(9)}", "code": rng.choice(["H01L", "A01B33/00", "H02"])}
        for _ in range(80)
    ]
    odd = [dict(rng.choice(good), **{name: cell}) for name, cells in ODD_CELLS.items()
           for cell in cells]
    rows = [[event.get(name, "extra") for name in header] for event in good + odd]
    rows += [row[:2] for row in rng.sample(rows, 3)]
    rows += [row + ["x", ""] for row in rng.sample(rows, 3)]
    lines = [delimiter.join(row) for row in rows] + ["", "   ", delimiter * 4]
    rng.shuffle(lines)
    return [delimiter.join(header), *lines]


def parse_line_by_line(lines, hierarchy, granularity, delimiter, year_min, year_max):
    """parse_events' result, built from ingest._parse_lines alone, names ranked by sorted()."""
    columns = [c.strip() for c in lines[0].split(delimiter)]
    codes = hierarchy.codes_at(granularity)

    def code_id(raw):
        code = hierarchy.resolve(raw, granularity)
        return codes.index(code) if code in codes else None

    rules = ingest._LineRules(delimiter, *map(columns.index, ingest.EVENT_COLUMNS),
                             year_min, year_max, code_id)
    out = ingest._Kept()
    ingest._parse_lines(enumerate(lines[1:], 2), rules, out)
    names = [{i: name for name, i in ids.items()} for ids in (out.family_ids, out.region_ids)]
    kept = [(names[0][f], y, names[1][r], c) for f, y, r, c in zip(*out.columns)]
    families, regions = ({name: i for i, name in enumerate(sorted({e[k] for e in kept}))}
                         for k in (0, 2))
    events = sorted({(families[f], y, regions[r], c) for f, y, r, c in kept})
    return ingest.ParseResult(
        tuple(regions), codes, *(np.array(column, dtype=np.int64) for column in zip(*events)),
        out.issues,
    )


@pytest.mark.parametrize("batch", [1, 2, 3, 7, ingest.PARSE_BATCH])
@pytest.mark.parametrize("delimiter", [",", "\t", "::"])
def test_parse_equals_the_per_line_rules(monkeypatch, batch, delimiter):
    monkeypatch.setattr(ingest, "PARSE_BATCH", batch)
    for header in (ingest.EVENT_COLUMNS, ODD_HEADER):
        lines = event_corpus(header, delimiter)
        expected = parse_line_by_line(lines, IPC_LIKE, "class", delimiter, 1980, 2011)
        assert min(expected.rejected_by_reason.values()) > 0
        assert len(expected.family) > 80
        parsed = parse_events(lines, IPC_LIKE, "class", delimiter=delimiter,
                              year_min=1980, year_max=2011)
        assert parsed == expected


@pytest.mark.parametrize("batch", [1, 3, ingest.PARSE_BATCH])
def test_ranks_follow_str_order(monkeypatch, batch):
    monkeypatch.setattr(ingest, "PARSE_BATCH", batch)
    long = "a" * ingest.NAME_BYTES
    names = [
        "b", "a", "a\x00", "a\x00\x00", "ab", "A", "\xe9", "e\u0301", "\u20ac", "\U0001f600",
        "z" * 30, long[1:], long[1:] + "\x00", long, long + "\x00", long[1:] + "\x00b",
        long + "b", long + "c", long * 2, "\xe9" * 40, "\ud800", "\uffff",
    ]
    for order in (names, names[::-1], random.Random(batch).sample(names, len(names))):
        lines = [f"{name},1990,{name},H01" for name in order]
        parsed = parse_events(make_lines(lines), IPC_LIKE, "class", year_min=1980, year_max=2011)
        assert parsed.regions == tuple(sorted(names))
        assert records(parsed, names) == sorted((name, 1990, name, "H01") for name in names)


def test_a_code_longer_than_name_bytes_resolves_whole():
    # cut to NAME_BYTES, the code would resolve to Q1
    long_class = "Q" + "1" * ingest.NAME_BYTES
    hierarchy = CodeHierarchy.from_pairs([("Q", None), ("Q1", "Q"), (long_class, "Q")])
    parsed = parse_events(make_lines([f"F1,1990,r1,{long_class}"]), hierarchy, "class")
    assert records(parsed, ["F1"]) == [("F1", 1990, "r1", long_class)]


def test_canonical_lines_skip_the_per_line_rules(monkeypatch):
    calls, parse_lines = [], ingest._parse_lines

    def counted(numbered, rules, kept):
        numbered = list(numbered)
        calls.extend(line_no for line_no, _line in numbered)
        return parse_lines(numbered, rules, kept)

    monkeypatch.setattr(ingest, "_parse_lines", counted)
    synth = generate_events(SynthConfig(n_regions=100, n_fields=12, n_sections=3, year_min=1990,
                                        year_max=1993, baseline_presence=0.2, master_seed=3))
    hierarchy = parse_hierarchy(synth.hierarchy_text)
    lines = synth.events_text.splitlines()
    parsed = parse_events(lines, hierarchy, "class", year_min=1990, year_max=1993)
    assert calls == [] and parsed.n_rejected == 0 and len(parsed.family) == len(lines) - 1
    # an inner space, kept by the per-line rules too, leaves a line canonical
    spaced = [lines[0], *(line + " 21/02" for line in lines[1:])]
    assert parse_events(spaced, hierarchy, "class", year_min=1990, year_max=1993) == parsed
    assert calls == []

    odd = ["", " " + lines[1], lines[2].replace(",199", ",+199"), lines[3] + "\r",
           lines[4].replace(",", ";"), lines[5].replace(",199", ",0000000199")]
    at = sorted(random.Random(1).sample(range(2, len(lines) + len(odd)), len(odd)))
    for line_no, line in zip(at, odd):
        lines.insert(line_no - 1, line)
    parse_events(lines, hierarchy, "class", year_min=1990, year_max=1993)
    assert calls == at


def test_mostly_odd_batches_skip_the_numpy_pass(monkeypatch):
    monkeypatch.setattr(ingest, "PARSE_BATCH", 4)
    looked_at, canonical_lines = [], ingest._canonical_lines

    def counted(batch, rules):
        looked_at.append(batch[0])
        return canonical_lines(batch, rules)

    monkeypatch.setattr(ingest, "_canonical_lines", counted)
    odd = [f"F{i},1990,r1, H01" for i in range(40)]  # a code with a leading space
    good = [f"F{i},1991,r{i % 3},H01" for i in range(40, 80)]
    lines = make_lines(odd + good)  # batches 0-9 are odd, 10-19 canonical
    parsed = parse_events(lines, IPC_LIKE, "class", year_min=1980, year_max=2011)
    assert parsed == parse_line_by_line(lines, IPC_LIKE, "class", ",", 1980, 2011)
    assert looked_at == [lines[1 + 4 * n] for n in (0, 8, 16, 17, 18, 19)]
