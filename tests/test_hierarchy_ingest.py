import numpy as np
import pytest

from technet.hierarchy import CodeHierarchy, HierarchyError, hierarchy_to_text, parse_hierarchy
from technet.ingest import (
    EventRecord,
    IngestError,
    build_occurrence_matrix,
    occurrence_from_text,
    occurrence_to_text,
    parse_events,
    split_family_weights,
)

IPC_LIKE = CodeHierarchy.from_pairs(
    [
        ("A", None), ("H", None),
        ("A01", "A"), ("A21", "A"), ("H01", "H"), ("H02", "H"),
        ("A01B", "A01"), ("H01L", "H01"), ("H01S", "H01"),
    ]
)


def make_lines(rows, header="family_id,year,region_id,code"):
    return [header] + rows


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
        result = parse_events(
            make_lines(["F1,1998,DE-A1,H01L"]), IPC_LIKE, "class",
            year_min=1980, year_max=2011,
        )
        assert result.records == [EventRecord("F1", 1998, "DE-A1", "H01")]
        assert result.n_rejected == 0

    def test_collapses_subgroup_duplicates(self):
        result = parse_events(
            make_lines(["F1,1998,DE-A1,H01L21", "F1,1998,DE-A1,H01L33"]),
            IPC_LIKE, "class", year_min=1980, year_max=2011,
        )
        assert len(result.records) == 1

    def test_rejects_out_of_range_year(self):
        result = parse_events(
            make_lines(["F1,2025,DE-A1,H01L"]), IPC_LIKE, "class",
            year_min=1980, year_max=2011,
        )
        assert result.records == []
        assert result.n_rejected == 1
        assert "2025" in result.issues[0].reason

    def test_malformed_line_reports_line_number(self):
        result = parse_events(
            make_lines(["F1,1998,DE-A1,H01L", "garbage-line", "F2,1999,FR-B2,A01B"]),
            IPC_LIKE, "class", year_min=1980, year_max=2011,
        )
        assert len(result.records) == 2
        assert result.issues[0].line_no == 3

    def test_unknown_code_counted(self):
        result = parse_events(
            make_lines(["F1,1998,DE-A1,Z99X"]), IPC_LIKE, "class",
            year_min=1980, year_max=2011,
        )
        assert result.records == []
        assert result.n_rejected == 1

    def test_missing_header_column_is_error(self):
        with pytest.raises(IngestError):
            parse_events(["family_id,year,code", "F1,1998,H01L"], IPC_LIKE, "class")

    def test_custom_delimiter(self):
        result = parse_events(
            ["family_id;year;region_id;code", "F1;1998;DE-A1;H01L"],
            IPC_LIKE, "class", delimiter=";", year_min=1980, year_max=2011,
        )
        assert result.records[0].code == "H01"


class TestSplitFamilyWeights:
    def test_single_pair_gets_unit_weight(self):
        records = [EventRecord("F1", 1998, "r1", "H01")]
        assert split_family_weights(records) == [("r1", "H01", 1.0)]

    def test_four_pairs_quarter_each(self):
        records = [
            EventRecord("F1", 1998, "r1", "H01"),
            EventRecord("F1", 1998, "r1", "A01"),
            EventRecord("F1", 1998, "r2", "H01"),
            EventRecord("F1", 1998, "r2", "A01"),
        ]
        shares = split_family_weights(records)
        assert len(shares) == 4
        assert all(w == 0.25 for _, _, w in shares)
        assert sum(w for _, _, w in shares) == 1.0

    def test_three_unique_pairs_third_each(self):
        # hand enumeration: {(r1,i), (r1,j), (r2,i)} -> three entries of 1/3
        records = [
            EventRecord("F1", 1998, "r1", "H01"),
            EventRecord("F1", 1998, "r1", "A01"),
            EventRecord("F1", 1998, "r2", "H01"),
            EventRecord("F1", 1998, "r2", "H01"),  # duplicate pair collapses
        ]
        shares = split_family_weights(records)
        assert sorted(s[:2] for s in shares) == [("r1", "A01"), ("r1", "H01"), ("r2", "H01")]
        assert all(abs(w - 1 / 3) < 1e-15 for _, _, w in shares)

    def test_empty_group_is_error(self):
        with pytest.raises(IngestError):
            split_family_weights([])

    def test_mixed_family_is_error(self):
        with pytest.raises(IngestError):
            split_family_weights(
                [EventRecord("F1", 1998, "r1", "H01"), EventRecord("F2", 1998, "r1", "H01")]
            )


class TestBuildOccurrenceMatrix:
    def test_empty_year_gives_zero_mass(self):
        w = build_occurrence_matrix([], 1998, regions=("r1",), fields=("H01",))
        assert w.total_mass == 0.0

    def test_two_families_same_cell(self):
        records = [
            EventRecord("F1", 1998, "r1", "H01"),
            EventRecord("F2", 1998, "r1", "H01"),
        ]
        w = build_occurrence_matrix(records, 1998)
        assert w.weights[0, 0] == 2.0

    def test_hand_summed_shares(self):
        # F1 splits over (r1, H01), (r1, A01); F2 entirely (r1, H01)
        records = [
            EventRecord("F1", 1998, "r1", "H01"),
            EventRecord("F1", 1998, "r1", "A01"),
            EventRecord("F2", 1998, "r1", "H01"),
        ]
        w = build_occurrence_matrix(records, 1998)
        by_code = dict(zip(w.fields, w.weights[0]))
        assert by_code["H01"] == 1.5
        assert by_code["A01"] == 0.5

    def test_mass_conservation_property(self):
        rng = np.random.default_rng(5)
        regions = [f"r{i}" for i in range(6)]
        codes = ["A01", "A21", "H01", "H02"]
        for _ in range(25):
            n_families = int(rng.integers(1, 12))
            records = []
            for f in range(n_families):
                for _ in range(int(rng.integers(1, 5))):
                    records.append(
                        EventRecord(
                            f"F{f}", 1998,
                            regions[rng.integers(0, len(regions))],
                            codes[rng.integers(0, len(codes))],
                        )
                    )
            w = build_occurrence_matrix(records, 1998)
            assert abs(w.total_mass - n_families) < 1e-9


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
        w_sub = build_occurrence_matrix(sub.records, 1998)
        w_cls = build_occurrence_matrix(cls.records, 1998)
        for ci, code in enumerate(w_cls.fields):
            for ri in range(len(w_cls.regions)):
                agg = sum(
                    w_sub.weights[ri, si]
                    for si, sub_code in enumerate(w_sub.fields)
                    if IPC_LIKE.ancestor_at(sub_code, "class") == code
                )
                assert abs(agg - w_cls.weights[ri, ci]) < 1e-9
