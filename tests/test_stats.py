import math

import numpy as np
import pytest

from technet.acs import decompose, decomposition_from_text, decomposition_to_text
from technet.hierarchy import CodeHierarchy
from technet.ingest import EventRecord
from technet.stats import (
    CHI2_DF7_CRITICAL_5PCT,
    StatsError,
    acs_section_counts,
    family_field_counts,
    fit_noncentral_weights,
    fnch_loglik,
    log_fnch_normalizer,
    ordered_adjacency_text,
    section_mixing,
    section_occupancy,
    subset_fitness,
    variety_llr,
)

from drivers import net_from_edges
from oracles import (
    fnch_loglik_bruteforce,
    fnch_normalizer_bruteforce,
    log_fnch_normalizer_logspace,
)

TWO_SECTIONS = CodeHierarchy.from_pairs(
    [("A", None), ("H", None),
     ("A01", "A"), ("A21", "A"), ("H01", "H"), ("H02", "H")]
)


def labels_of(net):
    """Field -> label mapping as the stats stage reads it from acs/labels_<year>.csv."""
    return decomposition_from_text(decomposition_to_text(decompose(net)), net.fields)


def records_for(families):
    out = []
    for fam, year, pairs in families:
        for region, code in pairs:
            out.append(EventRecord(fam, year, region, code))
    return out


class TestFitness:
    def test_absent_field_zero(self):
        records = records_for([("F1", 1998, [("r1", "A01")])])
        assert family_field_counts(records, 1998).get("H01", 0) == 0

    def test_three_families_featuring_field(self):
        records = records_for([
            ("F1", 1998, [("r1", "H01")]),
            ("F2", 1998, [("r2", "H01"), ("r2", "A01")]),
            ("F3", 1998, [("r1", "H01")]),
            ("F4", 1997, [("r1", "H01")]),
        ])
        assert family_field_counts(records, 1998).get("H01", 0) == 3

    def test_multi_code_family_counts_once_per_field(self):
        # totals across fields may exceed the family count
        records = records_for([
            ("F1", 1998, [("r1", "H01"), ("r1", "A01")]),
            ("F2", 1998, [("r1", "H01")]),
            ("F3", 1998, [("r2", "A01")]),
        ])
        counts = family_field_counts(records, 1998)
        assert counts == {"H01": 2, "A01": 2}
        assert sum(counts.values()) > 3 - 1  # 4 field hits from 3 families


class TestSubsetFitness:
    def test_all_outside_rest_share_one(self):
        net = net_from_edges(3, [])
        d = labels_of(net)
        rows = {r.subset: r for r in subset_fitness(d, {"N00": 1, "N01": 2, "N02": 3})}
        assert rows["outside"].fitness_share == 1.0
        assert rows["core"].average is None
        assert rows["core"].total == 0.0

    def test_hand_computed_averages_and_shares(self):
        # core {a, b} with fitness {10, 20}; rest {c} with 30
        net = net_from_edges(3, [(0, 1), (1, 0)])
        d = labels_of(net)
        fitness = {"N00": 10, "N01": 20, "N02": 30}
        rows = {r.subset: r for r in subset_fitness(d, fitness)}
        assert rows["core"].average == 15.0
        assert rows["outside"].average == 30.0
        assert rows["core"].fitness_share == 0.5
        assert rows["acs"].total == 30.0

    def test_unknown_label_is_error(self):
        with pytest.raises(StatsError):
            subset_fitness({"N00": "core", "N01": "inside"}, {"N00": 1})

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(41)
        net = net_from_edges(6, [(0, 1), (1, 0), (1, 2), (2, 3)])
        d = labels_of(net)
        fitness = {f: int(rng.integers(0, 50)) + 1 for f in net.fields}
        rows = {r.subset: r for r in subset_fitness(d, fitness)}
        total_share = sum(
            rows[name].fitness_share for name in ("core", "periphery", "outside")
        )
        assert abs(total_share - 1.0) < 1e-12
        node_share = sum(rows[n].node_share for n in ("core", "periphery", "outside"))
        assert abs(node_share - 1.0) < 1e-12


class TestFnchLikelihood:
    def test_normalizer_equals_central_binomial_at_unit_odds(self):
        sizes = [10, 10, 10, 10]
        ln = log_fnch_normalizer(sizes, [0.0] * 4, 20)
        assert abs(ln - math.log(math.comb(40, 20))) < 1e-10

    def test_normalizer_matches_bruteforce_exhaustive_small(self):
        rng = np.random.default_rng(42)
        for k in (1, 2, 3):
            for total in range(k, 11):
                # one random ordered composition per (k, total) plus ladders
                for _ in range(3):
                    cuts = sorted(rng.choice(np.arange(1, total), size=k - 1,
                                             replace=False).tolist()) if k > 1 else []
                    sizes = np.diff([0] + cuts + [total]).astype(int).tolist()
                    omegas = np.exp(rng.uniform(-1.5, 1.5, k)).tolist()
                    for n in range(0, total + 1):
                        mine = log_fnch_normalizer(sizes, np.log(omegas), n)
                        brute = fnch_normalizer_bruteforce(sizes, omegas, n)
                        assert abs(mine - math.log(brute)) < 1e-10

    def test_loglik_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            k = int(rng.integers(2, 6))
            sizes = rng.integers(1, 7, k).tolist()
            counts = [int(rng.integers(0, s + 1)) for s in sizes]
            omegas = np.exp(rng.uniform(-2, 2, k)).tolist()
            mine = fnch_loglik(counts, sizes, np.log(omegas))
            brute = fnch_loglik_bruteforce(counts, sizes, omegas)
            assert abs(mine - brute) < 1e-10

    def test_likelihood_invariant_under_odds_rescaling(self):
        counts = [3, 1, 5, 2]
        sizes = [6, 4, 8, 5]
        base = fnch_loglik(counts, sizes, np.log([1.0, 0.5, 2.0, 1.3]))
        for c in (0.1, 3.0, 40.0):
            rescaled = fnch_loglik(counts, sizes, np.log(np.array([1.0, 0.5, 2.0, 1.3]) * c))
            assert abs(base - rescaled) < 1e-9

    def test_wide_dynamic_range_path(self):
        # odds of 1e6 and 1e-6: coefficients of the factors span hundreds of e-folds
        sizes = [30, 30, 30, 31]
        lo = np.log([1e6, 1e-6, 1.0, 1e6])
        n = 60
        ln = log_fnch_normalizer(sizes, lo, n)
        assert np.isfinite(ln)
        # dominant term: all 60 draws from the two omega=1e6 sections
        assert ln >= 60 * math.log(1e6)

    def test_normalizer_matches_logspace_oracle_at_600_fields(self):
        # subclass scale, 8 sections of 75; n up to one short of all 600
        sizes = [75] * 8
        wide = math.log(1e6)
        rng = np.random.default_rng(600)
        log_omegas = [rng.uniform(-3.0, 3.0, 8) for _ in range(50)]
        log_omegas += [rng.choice([-wide, wide], 8) for _ in range(3)]
        log_omegas.append(np.concatenate((rng.uniform(-3.0, 3.0, 4), [wide, -wide] * 2)))
        for lo in log_omegas:
            for n in (1, 40, 300, 595, 599):
                oracle = log_fnch_normalizer_logspace(sizes, lo.tolist(), n)
                mine = log_fnch_normalizer(sizes, lo, n)
                assert abs(mine - oracle) <= 1e-10 * abs(oracle), (lo.tolist(), n)


class TestFitNoncentralWeights:
    def test_proportional_counts_give_unit_odds(self):
        fit = fit_noncentral_weights([5, 5, 5, 5], [10, 10, 10, 10])
        assert np.allclose(fit.omega, 1.0, atol=1e-4)
        assert not fit.boundary

    def test_two_section_boundary_toy_is_exact(self):
        # counts (2, 0) of sizes (2, 2): both sections are on the boundary, so
        # nothing is fitted; the supremum puts both draws in the full section
        fit = fit_noncentral_weights([2, 0], [2, 2])
        assert fit.boundary
        assert fit.omega == (None, None)
        assert fit.loglik == 0.0
        res = variety_llr([2, 0], [2, 2])
        assert res.boundary
        assert abs(res.llr - 2 * math.log(6)) <= 1e-12  # null puts 1/C(4, 2) on it

    def test_boundary_sections_are_dropped_from_the_fit(self):
        # an empty and a full section among free ones: the free sections' odds
        # are the MLE of the reduced problem, relative to the first free one
        counts, sizes = [0, 3, 6, 1, 4], [5, 6, 6, 4, 7]
        fit = fit_noncentral_weights(counts, sizes)
        reduced = fit_noncentral_weights([3, 1, 4], [6, 4, 7])
        assert fit.boundary and not reduced.boundary
        assert fit.omega[0] is None and fit.omega[2] is None and fit.omega[1] == 1.0
        assert (fit.omega[1], *fit.omega[3:]) == reduced.omega
        assert fit.loglik == reduced.loglik
        assert fit.loglik >= fnch_loglik([3, 1, 4], [6, 4, 7], np.zeros(3))

    def test_mle_beats_null_likelihood(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            sizes = rng.integers(2, 8, 4).tolist()
            counts = [int(rng.integers(0, s + 1)) for s in sizes]
            fit = fit_noncentral_weights(counts, sizes)
            null = fnch_loglik(counts, sizes, np.zeros(4))
            assert fit.loglik >= null - 1e-9

    def test_infeasible_counts_error(self):
        with pytest.raises(StatsError):
            fit_noncentral_weights([5], [4])
        with pytest.raises(StatsError):
            fit_noncentral_weights([], [])


class TestVarietyLlr:
    def test_proportional_counts_not_significant(self):
        res = variety_llr([5, 5, 5, 5], [10, 10, 10, 10])
        assert res.llr < 1e-6
        assert not res.significant

    def test_df7_uses_tabulated_critical_value(self):
        res = variety_llr([5, 5, 5, 5, 5, 5, 5, 5], [15] * 8)
        assert res.df == 7
        assert res.critical_value == 14.07
        assert CHI2_DF7_CRITICAL_5PCT == 14.07

    def test_concentrated_counts_significant(self):
        # one section fills the ACS on sizes mimicking 8 sections of ~15
        res = variety_llr([12, 0, 0, 0, 0, 0, 0, 0], [15] * 8)
        assert res.llr > 14.07
        assert res.significant
        # as the other odds go to 0 the composition becomes certain: the
        # supremum log-likelihood is 0
        null = fnch_loglik_bruteforce([12, 0, 0, 0, 0, 0, 0, 0], [15] * 8, [1.0] * 8)
        assert abs(res.llr + 2 * null) <= 1e-9

    @pytest.mark.parametrize(
        "counts, size, exact_llr",
        [
            # 1980: three full sections of 75 and five at 74; the supremum puts
            # the 5 absent fields among the 375 of the five short sections
            ((75, 74, 74, 75, 74, 74, 74, 75), 75,
             2 * math.log(math.comb(600, 5) / math.comb(375, 5))),
            # 1983: seven full sections and one at 74; the absent field is in
            # the short section with likelihood 1, against 1/8 under the null
            ((74, 75, 75, 75, 75, 75, 75, 75), 75, 2 * math.log(8)),
            # the same at class scale: seven full sections of 15 and H at 14
            ((15, 15, 15, 15, 15, 15, 15, 14), 15, 2 * math.log(8)),
            # all 3 ACS fields in A: certain once the other odds go to 0
            ((3, 0, 0, 0, 0, 0, 0, 0), 15, 2 * math.log(math.comb(120, 3) / math.comb(15, 3))),
        ],
        ids=["1980", "1983", "seven-full-classes", "one-occupied-class"],
    )
    def test_subclass_boundary_composition_matches_closed_form(self, counts, size, exact_llr):
        # the supremum lies at infinite odds ratios, where the likelihood is
        # that of the free sections alone; a lone free section has odds 1
        res = variety_llr(list(counts), [size] * 8)
        assert res.boundary
        assert not res.significant
        assert abs(res.llr - exact_llr) <= 1e-9
        assert [w is None for w in res.omega] == [c in (0, size) for c in counts]
        # the free sections are equally filled, so their odds stay at 1
        assert all(abs(w - 1.0) <= 1e-9 for w in res.omega if w is not None)

    def test_section_order_does_not_change_the_test(self):
        rng = np.random.default_rng(46)
        sizes = [15, 12, 15, 9, 15, 14, 15, 11]
        compositions = [
            [15, 3, 0, 9, 7, 0, 2, 11],
            [4, 5, 6, 2, 3, 4, 5, 1],
            [15, 12, 15, 9, 15, 14, 15, 10],
        ]
        for counts in compositions:
            res = variety_llr(counts, sizes)
            for _ in range(3):
                order = rng.permutation(8)
                permuted = variety_llr([counts[i] for i in order], [sizes[i] for i in order])
                assert abs(permuted.llr - res.llr) <= 1e-9
                assert permuted.boundary == res.boundary
                assert [permuted.omega[j] is None for j in range(8)] == [
                    res.omega[i] is None for i in order
                ]

    def test_empty_acs_not_applicable(self):
        res = variety_llr([0, 0], [5, 5])
        assert not res.applicable
        assert not res.significant
        assert math.isnan(res.llr)
        assert res.boundary and res.omega == (None, None)


class TestSectionStats:
    def test_mixing_single_section(self):
        net = net_from_edges(2, [(0, 1), (1, 0)])
        net = net.__class__(year=net.year, fields=("A01", "A21"),
                            adjacency=net.adjacency)
        mix = section_mixing(net, TWO_SECTIONS)
        assert mix.within == 2 and mix.between == 0

    def test_mixing_hand_classified(self):
        net = net_from_edges(3, [(0, 1), (0, 2)])
        net = net.__class__(year=net.year, fields=("A01", "A21", "H01"),
                            adjacency=net.adjacency)
        mix = section_mixing(net, TWO_SECTIONS)
        assert mix.within == 1 and mix.between == 1
        assert mix.total == 2

    def test_unmapped_field_is_error(self):
        net = net_from_edges(2, [(0, 1)])
        net = net.__class__(year=net.year, fields=("A01", "Z99"),
                            adjacency=net.adjacency)
        with pytest.raises(StatsError):
            section_mixing(net, TWO_SECTIONS)

    def test_mixing_counts_sum_to_edges(self):
        rng = np.random.default_rng(45)
        fields = ("A01", "A21", "H01", "H02")
        for _ in range(20):
            adj = (rng.random((4, 4)) < 0.4).astype(np.uint8)
            np.fill_diagonal(adj, 0)
            net = net_from_edges(4, zip(*np.nonzero(adj)))
            net = net.__class__(year=net.year, fields=fields,
                                adjacency=net.adjacency)
            mix = section_mixing(net, TWO_SECTIONS)
            assert mix.total == int(adj.sum())

    def test_ordered_adjacency_blocks(self):
        net = net_from_edges(4, [(0, 1), (2, 3)])
        net = net.__class__(year=net.year, fields=("H01", "A01", "H02", "A21"),
                            adjacency=net.adjacency)
        grid, bounds = ordered_adjacency_text(net, TWO_SECTIONS)
        lines = grid.splitlines()
        assert lines[0] == "field,A01,A21,H01,H02"
        assert bounds.splitlines() == ["section,start,end", "A,0,2", "H,2,4"]
        # H01 -> A01 link lands at row H01, column A01
        row = dict(zip(("A01", "A21", "H01", "H02"), range(4)))
        cells = [ln.split(",")[1:] for ln in lines[1:]]
        assert cells[row["H01"]][row["A01"]] == "1"
        assert cells[row["H02"]][row["A21"]] == "1"

    def test_occupancy_empty_acs(self):
        net = net_from_edges(4, [])
        net = net.__class__(year=net.year, fields=("A01", "A21", "H01", "H02"),
                            adjacency=net.adjacency)
        rows = section_occupancy(labels_of(net), TWO_SECTIONS)
        assert all(r.acs_fraction == 0.0 for r in rows)
        assert all(r.share_of_acs is None for r in rows)

    def test_occupancy_full_section_fraction_one(self):
        # both H classes on a cycle: section H entirely inside the ACS
        net = net_from_edges(4, [(2, 3), (3, 2)])
        net = net.__class__(year=net.year, fields=("A01", "A21", "H01", "H02"),
                            adjacency=net.adjacency)
        d = labels_of(net)
        rows = {r.section: r for r in section_occupancy(d, TWO_SECTIONS)}
        assert rows["H"].acs_fraction == 1.0
        assert rows["A"].acs_fraction == 0.0
        assert rows["H"].share_of_acs == 1.0
        assert rows["A"].share_of_outside == 1.0

    def test_acs_section_counts_match_manual(self):
        net = net_from_edges(4, [(0, 1), (1, 0), (1, 2)])
        net = net.__class__(year=net.year, fields=("A01", "A21", "H01", "H02"),
                            adjacency=net.adjacency)
        sections, counts, sizes = acs_section_counts(labels_of(net), TWO_SECTIONS)
        assert sections == ("A", "H")
        assert counts == [2, 1]
        assert sizes == [2, 2]
