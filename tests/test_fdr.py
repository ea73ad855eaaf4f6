import numpy as np
import pytest

from technet.fdr import bh_fdr, bh_reject, build_adjacency, network_from_text, network_to_text
from technet.nullmodel import PvalueMatrix

from oracles import bh_stepup_bruteforce


def make_pvalue_matrix(exceed_counts, n_replicates, source_active=None, year=1998):
    counts = np.asarray(exceed_counts, dtype=np.int64)
    n = counts.shape[0]
    fields = tuple(f"f{i:02d}" for i in range(n))
    if source_active is None:
        source_active = np.ones(n, dtype=bool)
    return PvalueMatrix(
        base_year=year,
        fields=fields,
        n_replicates=n_replicates,
        exceed_counts=counts,
        source_active=np.asarray(source_active, dtype=bool),
    )


class TestBhFdr:
    """Benjamini-Hochberg step-up selection as `bh_reject` makes it."""

    def test_all_ones_rejects_nothing(self):
        assert set(bh_reject([1.0] * 6, 0.05).tolist()) == set()

    def test_bh_fdr_keeps_the_keys_of_bh_reject(self):
        pairs = [("a", 0.001), ("b", 0.5), ("c", 0.02), ("d", 0.04)]
        kept = bh_reject([p for _key, p in pairs], 0.05)
        assert bh_fdr(pairs, 0.05) == {pairs[i][0] for i in kept} == {"a", "c"}

    def test_hand_example_all_four_significant(self):
        assert set(bh_reject([0.001, 0.02, 0.03, 0.04], 0.05).tolist()) == {0, 1, 2, 3}

    def test_q_bounds(self):
        with pytest.raises(ValueError):
            bh_reject([0.5], 0.0)
        with pytest.raises(ValueError):
            bh_reject([0.5], 1.0)
        with pytest.raises(ValueError):
            bh_reject([], 0.05)

    def test_tie_groups_are_all_or_nothing(self):
        # four ties at 0.04 with m=4, q=0.05: 0.04 <= 4*0.05/4 at the last rank
        assert set(bh_reject([0.04] * 4, 0.05).tolist()) == {0, 1, 2, 3}

    def test_matches_quadratic_stepup_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            m = int(rng.integers(1, 120))
            style = rng.integers(0, 3)
            if style == 0:
                p = rng.random(m)
            elif style == 1:
                p = rng.integers(0, 51, m) / 50.0  # discrete grid with ties
            else:
                p = np.concatenate([rng.random(m // 2 + 1) * 0.02,
                                    rng.random(m - m // 2 - 1)])[:m]
            q = float(rng.uniform(0.01, 0.3))
            got = set(bh_reject(p, q).tolist())
            assert got == bh_stepup_bruteforce(p.tolist(), q)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(13)
        p = rng.random(40)
        previous: set = set()
        for q in (0.01, 0.05, 0.1, 0.2, 0.4):
            current = set(bh_reject(p, q).tolist())
            assert previous <= current
            previous = current


class TestBuildAdjacency:
    def test_all_ones_empty_network(self):
        pv = make_pvalue_matrix(np.full((4, 4), 100), 100)
        net = build_adjacency(pv, q=0.05)
        assert net.n_links == 0

    def test_finite_k_floor_blocks_addone_basis(self):
        # one link strictly above all 1000 nulls among 121x120 tested pairs:
        # the add-one floor 1/1001 exceeds the BH line 0.05/14520, so the
        # conservative basis emits nothing
        counts = np.full((121, 121), 1000)
        counts[3, 7] = 0
        pv = make_pvalue_matrix(counts, 1000)
        assert build_adjacency(pv, q=0.05, basis="addone").n_links == 0
        # the percentile basis keeps the extreme link (raw p = 0)
        net = build_adjacency(pv, q=0.05, basis="percentile")
        assert net.n_links == 1
        assert net.adjacency[3, 7] == 1

    def test_diagonal_excluded_by_default(self):
        counts = np.full((3, 3), 50)
        np.fill_diagonal(counts, 0)
        pv = make_pvalue_matrix(counts, 50)
        assert build_adjacency(pv, q=0.05).n_links == 0
        with_diag = build_adjacency(pv, q=0.05, include_diagonal=True)
        assert with_diag.n_links == 3
        assert np.all(with_diag.adjacency.diagonal() == 1)

    def test_inactive_sources_never_emit_links(self):
        counts = np.zeros((3, 3), dtype=np.int64)  # everything maximally extreme
        pv = make_pvalue_matrix(counts, 50, source_active=[True, False, True])
        net = build_adjacency(pv, q=0.05)
        assert net.adjacency[1].sum() == 0
        assert net.adjacency[0].sum() == 2 and net.adjacency[2].sum() == 2

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 30, (8, 8))
        pv = make_pvalue_matrix(counts, 29)
        a = build_adjacency(pv, q=0.1)
        b = build_adjacency(pv, q=0.1)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_basis_validation(self):
        pv = make_pvalue_matrix(np.full((2, 2), 10), 10)
        with pytest.raises(ValueError):
            build_adjacency(pv, basis="bonferroni")


def test_network_edge_list_round_trip():
    counts = np.full((4, 4), 40)
    counts[0, 1] = counts[2, 0] = counts[3, 2] = 0
    pv = make_pvalue_matrix(counts, 40)
    net = build_adjacency(pv, q=0.05)
    text = network_to_text(net)
    assert text.splitlines() == sorted(text.splitlines())
    again = network_from_text(text, net.fields, year=net.year)
    assert np.array_equal(again.adjacency, net.adjacency)


def test_empty_network_round_trip_needs_year():
    counts = np.full((2, 2), 10)
    net = build_adjacency(make_pvalue_matrix(counts, 10), q=0.05)
    text = network_to_text(net)
    assert text == ""
    again = network_from_text(text, net.fields, year=1998)
    assert again.n_links == 0
    with pytest.raises(ValueError):
        network_from_text(text, net.fields)
