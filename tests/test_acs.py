import numpy as np
import pytest

from technet import acs, artifacts
from technet.acs import decompose, decomposition_from_text, decomposition_to_text

from drivers import net_from_edges, random_digraph, random_single_acs
from oracles import (
    acs_groups_bool_powers,
    acs_groups_scipy_csgraph,
    cycle_nodes_bool_powers,
    has_cycle_bool_powers,
    reachable_bool_powers,
)

# sparse graphs of up to 40 nodes: few cores, long periphery chains
SPARSE40 = {"n_max": 40, "density_range": (0.01, 0.06)}


def with_sparse40(small):
    """Run an oracle check on `random_digraph(rng, **small)` graphs, then on SPARSE40 ones."""
    return pytest.mark.parametrize("graphs", [small, SPARSE40], ids=["small", "sparse40"])


class TestFindCore:
    def test_acyclic_chain_has_empty_core(self):
        assert decompose(net_from_edges(3, [(0, 1), (1, 2)])).core == frozenset()

    def test_two_cycle_with_pendant(self):
        net = net_from_edges(3, [(0, 1), (1, 0), (1, 2)])
        assert decompose(net).core == {"N00", "N01"}

    def test_self_loop_counts_as_cycle(self):
        assert decompose(net_from_edges(2, [(0, 0)])).core == {"N00"}

    @with_sparse40({"n_max": 10})
    def test_matches_bool_power_oracle_on_random_graphs(self, graphs):
        rng = np.random.default_rng(21)
        for _ in range(120):
            adj = random_digraph(rng, **graphs)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            expect = {net.fields[i] for i in cycle_nodes_bool_powers(adj)}
            assert decompose(net).core == expect


class TestFindPeriphery:
    def test_empty_core_empty_periphery(self):
        d = decompose(net_from_edges(3, [(0, 1), (1, 2)]))
        assert d.core == frozenset()
        assert d.periphery == frozenset()

    def test_two_cycle_tail(self):
        net = net_from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        assert decompose(net).periphery == {"N02", "N03"}

    def test_node_feeding_into_core_stays_outside(self):
        net = net_from_edges(3, [(0, 1), (1, 0), (2, 0)])
        d = decompose(net)
        assert "N02" in d.outside
        assert d.periphery == frozenset()

    @with_sparse40({"n_max": 10})
    def test_matches_reachability_oracle(self, graphs):
        rng = np.random.default_rng(22)
        for _ in range(100):
            adj = random_digraph(rng, **graphs)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            core_idx = cycle_nodes_bool_powers(adj)
            expect = {
                net.fields[i]
                for i in reachable_bool_powers(adj, core_idx) - core_idx
            }
            assert decompose(net).periphery == expect


class TestDistinctAcs:
    def test_one_cycle_one_acs(self):
        net = net_from_edges(3, [(0, 1), (1, 0), (1, 2)])
        acs_list = decompose(net).acs_list
        assert len(acs_list) == 1
        assert acs_list[0].core == {"N00", "N01"}
        assert acs_list[0].periphery == {"N02"}

    def test_two_disjoint_cycles_two_acs(self):
        net = net_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert len(decompose(net).acs_list) == 2

    def test_path_joined_cycles_merge(self):
        net = net_from_edges(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)])
        acs_list = decompose(net).acs_list
        assert len(acs_list) == 1
        assert acs_list[0].core == {"N00", "N01", "N03", "N04"}

    def test_core_reaching_two_cores_joins_all_three(self):
        # the two downstream cycles share no path; each joins the upstream one
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (0, 2), (0, 4)]
        acs_list = decompose(net_from_edges(6, edges)).acs_list
        assert len(acs_list) == 1
        assert acs_list[0].core == {"N00", "N01", "N02", "N03", "N04", "N05"}

    def test_periphery_fed_by_two_cores_is_in_both_acs(self):
        net = net_from_edges(5, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (3, 4)])
        d = decompose(net)
        cores = {frozenset({"N00", "N01"}), frozenset({"N02", "N03"})}
        assert {a.core for a in d.acs_list} == cores
        assert [a.periphery for a in d.acs_list] == [frozenset({"N04"})] * 2
        assert d.periphery == {"N04"}

    @with_sparse40({"n_max": 12, "density_range": (0.03, 0.3)})
    def test_matches_grouping_oracle_on_random_graphs(self, graphs):
        rng = np.random.default_rng(29)
        for _ in range(150):
            adj = random_digraph(rng, **graphs)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            expect = {
                (frozenset(net.fields[i] for i in core), frozenset(net.fields[i] for i in peri))
                for core, peri in acs_groups_bool_powers(adj)
            }
            assert {(a.core, a.periphery) for a in decompose(net).acs_list} == expect

    def test_dominant_ordering_prefers_larger_lambda_then_size(self):
        # 2-cycle (lambda 1) vs 3-clique-like denser core (lambda > 1)
        edges = [(0, 1), (1, 0)]
        edges += [(2, 3), (3, 4), (4, 2), (3, 2), (4, 3)]
        net = net_from_edges(5, edges)
        d = decompose(net)
        assert d.acs_list[0].core == {"N02", "N03", "N04"}
        # equal lambda: larger core wins
        net2 = net_from_edges(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
        d2 = decompose(net2)
        assert d2.acs_list[0].core == {"N02", "N03", "N04"}


class TestPfEigen:
    def test_empty_network_zero(self):
        d = decompose(net_from_edges(4, []))
        assert d.lambda1 == 0.0
        assert np.isclose(d.pf_vector.sum(), 1.0)

    def test_directed_cycles_have_unit_eigenvalue(self):
        for n in (1, 2, 3, 5, 8):
            edges = [(i, (i + 1) % n) for i in range(n)] if n > 1 else [(0, 0)]
            assert abs(decompose(net_from_edges(n, edges)).lambda1 - 1.0) < 1e-9

    def test_matches_dense_eigensolver_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 60:
            adj = random_digraph(rng, n_max=9, density_range=(0.1, 0.6))
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            lam = decompose(net).lambda1
            eigs = np.linalg.eigvals(adj.astype(float))
            lam_oracle = max(0.0, float(np.max(eigs.real)))
            assert abs(lam - lam_oracle) < 1e-8
            checked += 1

    @pytest.mark.filterwarnings("error")
    def test_directed_paths_are_nilpotent_at_any_length(self):
        # from 21 nodes on, the squarings of (C^T + I) underflowed to an
        # all-zero matrix (0/0 at the normalisation) before the bracket closed
        for n in range(2, 61):
            path = [(i, i + 1) for i in range(n - 1)]
            d = decompose(net_from_edges(n, path))
            assert d.lambda1 == 0.0 and np.isclose(d.pf_vector.sum(), 1.0)
            assert not d.core and d.pf_support_consistent
            # a 2-cycle at either end of the path makes it cyclic again
            for cycle in ((1, 0), (n - 1, n - 2)):
                lam = decompose(net_from_edges(n, path + [cycle])).lambda1
                assert abs(lam - 1.0) < 1e-9

    def test_cycle_with_chord_against_oracle(self):
        # 3-cycle plus chord: characteristic polynomial root via dense solver
        net = net_from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
        lam = decompose(net).lambda1
        oracle = float(np.max(np.linalg.eigvals(net.adjacency.astype(float)).real))
        assert abs(lam - oracle) < 1e-10

    def test_unclosed_bracket_reports_the_squarings(self, monkeypatch):
        # the chord keeps the uniform start off the eigenvector, so one
        # squaring leaves the bracket open
        monkeypatch.setattr(acs, "PF_MAX_SQUARINGS", 1)
        with pytest.raises(acs.PfConvergenceError) as err:
            decompose(net_from_edges(3, [(0, 1), (1, 2), (2, 0), (1, 0)]))
        assert err.value.squarings == 1
        assert err.value.bracket_width > acs.PF_BRACKET_TOL


class TestDecompose:
    def test_empty_network(self):
        d = decompose(net_from_edges(3, []))
        assert d.lambda1 == 0.0
        assert d.outside == {"N00", "N01", "N02"}
        assert d.pf_support_consistent

    def test_acyclic_network_has_lambda_exactly_zero(self):
        # without a core the adjacency is nilpotent: the decomposition reports
        # 0 whatever small residue the power iteration leaves for the check
        net = net_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        d = decompose(net)
        assert not d.core and d.lambda1 == 0.0
        assert d.pf_support_consistent

    def test_cycle_tail_outsider_topology_counts(self):
        # 3-cycle core, two catalysed periphery nodes, one outside feeder
        net = net_from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 0)])
        d = decompose(net)
        assert len(d.core) == 3 and len(d.periphery) == 2 and len(d.outside) == 1
        assert abs(d.lambda1 - 1.0) < 1e-9
        assert d.pf_support_consistent

    def test_partition_and_size_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(80):
            adj = random_digraph(rng, n_max=10)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            d = decompose(net)
            assert d.core | d.periphery | d.outside == set(net.fields)
            assert not (d.core & d.periphery)
            assert not (d.core & d.outside)
            assert not (d.periphery & d.outside)
            assert sum(len(a.core) for a in d.acs_list) == len(d.core)
            assert len(d.acs_nodes) == len(d.core) + len(d.periphery)

    def test_lambda_positive_iff_cycle(self):
        rng = np.random.default_rng(25)
        for _ in range(150):
            adj = random_digraph(rng, n_max=10)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            lam = decompose(net).lambda1
            assert (lam > 1e-8) == has_cycle_bool_powers(adj)

    def test_pf_support_inside_acs(self):
        rng = np.random.default_rng(26)
        for _ in range(80):
            adj = random_digraph(rng, n_max=10)
            net = net_from_edges(adj.shape[0], zip(*np.nonzero(adj)))
            d = decompose(net)
            if d.lambda1 > 1e-8:
                support = {
                    net.fields[i]
                    for i in np.nonzero(d.pf_vector > 1e-9 * d.pf_vector.max())[0]
                }
                assert support <= d.acs_nodes

    def test_single_acs_support_equality(self):
        rng = np.random.default_rng(27)
        for _ in range(80):
            net, core, periphery = random_single_acs(rng)
            d = decompose(net)
            assert d.core == core and d.periphery == periphery
            support = {
                net.fields[i]
                for i in np.nonzero(d.pf_vector > 1e-9 * d.pf_vector.max())[0]
            }
            assert support == core | periphery
            assert d.pf_support_consistent

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            adj = random_digraph(rng, n_max=8)
            n = adj.shape[0]
            net = net_from_edges(n, zip(*np.nonzero(adj)))
            d = decompose(net)
            perm = rng.permutation(n)
            permuted_adj = adj[np.ix_(perm, perm)]
            pnet = net_from_edges(n, zip(*np.nonzero(permuted_adj)))
            pd = decompose(pnet)
            expected_core = {f"N{i:02d}" for i in range(n) if net.fields[perm[i]] in d.core}
            expected_peri = {f"N{i:02d}" for i in range(n) if net.fields[perm[i]] in d.periphery}
            assert pd.core == expected_core
            assert pd.periphery == expected_peri
            assert abs(d.lambda1 - pd.lambda1) < 1e-9


def test_one_scc_pass_per_decompose(monkeypatch):
    calls = []

    def counted(adjacency):
        calls.append(adjacency.shape[0])
        return find_core(adjacency)

    # decompose looks find_core up in the module, so the patch reaches it there
    find_core = acs.find_core
    monkeypatch.setattr(acs, "find_core", counted)
    acyclic = net_from_edges(4, [(0, 1), (1, 2), (0, 3)])
    one_acs = net_from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    two_acs = net_from_edges(6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 4), (3, 5)])
    for net, n_acs in ((acyclic, 0), (one_acs, 1), (two_acs, 2)):
        calls.clear()
        assert len(decompose(net).acs_list) == n_acs
        assert calls == [len(net.fields)]


def test_one_pf_eigen_call_when_a_core_covers_every_field(monkeypatch):
    # a 600-field cycle with random chords is one strongly connected core
    rng = np.random.default_rng(29)
    n = 600
    chords = zip(rng.integers(0, n, 3 * n).tolist(), rng.integers(0, n, 3 * n).tolist())
    net = net_from_edges(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))
    lam, vec = acs.pf_eigen(net.adjacency)
    core_lam, _ = acs.pf_eigen(net.adjacency[np.ix_(np.arange(n), np.arange(n))])
    calls = []

    def counted(adjacency):
        calls.append(adjacency.shape[0])
        return pf_eigen(adjacency)

    pf_eigen = acs.pf_eigen
    monkeypatch.setattr(acs, "pf_eigen", counted)
    d = decompose(net)
    assert calls == [n]
    assert [len(a.core) for a in d.acs_list] == [n]
    assert np.float64(d.lambda1).tobytes() == np.float64(lam).tobytes()
    assert np.float64(d.acs_list[0].core_lambda1).tobytes() == np.float64(core_lam).tobytes()
    assert d.pf_vector.tobytes() == vec.tobytes()


def test_cores_and_acs_list_match_the_csgraph_oracle():
    # 240 digraphs of 1 to 40 nodes at four densities, a self-loop on each
    # node with probability 0.05
    rng = np.random.default_rng(23)
    for trial in range(240):
        n = int(rng.integers(1, 41))
        density = (0.02, 0.05, 0.1, 0.3)[trial % 4]
        adj = (rng.random((n, n)) < density).astype(np.uint8)
        np.fill_diagonal(adj, rng.random(n) < 0.05)
        cores, groups = acs_groups_scipy_csgraph(adj)
        found = acs.find_core(adj)
        assert [c.tolist() for c in found] == sorted(sorted(c) for c in cores)
        net = net_from_edges(n, zip(*np.nonzero(adj)))
        expect = {
            (frozenset(net.fields[i] for i in core), frozenset(net.fields[i] for i in peri))
            for core, peri in groups
        }
        acs_list = decompose(net).acs_list
        assert len(acs_list) == len(expect)
        assert {(a.core, a.periphery) for a in acs_list} == expect


def test_labels_round_trip_and_summary():
    net = net_from_edges(4, [(0, 1), (1, 0), (1, 2)])
    d = decompose(net)
    labels = decomposition_from_text(decomposition_to_text(d), d.fields)
    assert labels == {
        "N00": "core", "N01": "core", "N02": "periphery", "N03": "outside"
    }
    line = artifacts.rows_to_text([d.summary_row])
    year, lam, core, peri, acs_size = line.rstrip("\n").split(",")
    assert (int(core), int(peri), int(acs_size)) == (2, 1, 3)
    assert abs(float(lam) - 1.0) < 1e-9
