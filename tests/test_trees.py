import numpy as np
import pytest

from trwmap import (CapacityError, PairwiseMrf, SpanningTree, StructureError,
                    TreeDistribution, edge_appearance, enumerate_spanning_trees,
                    grid_edges, grid_two_tree_distribution, load_tree_distribution,
                    uniform_tree_distribution)
from trwmap import trees as trees_module
from trwmap.examples import cycle4_mrf, diamond_mrf, bridge_graph_trees, bridge_graph, triangle_mrf
from trwmap.model import ModelFormatError

import trees_reference
from conftest import random_graph_mrf
from trees_reference import kirchhoff_count, save_tree_distribution


def contract_edge(n, edges, e):
    """Contract edge e, keeping parallel edges and dropping loops."""
    s, t = e
    relabel = [u if u < t else u - 1 for u in range(n)]
    relabel[t] = relabel[s]
    out = []
    for (a, b) in edges:
        if (a, b) == (s, t):
            continue
        ra, rb = relabel[a], relabel[b]
        if ra != rb:
            out.append((min(ra, rb), max(ra, rb)))
    return n - 1, out


def zero_mrf(n, edges):
    cards = tuple([2] * n)
    return PairwiseMrf(cards, tuple(sorted(edges)), tuple(np.zeros(2) for _ in range(n)),
                       {tuple(e): np.zeros((2, 2)) for e in sorted(edges)})


class TestEnumeration:
    def test_triangle_has_three_trees(self):
        assert len(enumerate_spanning_trees(triangle_mrf())) == 3

    def test_cycle4_has_four_trees(self):
        assert len(enumerate_spanning_trees(cycle4_mrf())) == 4

    def test_diamond_has_eight_trees(self):
        mrf = diamond_mrf()
        trees = enumerate_spanning_trees(mrf)
        assert len(trees) == len(set(trees))
        assert len(trees) == kirchhoff_count(4, mrf.edges)
        assert len(trees) == 8

    def test_counts_match_kirchhoff_on_random_graphs(self, rng):
        for _ in range(15):
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(3, 8)))
            trees = enumerate_spanning_trees(mrf)
            assert len(trees) == kirchhoff_count(mrf.node_count, mrf.edges)
            for t in trees:
                t.validate(mrf.node_count)

    def test_disconnected_graph_rejected(self):
        mrf = zero_mrf(4, [(0, 1), (2, 3)])
        with pytest.raises(StructureError, match="disconnected"):
            enumerate_spanning_trees(mrf)

    def test_guard_enforced(self, monkeypatch):
        mrf = zero_mrf(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        monkeypatch.setattr(trees_module, "ENUMERATION_GUARD", 5)
        with pytest.raises(CapacityError, match="more than 5 spanning trees"):
            enumerate_spanning_trees(mrf)
        with pytest.raises(CapacityError, match="more than 5 spanning trees"):
            uniform_tree_distribution(mrf)


class TestEdgeAppearance:
    def test_bridge_graph_probabilities(self):
        rho = edge_appearance(bridge_graph_trees(), bridge_graph())
        assert rho[(3, 4)] == 1.0
        assert rho[(0, 1)] == pytest.approx(2 / 3, abs=1e-15)
        assert rho[(1, 2)] == pytest.approx(1 / 3, abs=1e-15)

    def test_cycle4_uniform(self):
        mrf = cycle4_mrf()
        rho = edge_appearance(uniform_tree_distribution(mrf), mrf)
        for e in mrf.edges:
            assert rho[e] == pytest.approx(0.75, abs=1e-15)

    def test_single_tree_forced_to_one(self, rng):
        mrf = random_graph_mrf(rng, n_nodes=5, extra_edge_prob=0.0)
        dist = TreeDistribution(5, (SpanningTree(mrf.edges),), np.array([1.0]))
        rho = edge_appearance(dist, mrf)
        assert all(r == 1.0 for r in rho.values())

    def test_uncovered_edge_reported(self):
        mrf = zero_mrf(3, [(0, 1), (0, 2), (1, 2)])
        dist = TreeDistribution(3, (SpanningTree(((0, 1), (0, 2))),), np.array([1.0]))
        with pytest.raises(StructureError, match=r"\(1, 2\)"):
            edge_appearance(dist, mrf)

    def test_sum_is_nodes_minus_one(self, rng):
        for _ in range(10):
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(3, 7)))
            rho = edge_appearance(uniform_tree_distribution(mrf), mrf)
            assert sum(rho.values()) == pytest.approx(mrf.node_count - 1, abs=1e-9)

    def test_invariant_under_tree_permutation(self, rng):
        mrf = diamond_mrf()
        dist = uniform_tree_distribution(mrf)
        perm = rng.permutation(len(dist.trees))
        shuffled = TreeDistribution(4, tuple(dist.trees[i] for i in perm),
                                    dist.weights[perm])
        assert edge_appearance(dist, mrf) == edge_appearance(shuffled, mrf)

    def test_uniform_matches_per_edge_kirchhoff(self, rng):
        for _ in range(5):
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(3, 7)))
            rho = edge_appearance(uniform_tree_distribution(mrf), mrf)
            total = kirchhoff_count(mrf.node_count, mrf.edges)
            for e in mrf.edges:
                n2, contracted = contract_edge(mrf.node_count, mrf.edges, e)
                containing = kirchhoff_count(n2, contracted)
                assert rho[e] == pytest.approx(containing / total, abs=1e-9)


class TestTreeDistribution:
    def test_weights_must_sum_to_one(self):
        trees = enumerate_spanning_trees(triangle_mrf())
        with pytest.raises(Exception, match="sum"):
            TreeDistribution(3, tuple(trees), np.array([0.5, 0.5, 0.5]))

    def test_negative_weight_rejected(self):
        trees = enumerate_spanning_trees(triangle_mrf())
        with pytest.raises(Exception, match="non-negative"):
            TreeDistribution(3, tuple(trees), np.array([1.5, -0.5, 0.0]))

    def test_support_excludes_zero_weight(self):
        trees = enumerate_spanning_trees(triangle_mrf())
        dist = TreeDistribution(3, tuple(trees), np.array([0.5, 0.5, 0.0]))
        assert len(dist.support_items()) == 2

    def test_round_trip_document(self):
        dist = bridge_graph_trees()
        again = load_tree_distribution(save_tree_distribution(dist), node_count=5)
        assert again.trees == dist.trees
        assert np.array_equal(again.weights, dist.weights)

    def test_tree_over_more_nodes_is_rejected(self):
        with pytest.raises(StructureError, match="tree has 3 edges, expected 2"):
            SpanningTree(((0, 1), (1, 2), (2, 3))).validate(3)
        with pytest.raises(StructureError, match=r"tree edge \(1, 3\) is invalid"):
            TreeDistribution(3, (SpanningTree(((0, 1), (1, 3))),), np.array([1.0]))

    def test_one_node_tree_has_no_edges(self):
        assert load_tree_distribution(b'[{"edges": [], "weight": 1}]', node_count=1).node_count == 1
        with pytest.raises(ModelFormatError, match="tree weights sum to"):
            load_tree_distribution(b'[]', node_count=1)

    @pytest.mark.parametrize("doc, message", [
        (b'[{"edges": [[0, 1], [1, 2]], "weight": true}]',
         "tree record 0: weight: expected a number, got True"),
        (b'[{"edges": [[0, 1], [1, 2]], "weight": "0.5"}]',
         "tree record 0: weight: expected a number, got '0.5'"),
        (b'[{"edges": [[false, true], [1, 2]], "weight": 1}]',
         "tree record 0: edges: expected a list of integer pairs"),
        (b'{"rho_e": {"0,1": true}}', "rho_e['0,1']: expected a number, got True"),
    ])
    def test_booleans_and_strings_are_not_numbers(self, doc, message):
        with pytest.raises(ModelFormatError) as info:
            load_tree_distribution(doc, node_count=3)
        assert str(info.value) == message

    def test_rho_e_document_form(self):
        rho = load_tree_distribution(b'{"rho_e": {"0,1": 0.75, "1,2": 0.5}}', node_count=3)
        assert rho == {(0, 1): 0.75, (1, 2): 0.5}

    @pytest.mark.parametrize("doc, message", [
        (b'{"rho_e": {"0,1": 0.5, "1,0": 0.7}}',
         "rho_e keys '0,1' and '1,0' name the same edge (0, 1)"),
        (b'{"rho_e": {"2,1": 0.5, "0,1": 0.5, "1, 2": 0.5}}',
         "rho_e keys '2,1' and '1, 2' name the same edge (1, 2)"),
    ])
    def test_rho_e_keys_naming_one_edge_twice_are_rejected(self, doc, message):
        with pytest.raises(ModelFormatError) as info:
            load_tree_distribution(doc, node_count=3)
        assert str(info.value) == message


class TestGridTwoTrees:
    def test_2x2_sum_rule(self):
        dist = grid_two_tree_distribution(2, 2)
        mrf = zero_mrf(4, grid_edges(2, 2))
        rho = edge_appearance(dist, mrf)
        assert sum(rho.values()) == pytest.approx(3.0, abs=1e-12)
        assert set(np.round(list(rho.values()), 12)) <= {0.5, 1.0}

    def test_3x3_trees_cover_grid(self):
        dist = grid_two_tree_distribution(3, 3)
        for t in dist.trees:
            assert len(t.edges) == 8
        covered = set(dist.trees[0].edges) | set(dist.trees[1].edges)
        assert covered == set(grid_edges(3, 3))
        assert len(grid_edges(3, 3)) == 12

    def test_4x4_all_edges_positive(self):
        dist = grid_two_tree_distribution(4, 4)
        mrf = zero_mrf(16, grid_edges(4, 4))
        rho = edge_appearance(dist, mrf)
        assert len(rho) == 24
        assert all(r > 0 for r in rho.values())


class TestEnumerationOrder:
    # the explicit-stack enumeration lists the recursive form's trees in its order

    def test_random_graphs_match_recursive_form(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(2, 9)),
                                   extra_edge_prob=float(rng.uniform(0.1, 0.7)))
            assert enumerate_spanning_trees(mrf) == trees_reference.enumerate_spanning_trees(mrf)

    @pytest.mark.parametrize("rows, cols", [(1, 6), (2, 2), (2, 5), (3, 3), (3, 4)])
    def test_grids_match_recursive_form(self, rows, cols):
        mrf = zero_mrf(rows * cols, grid_edges(rows, cols))
        trees = enumerate_spanning_trees(mrf)
        assert trees == trees_reference.enumerate_spanning_trees(mrf)
        assert len(trees) == kirchhoff_count(mrf.node_count, mrf.edges)

    def test_guard_matches_recursive_form(self, monkeypatch):
        mrf = zero_mrf(9, grid_edges(3, 3))
        monkeypatch.setattr(trees_module, "ENUMERATION_GUARD", 50)
        for enumerate_ in (enumerate_spanning_trees, trees_reference.enumerate_spanning_trees):
            with pytest.raises(CapacityError, match="more than 50 spanning trees"):
                enumerate_(mrf)

    def test_long_chain_needs_no_recursion(self):
        n = 3000
        trees = enumerate_spanning_trees(zero_mrf(n, [(i, i + 1) for i in range(n - 1)]))
        assert len(trees) == 1 and len(trees[0].edges) == n - 1


@pytest.mark.parametrize("weights", [[np.nan] * 4, [np.nan, 0.5, 0.25, 0.25],
                                     [np.inf, 0.0, 0.0, 0.0], [0.5, -np.inf, 0.25, 0.25]])
def test_non_finite_tree_weights_rejected(weights):
    trees = tuple(enumerate_spanning_trees(cycle4_mrf()))
    with pytest.raises(ModelFormatError, match="is not finite"):
        TreeDistribution(4, trees, np.array(weights))
