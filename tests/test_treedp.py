import itertools
import re

import numpy as np
import pytest

from trwmap import (MaxMarginals, PairwiseMrf, PseudoMaxMarginals,
                    SpanningTree, StructureError, TrwConfig,
                    brute_force_map, check_edge_consistency, check_reparameterization,
                    run_trw, score, tree_map_value, tree_max_marginals, tree_opt_set)
from trwmap import treedp
from trwmap.examples import cycle4_tree_parameters, diamond_mrf, triangle_mrf
from trwmap.model import CapacityError, ModelFormatError, StructureError

from conftest import random_graph_mrf, random_tree_mrf


def max_marginals_by_enumeration(mrf, edges):
    """Independent oracle: maximize the objective over all completions."""
    cards = mrf.cardinalities
    states = list(itertools.product(*[range(m) for m in cards]))
    values = {x: score(mrf, x) for x in states}
    log_node = []
    for s, m in enumerate(cards):
        v = np.array([max(val for x, val in values.items() if x[s] == j) for j in range(m)])
        log_node.append(v - v.max())
    log_edge = {}
    for (s, t) in edges:
        m = np.array([[max(val for x, val in values.items() if x[s] == j and x[t] == k)
                       for k in range(cards[t])] for j in range(cards[s])])
        log_edge[(s, t)] = m - m.max()
    return MaxMarginals(tuple(log_node), log_edge)


class TestBruteForce:
    def test_triangle_agreeing(self):
        value, opt = brute_force_map(triangle_mrf(1.0))
        assert value == 0.0
        assert opt.as_set() == {(0, 0, 0), (1, 1, 1)}

    def test_triangle_frustrated(self):
        value, opt = brute_force_map(triangle_mrf(-1.0))
        assert value == 2.0
        assert opt.as_set() == {x for x in itertools.product((0, 1), repeat=3)} - {(0, 0, 0), (1, 1, 1)}

    def test_diamond_unique_optimum(self):
        value, opt = brute_force_map(diamond_mrf())
        assert opt.configurations == ((1, 1, 1, 1),)
        assert value == pytest.approx(0.02, abs=1e-12)

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(treedp, "BRUTE_FORCE_GUARD", 4)
        with pytest.raises(CapacityError, match="exceeds guard of 4"):
            brute_force_map(triangle_mrf(1.0))
        mrf = random_tree_mrf(np.random.default_rng(0), n_nodes=3)
        with pytest.raises(CapacityError, match="exceeds guard of 4"):
            tree_opt_set(mrf, SpanningTree(mrf.edges))


def chain2_mrf():
    edges = ((0, 1),)
    return PairwiseMrf((2, 2), edges, (np.zeros(2), np.zeros(2)),
                       {(0, 1): np.array([[0.0, -1.0], [-1.0, 0.0]])})


class TestTreeMaxMarginals:
    def test_two_node_chain_exact_values(self):
        mrf = chain2_mrf()
        nu = tree_max_marginals(mrf, SpanningTree(((0, 1),)))
        assert np.allclose(np.exp(nu.log_node[0]), [1.0, 1.0], atol=0)
        assert np.allclose(np.exp(nu.log_node[1]), [1.0, 1.0], atol=0)
        assert np.allclose(np.exp(nu.log_edge[(0, 1)]), [[1.0, np.exp(-1)], [np.exp(-1), 1.0]],
                           rtol=1e-15)

    def test_all_zero_parameters_give_all_ones(self, rng):
        mrf = random_tree_mrf(rng, n_nodes=6, scale=0.0)
        tree = SpanningTree(mrf.edges)
        nu = tree_max_marginals(mrf, tree)
        for s in range(6):
            assert np.all(np.exp(nu.log_node[s]) == 1.0)
        for e in tree.edges:
            assert np.all(np.exp(nu.log_edge[e]) == 1.0)

    def test_cycle4_tree_parameter_matches_enumeration(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        tree, theta = dist.trees[0], thetas[0]
        nu = tree_max_marginals(mrf, tree, theta)
        want = max_marginals_by_enumeration(theta, tree.edges)
        for s in range(4):
            assert np.allclose(nu.log_node[s], want.log_node[s], rtol=0, atol=1e-10)
        for e in tree.edges:
            assert np.allclose(nu.log_edge[e], want.log_edge[e], rtol=0, atol=1e-10)

    def test_random_trees_match_enumeration(self, rng):
        for _ in range(25):
            mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 7)))
            tree = SpanningTree(mrf.edges)
            nu = tree_max_marginals(mrf, tree)
            want = max_marginals_by_enumeration(mrf, tree.edges)
            for s in range(mrf.node_count):
                assert np.allclose(nu.log_node[s], want.log_node[s], rtol=0, atol=1e-10)
            for e in tree.edges:
                assert np.allclose(nu.log_edge[e], want.log_edge[e], rtol=0, atol=1e-10)

    def test_off_tree_parameter_rejected(self):
        mrf = triangle_mrf(1.0)
        tree = SpanningTree(((0, 1), (0, 2)))
        with pytest.raises(StructureError, match="off-tree"):
            tree_max_marginals(mrf, tree, mrf)

    def test_factorization_reproduces_objective(self, rng):
        # product of node tables times edge/node-product ratios tracks the
        # objective up to one shared constant
        for _ in range(10):
            mrf = random_tree_mrf(rng, n_nodes=5)
            tree = SpanningTree(mrf.edges)
            nu = tree_max_marginals(mrf, tree)
            offsets = []
            for x in itertools.product(*[range(m) for m in mrf.cardinalities]):
                rep = sum(float(nu.log_node[s][x[s]]) for s in range(5))
                for (s, t) in tree.edges:
                    rep += float(nu.log_edge[(s, t)][x[s], x[t]]
                                 - nu.log_node[s][x[s]] - nu.log_node[t][x[t]])
                offsets.append(rep - score(mrf, x))
            assert max(offsets) - min(offsets) < 1e-8

    def test_map_value_matches_brute_force(self, rng):
        for _ in range(10):
            mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 8)))
            tree = SpanningTree(mrf.edges)
            value, _ = brute_force_map(mrf)
            assert tree_map_value(mrf, tree) == pytest.approx(value, rel=1e-12, abs=1e-12)
            # large constant shifts: every max-normalized upward message drops
            # one, and the value must add them all back
            shifted = PairwiseMrf(
                mrf.cardinalities, mrf.edges,
                tuple(v + 1e3 * (s + 1) for s, v in enumerate(mrf.theta_node)),
                {e: m - 5e2 * (k + 1) for k, (e, m) in enumerate(mrf.theta_edge.items())})
            value, _ = brute_force_map(shifted)
            assert tree_map_value(mrf, tree, shifted) == pytest.approx(value, rel=1e-12)


class TestMaxMarginalsValidation:
    @pytest.mark.parametrize("cls", [MaxMarginals, PseudoMaxMarginals])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("bad_node, bad_edge", [(True, False), (False, True), (True, True)])
    def test_non_finite_entry_rejected(self, cls, value, bad_node, bad_edge):
        node = [np.zeros(2), np.zeros(3)]
        edge = {(0, 1): np.zeros((2, 3))}
        if bad_node:
            node[1][2] = value
        if bad_edge:
            edge[(0, 1)][1, 0] = value
        with pytest.raises(ValueError) as info:
            cls(tuple(node), edge)
        assert str(info.value) == "non-finite log max-marginal"

    @pytest.mark.parametrize("cls", [MaxMarginals, PseudoMaxMarginals])
    @pytest.mark.parametrize("edge, message", [
        ({(0, 2): np.zeros((2, 2))}, "edge (0, 2) names a node outside 0..1"),
        ({(0, 1): np.zeros((3, 2))}, "edge (0, 1) table has shape (3, 2), expected (2, 2)"),
        ({(0, 1): np.zeros(4)}, "edge (0, 1) table has shape (4,), expected (2, 2)"),
        ({(0, 1): np.zeros((2, 2)), (1, 0): np.zeros((2, 1))},
         "edge (1, 0) table has shape (2, 1), expected (2, 2)"),
        ({(1, 0): np.zeros((2, 2))}, "edge (1, 0) must be ordered (s, t) with s < t"),
        ({(0, 0): np.zeros((2, 2))}, "edge (0, 0) is a self-loop"),
    ])
    def test_malformed_edge_table_rejected(self, cls, edge, message):
        with pytest.raises(StructureError) as info:
            cls((np.zeros(2), np.zeros(2)), edge)
        assert str(info.value) == message

    @pytest.mark.parametrize("cls", [MaxMarginals, PseudoMaxMarginals])
    @pytest.mark.parametrize("node, message", [
        ((), "max-marginals have no nodes"),
        ((np.zeros(2), np.zeros((2, 2))), "node 1 table has shape (2, 2), expected a vector"),
        ((np.zeros(2), np.float64(0.0)), "node 1 table has shape (), expected a vector"),
        ((np.zeros(2), np.zeros(0)), "node 1 table has no states"),
    ])
    def test_malformed_node_table_rejected(self, cls, node, message):
        with pytest.raises(StructureError) as info:
            cls(node, {})
        assert str(info.value) == message


class TestMaxMarginalsLayout:
    def results(self):
        mrf = random_graph_mrf(np.random.default_rng(11), n_nodes=5)
        tree = random_tree_mrf(np.random.default_rng(12), n_nodes=5)
        built = MaxMarginals((np.zeros(2), np.array([0.0, -1.0, -2.0]), np.zeros(2)),
                             {(1, 2): np.zeros((3, 2)), (0, 2): np.ones((2, 2)),
                              (0, 1): np.zeros((2, 3))})
        return [built, tree_max_marginals(tree, SpanningTree(tree.edges)),
                run_trw(mrf, None, TrwConfig(max_iterations=5), variant="messages").nu,
                run_trw(mrf, None, TrwConfig(max_iterations=5), variant="reparam").nu]

    def test_tables_are_views_of_the_layout_arrays(self):
        for nu in self.results():
            layout = nu.layout
            assert list(nu.log_edge) == list(layout.edges)
            for s, v in enumerate(nu.log_node):
                assert np.shares_memory(v, nu.node)
                assert np.array_equal(v, nu.node[layout.offsets[s]:layout.offsets[s] + len(v)])
            for k, (e, (ms, mt)) in enumerate(zip(layout.edges, layout.edge_cards)):
                assert np.shares_memory(nu.log_edge[e], nu.tables)
                assert np.array_equal(nu.log_edge[e], nu.tables[k, :ms, :mt])
            # the rest of the stack is padding, -inf
            pad = layout.pad[:, 0, :, None] | layout.pad[:, 1, None, :]
            assert np.all(nu.tables[pad] == -np.inf)
            assert nu.tables[~pad].size == sum(m.size for m in nu.log_edge.values())

    def test_dict_order_is_the_layout_order(self):
        nu = self.results()[0]
        assert nu.layout.edges == ((1, 2), (0, 2), (0, 1))
        # three table shapes, one stack in the dict's order
        assert nu.layout.edge_cards == [[3, 2], [2, 2], [2, 3]]
        assert nu.tables.shape == (3, 3, 3)

    def test_attributes_cannot_be_set(self):
        nu = self.results()[0]
        for name in ("layout", "node", "tables", "log_node", "log_edge"):
            value = getattr(nu, name)
            with pytest.raises(AttributeError):
                setattr(nu, name, value)


class TestEdgeConsistency:
    def test_exact_max_marginals_consistent(self, rng):
        for _ in range(10):
            mrf = random_tree_mrf(rng, n_nodes=6)
            nu = tree_max_marginals(mrf, SpanningTree(mrf.edges))
            report = check_edge_consistency(nu)
            assert report.max_deviation < 1e-10

    def test_perturbed_entry_flagged(self):
        mrf = chain2_mrf()
        nu = tree_max_marginals(mrf, SpanningTree(((0, 1),)))
        bumped = {e: m.copy() for e, m in nu.log_edge.items()}
        bumped[(0, 1)][0, 0] += np.log(1.1)  # +10% on a row-maximal entry
        report = check_edge_consistency(MaxMarginals(nu.log_node, bumped))
        assert [e for e, d in report.per_edge.items() if d > 1e-8] == [(0, 1)]

    def test_triangle_shared_tables_consistent_any_beta(self):
        for beta in (-2.0, -1.0, 0.5, 1.0, 3.0):
            log_edge = {e: 1.5 * np.array([[0.0, -beta], [-beta, 0.0]])
                        for e in ((0, 1), (0, 2), (1, 2))}
            nu = MaxMarginals((np.zeros(2),) * 3, log_edge)
            assert check_edge_consistency(nu).max_deviation < 1e-12


class TestTreeParameterCheck:
    """A tree parameter is a model: malformed tables fail when it is built,
    and every entry point that takes one checks it against the model and
    the tree by one rule."""

    @staticmethod
    def entry_points(mrf, dist, thetas, k):
        """Each entry point called with `thetas[k]` as tree k's parameter."""
        tree = dist.trees[k]
        return [lambda: tree_max_marginals(mrf, tree, thetas[k]),
                lambda: tree_map_value(mrf, tree, thetas[k]),
                lambda: tree_opt_set(mrf, tree, thetas[k]),
                lambda: check_reparameterization(thetas, dist, mrf)]

    @pytest.mark.parametrize("node_table, edge_table, message", [
        (np.zeros(3), None, r"theta_node\[0\]: shape \(3,\)"),
        (None, 5.0, r"theta_edge\[\(0, 1\)\]: shape \(\)"),
        (None, np.zeros(4), r"theta_edge\[\(0, 1\)\]: shape \(4,\)"),
    ], ids=["3-entry node table", "scalar edge table", "flat edge table"])
    def test_malformed_table_rejected_when_built(self, node_table, edge_table, message):
        _, _, thetas = cycle4_tree_parameters()
        theta = thetas[0]
        node = list(theta.theta_node)
        edge = dict(theta.theta_edge)
        if node_table is not None:
            node[0] = node_table
        if edge_table is not None:
            edge[(0, 1)] = edge_table
        with pytest.raises(ModelFormatError, match=message):
            PairwiseMrf(theta.cardinalities, theta.edges, node, edge)

    def test_other_cardinalities_rejected_by_every_entry_point(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        tree = dist.trees[0]
        cards = (3, 2, 2, 2)
        wide = PairwiseMrf(cards, tree.edges, tuple(np.zeros(m) for m in cards),
                           {(s, t): np.ones((cards[s], cards[t])) for s, t in tree.edges})
        thetas = [wide, *thetas[1:]]
        for call in self.entry_points(mrf, dist, thetas, 0):
            with pytest.raises(StructureError,
                               match=r"cardinalities \[3, 2, 2, 2\], the model \[2, 2, 2, 2\]"):
                call()

    def test_off_tree_table_rejected_by_every_entry_point(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        tree = dist.trees[0]
        (off,) = set(mrf.edges) - set(tree.edges)
        first = thetas[0]
        thetas = [PairwiseMrf(mrf.cardinalities, first.edges + (off,), first.theta_node,
                              {**first.theta_edge, off: np.eye(2)}), *thetas[1:]]
        for call in self.entry_points(mrf, dist, thetas, 0):
            with pytest.raises(StructureError, match=re.escape(f"off-tree edge {off} must vanish")):
                call()

    def test_a_missing_tree_edge_counts_as_zero(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        first = thetas[0]
        dropped = first.edges[0]
        kept = first.edges[1:]
        zeroed = PairwiseMrf(mrf.cardinalities, first.edges, first.theta_node,
                             {**first.theta_edge, dropped: np.zeros((2, 2))})
        missing = PairwiseMrf(mrf.cardinalities, kept, first.theta_node,
                              {e: first.theta_edge[e] for e in kept})
        got, want = (self.entry_points(mrf, dist, [theta, *thetas[1:]], 0)
                     for theta in (missing, zeroed))
        for a, b in zip(got, want):
            a, b = a(), b()
            if isinstance(a, MaxMarginals):
                a, b = (a.node.tolist(), a.tables.tolist()), (b.node.tolist(), b.tables.tolist())
            assert a == b

    def test_dict_tables_are_not_a_tree_parameter(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        tables = (thetas[0].theta_node, thetas[0].theta_edge)
        with pytest.raises(TypeError, match="a tree parameter is a PairwiseMrf, not tuple"):
            tree_map_value(mrf, dist.trees[0], tables)


class TestTreeOptSet:
    def test_cycle4_tree_contains_all_ones(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        opt = tree_opt_set(mrf, dist.trees[0], thetas[0], atol=1e-12)
        assert (1, 1, 1, 1) in opt

    def test_zero_parameters_all_configurations(self):
        mrf = chain2_mrf()
        zero = PairwiseMrf((2, 2), (), (np.zeros(2), np.zeros(2)), {})
        opt = tree_opt_set(mrf, SpanningTree(((0, 1),)), zero)
        assert len(opt) == 4

    def test_triangle_intersection_contained_in_map_set(self):
        # shared fixed-point tables induce one parameter per spanning tree;
        # configurations optimal for all trees must be globally optimal
        mrf = triangle_mrf(1.0)
        trees = [SpanningTree(((0, 1), (0, 2))), SpanningTree(((0, 1), (1, 2))),
                 SpanningTree(((0, 2), (1, 2)))]
        log_edge_full = {e: 1.5 * np.array([[0.0, -1.0], [-1.0, 0.0]])
                         for e in mrf.edges}
        sets = []
        for tree in trees:
            theta = PairwiseMrf((2, 2, 2), tree.edges, (np.zeros(2),) * 3,
                                {e: log_edge_full[e] for e in tree.edges})
            sets.append(tree_opt_set(mrf, tree, theta, atol=1e-12).as_set())
        intersection = set.intersection(*sets)
        assert intersection == {(0, 0, 0), (1, 1, 1)}
        _, opt = brute_force_map(mrf)
        assert intersection <= opt.as_set()


@pytest.mark.parametrize("case", range(30))
def test_grid_map_equal_on_one_and_many_gather_blocks(case, monkeypatch):
    # at a bound of one position every pair table is gathered a column at a
    # time and the backtrack extends one partial configuration at a time
    from test_grid_oracle import random_shapes
    rows, cols, mrf = random_shapes(np.random.default_rng(23_400), 30, 2 ** 16)[case]
    whole = treedp.grid_map(mrf, rows, cols)
    monkeypatch.setattr(treedp, "GRID_GATHER_BOUND", 1)
    blocked = treedp.grid_map(mrf, rows, cols)
    assert repr(whole[0]) == repr(blocked[0]) and whole[1] == blocked[1]
