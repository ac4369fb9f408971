import json

import numpy as np
import pytest

from trwmap import (BIG, Factor, FactorGraph, ModelFormatError, PairwiseMrf,
                    factor_to_pairwise, ising_to_overcomplete, load_model,
                    save_model, score)
from trwmap.examples import cycle4_mrf, triangle_mrf
from trwmap.treedp import brute_force_map

from conftest import random_graph_mrf


class TestScore:
    def test_triangle_frustrated(self):
        # beta = -1 encourages disagreement; 101 disagrees on two of three edges
        mrf = triangle_mrf(-1.0)
        assert score(mrf, [1, 0, 1]) == pytest.approx(2.0, abs=0)

    def test_all_zero_parameters(self):
        mrf = triangle_mrf(0.0)
        for x in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            assert score(mrf, x) == 0.0

    def test_cycle4_aligned_state(self):
        mrf = cycle4_mrf()
        assert score(mrf, [1, 1, 1, 1]) == pytest.approx(4.0, abs=0)

    def test_dimension_mismatch_rejected(self):
        mrf = triangle_mrf(1.0)
        with pytest.raises(ValueError, match="invalid assignment"):
            score(mrf, [0, 1])
        with pytest.raises(ValueError, match="invalid assignment"):
            score(mrf, [0, 1, 2])

    def test_linearity_in_parameters(self, rng):
        for _ in range(10):
            m1 = random_graph_mrf(rng, n_nodes=4)
            m2 = PairwiseMrf(m1.cardinalities, m1.edges,
                             tuple(rng.normal(size=v.shape) for v in m1.theta_node),
                             {e: rng.normal(size=t.shape) for e, t in m1.theta_edge.items()})
            a, b = rng.normal(), rng.normal()
            mix = PairwiseMrf(
                m1.cardinalities, m1.edges,
                tuple(a * u + b * v for u, v in zip(m1.theta_node, m2.theta_node)),
                {e: a * m1.theta_edge[e] + b * m2.theta_edge[e] for e in m1.edges})
            for _ in range(5):
                x = [int(rng.integers(0, m)) for m in m1.cardinalities]
                assert score(mix, x) == pytest.approx(a * score(m1, x) + b * score(m2, x),
                                                      rel=1e-12, abs=1e-12)


class TestIsingConversion:
    def test_cycle4_scores(self):
        mrf = ising_to_overcomplete([0.0] * 4, {e: 1.0 for e in [(0, 1), (1, 2), (2, 3), (0, 3)]})
        assert score(mrf, [1, 1, 1, 1]) == 4.0
        assert score(mrf, [1, 0, 1, 0]) == -4.0

    def test_zero_weights_zero_tables(self):
        mrf = ising_to_overcomplete([0.0, 0.0], {(0, 1): 0.0})
        assert np.all(mrf.theta_node[0] == 0)
        assert np.all(mrf.theta_edge[(0, 1)] == 0)

    def test_single_edge_table(self):
        mrf = ising_to_overcomplete([0.0, 0.0], {(0, 1): 2.0})
        assert mrf.theta_edge[(0, 1)].tolist() == [[2.0, -2.0], [-2.0, 2.0]]

    def test_matches_spin_objective_everywhere(self, rng):
        node_w = rng.normal(size=5)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        edge_w = {e: float(rng.normal()) for e in edges}
        mrf = ising_to_overcomplete(node_w, edge_w)
        for idx in range(2 ** 5):
            x = [(idx >> s) & 1 for s in range(5)]
            sigma = [2 * v - 1 for v in x]
            want = sum(w * sigma[s] for s, w in enumerate(node_w))
            want += sum(w * sigma[s] * sigma[t] for (s, t), w in edge_w.items())
            assert score(mrf, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_argmax_sets_correspond(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            node_w = rng.normal(size=n)
            edges = [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < 0.5]
            edge_w = {e: float(rng.normal()) for e in edges}
            mrf = ising_to_overcomplete(node_w, edge_w)
            _, opt = brute_force_map(mrf)

            def spin_value(x):
                sig = [2 * v - 1 for v in x]
                return (sum(w * sig[s] for s, w in enumerate(node_w))
                        + sum(w * sig[s] * sig[t] for (s, t), w in edge_w.items()))

            values = {}
            for idx in range(2 ** n):
                x = tuple((idx >> s) & 1 for s in range(n))
                values[x] = spin_value(x)
            best = max(values.values())
            spin_opt = {x for x, v in values.items() if abs(v - best) <= 1e-12}
            assert opt.as_set() == spin_opt


def brute_force_factor_graph(fg: FactorGraph):
    """Independent oracle: enumerate the original variables only."""
    n = len(fg.cardinalities)
    best, argbest = -np.inf, None
    sizes = fg.cardinalities
    idx = [0] * n
    total = int(np.prod(sizes))
    for flat in range(total):
        x = list(np.unravel_index(flat, sizes))
        val = 0.0
        for f in fg.factors:
            val += float(np.log(f.table[tuple(x[v] for v in f.members)]))
        if val > best:
            best, argbest = val, tuple(x)
    return best, argbest


class TestFactorConversion:
    def test_single_ternary_factor(self):
        table = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    table[i, j, k] = np.exp(i + j + k)
        fg = FactorGraph((2, 2, 2), (Factor((0, 1, 2), table),))
        mrf = factor_to_pairwise(fg)
        assert mrf.node_count == 4
        assert mrf.cardinalities[3] == 8
        value, opt = brute_force_map(mrf)
        assert value == pytest.approx(3.0, abs=1e-9)
        want, _ = brute_force_factor_graph(fg)
        assert value == pytest.approx(want, abs=1e-9)

    def test_unary_factor_absorbed(self):
        fg = FactorGraph((3,), (Factor((0,), np.array([1.0, 2.0, 3.0])),))
        mrf = factor_to_pairwise(fg)
        assert mrf.node_count == 1
        assert mrf.edges == ()
        assert np.allclose(mrf.theta_node[0], np.log([1.0, 2.0, 3.0]))

    def test_two_overlapping_ternary_factors(self, rng):
        t1 = np.exp(rng.normal(size=(2, 2, 2)))
        t2 = np.exp(rng.normal(size=(2, 2, 2)))
        fg = FactorGraph((2, 2, 2, 2), (Factor((0, 1, 2), t1), Factor((1, 2, 3), t2)))
        mrf = factor_to_pairwise(fg)
        value, _ = brute_force_map(mrf)
        want, _ = brute_force_factor_graph(fg)
        assert value == pytest.approx(want, abs=1e-9)

    def test_non_positive_entry_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            FactorGraph((2, 2), (Factor((0, 1), np.array([[1.0, 0.0], [1.0, 1.0]])),))

    def test_random_factor_graphs_preserve_map(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            cards = tuple([2] * n)
            n_factors = int(rng.integers(1, 4))
            factors = []
            for _ in range(n_factors):
                arity = int(rng.integers(1, min(3, n) + 1))
                members = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
                table = np.exp(rng.normal(size=tuple(cards[v] for v in members)))
                factors.append(Factor(members, table))
            fg = FactorGraph(cards, tuple(factors))
            mrf = factor_to_pairwise(fg)
            value, opt = brute_force_map(mrf, atol=1e-10)
            want, _ = brute_force_factor_graph(fg)
            assert value == pytest.approx(want, abs=1e-9)
            # optimum never pays a consistency penalty
            assert value > -BIG / 2

            def original_value(x):
                return sum(float(np.log(f.table[tuple(x[v] for v in f.members)]))
                           for f in fg.factors)

            # projection of the converted optimal set is optimal for the
            # original, and every original optimum extends to a converted one
            projected = {tuple(x[:n]) for x in opt.configurations}
            for x in projected:
                assert original_value(x) == pytest.approx(want, abs=1e-9)
            for flat in range(2 ** n):
                x = tuple((flat >> s) & 1 for s in range(n))
                if abs(original_value(x) - want) <= 1e-12:
                    assert x in projected


class TestSerialization:
    def test_round_trip_triangle(self):
        mrf = triangle_mrf(-1.0)
        again = load_model(save_model(mrf))
        assert again.cardinalities == mrf.cardinalities
        assert again.edges == mrf.edges
        for a, b in zip(again.theta_node, mrf.theta_node):
            assert np.array_equal(a, b)
        for e in mrf.edges:
            assert np.array_equal(again.theta_edge[e], mrf.theta_edge[e])

    def test_round_trip_preserves_full_precision(self, rng):
        mrf = random_graph_mrf(rng)
        again = load_model(save_model(mrf))
        for a, b in zip(again.theta_node, mrf.theta_node):
            assert np.array_equal(a, b)
        for e in mrf.edges:
            assert np.array_equal(again.theta_edge[e], mrf.theta_edge[e])

    def test_self_loop_rejected(self):
        doc = b'{"nodes": [2, 2], "edges": [[0, 0]], "theta_node": [[0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}'
        with pytest.raises(ModelFormatError, match="self-loop"):
            load_model(doc)

    def test_bad_shape_rejected(self):
        doc = b'{"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [[0, 0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}'
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(doc)

    def test_dangling_edge_rejected(self):
        doc = b'{"nodes": [2, 2], "edges": [[0, 5]], "theta_node": [[0, 0], [0, 0]], "theta_edge": [[[0, 0], [0, 0]]]}'
        with pytest.raises(ModelFormatError, match="out of range"):
            load_model(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(ModelFormatError, match="missing field"):
            load_model(b'{"nodes": [2]}')

    def test_not_json_rejected(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(b"not json at all")

    @pytest.mark.parametrize("field, value, message", [
        # JSON booleans are ints to isinstance and strings convert to floats
        ("theta_node", [["0.5", "1"], [0, 0]], "theta_node[0]: expected a list of numbers"),
        ("theta_node", [[0, 0], [0, True]], "theta_node[1]: expected a list of numbers"),
        ("theta_node", [[0, 0], [None, 0]], "theta_node[1]: expected a list of numbers"),
        ("theta_edge", [[[0, 0], [False, 0]]], "theta_edge[0]: expected a list of rows of numbers"),
        ("theta_edge", [[[0, 0], "00"]], "theta_edge[0]: expected a list of rows of numbers"),
        ("theta_edge", [[[0, 0], [0, 0, 0]]], "theta_edge[0]: rows of unequal length"),
        ("nodes", [True, 2], "nodes: expected a list of integers"),
        ("edges", [[False, True]], "edges[0]: expected a pair of integers"),
        ("edges", [[0, True]], "edges[0]: expected a pair of integers"),
    ])
    def test_booleans_and_strings_are_not_numbers(self, field, value, message):
        doc = {"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [[0, 0], [0, 0]],
               "theta_edge": [[[0, 0], [0, 0]]], field: value}
        with pytest.raises(ModelFormatError) as info:
            load_model(json.dumps(doc))
        assert str(info.value) == message


class TestNonFiniteTables:
    @staticmethod
    def model(bad_nodes=(), bad_edges=(), value=np.nan):
        # mixed cardinalities, edges listed out of sorted order
        cards = (2, 3, 2, 3)
        edges = ((1, 2), (2, 3), (0, 1), (0, 3))
        node = [np.zeros(m) for m in cards]
        edge = {(s, t): np.zeros((cards[s], cards[t])) for s, t in edges}
        for s in bad_nodes:
            node[s][-1] = value
        for e in bad_edges:
            edge[e][0, -1] = value
        return PairwiseMrf(cards, edges, tuple(node), edge)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("bad_nodes, bad_edges, message", [
        ((2,), (), "theta_node[2]: non-finite entry"),
        ((), ((0, 3),), "theta_edge[(0, 3)]: non-finite entry"),
        ((3, 1), (), "theta_node[1]: non-finite entry"),
        ((3,), ((0, 1),), "theta_node[3]: non-finite entry"),
        ((), ((0, 1), (2, 3), (0, 3)), "theta_edge[(2, 3)]: non-finite entry"),
    ])
    def test_first_bad_table_is_named(self, value, bad_nodes, bad_edges, message):
        with pytest.raises(ModelFormatError) as info:
            self.model(bad_nodes, bad_edges, value)
        assert str(info.value) == message

    def test_non_finite_json_is_rejected(self):
        doc = (b'{"nodes": [2, 2], "edges": [[0, 1]], "theta_node": [[0, 0], [0, 0]],'
               b' "theta_edge": [[[0, Infinity], [0, NaN]]]}')
        with pytest.raises(ModelFormatError) as info:
            load_model(doc)
        assert str(info.value) == "theta_edge[(0, 1)]: non-finite entry"


class TestImmutability:
    def test_tables_are_read_only(self):
        # models may be shared across threads; construction freezes the tables
        mrf = triangle_mrf(1.0)
        with pytest.raises(ValueError, match="read-only"):
            mrf.theta_node[0][0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            mrf.theta_edge[(0, 1)][0, 0] = 5.0

    def test_models_compare_and_hash_by_identity(self):
        # comparing the table arrays elementwise has no single truth value
        a, b = triangle_mrf(1.0), triangle_mrf(1.0)
        assert a == a and a != b
        assert len({a, b, a}) == 2
