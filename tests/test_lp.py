import numpy as np
import pytest

from trwmap import (LinearProgram, MessageSet, SpanningTree, StructureError,
                    TreeDistribution, TrwConfig, brute_force_map, build_local_lp,
                    classify_vertex, delta_pseudomarginal, dual_from_messages, edge_appearance,
                    evaluate_dual, in_local, in_marginal_polytope, run_trw,
                    score, simplex_solve, uniform_tree_distribution, unit_messages,
                    vector_to_pseudomarginal)
from trwmap.examples import cycle4_mrf, diamond_mrf, triangle_mrf
from trwmap.model import CapacityError, ModelFormatError, PairwiseMrf

from conftest import random_graph_mrf, random_tree_mrf


def fractional_triangle_tau(edges=((0, 1), (0, 2), (1, 2))):
    node = (np.array([0.5, 0.5]),) * 3
    edge = {e: np.array([[0.0, 0.5], [0.5, 0.0]]) for e in edges}
    return PairwiseMrf((2, 2, 2), edges, node, edge)


def lp_vector(tau: PairwiseMrf) -> np.ndarray:
    return np.concatenate((tau.node_vector, tau.edge_vector))


def mixture(mrf: PairwiseMrf, a: PairwiseMrf, b: PairwiseMrf) -> PairwiseMrf:
    """The midpoint of two pseudomarginals on `mrf`'s graph."""
    return vector_to_pseudomarginal(mrf, 0.5 * lp_vector(a) + 0.5 * lp_vector(b))


def in_local_for_tree(tau: PairwiseMrf, tree: SpanningTree, tol: float = 1e-9) -> bool:
    """Single-tree relaxation of the local polytope: non-negativity and node
    normalization everywhere, marginalization only on the tree's edges."""
    for v in tau.theta_node:
        if v.min() < -tol or abs(v.sum() - 1.0) > tol:
            return False
    tree_edges = set(tree.edges)
    for (s, t), m in tau.theta_edge.items():
        if m.min() < -tol:
            return False
        if (s, t) in tree_edges:
            if np.max(np.abs(m.sum(axis=1) - tau.theta_node[s])) > tol:
                return False
            if np.max(np.abs(m.sum(axis=0) - tau.theta_node[t])) > tol:
                return False
    return True


class TestBuildLocalLp:
    def test_triangle_dimensions(self):
        lp = build_local_lp(triangle_mrf(1.0))
        assert lp.c.shape == (18,)
        assert lp.A.shape == (15, 18)  # 3 normalization + 12 marginalization

    def test_single_node_simplex(self):
        mrf = PairwiseMrf((3,), (), (np.array([0.3, 1.7, -0.2]),), {})
        lp = build_local_lp(mrf)
        res = simplex_solve(lp)
        assert res.value == pytest.approx(1.7, abs=1e-12)

    def test_grid_2x2_dimensions(self):
        from trwmap.trees import grid_edges
        edges = grid_edges(2, 2)
        mrf = PairwiseMrf((2,) * 4, tuple(edges), tuple(np.zeros(2) for _ in range(4)),
                          {e: np.zeros((2, 2)) for e in edges})
        lp = build_local_lp(mrf)
        assert lp.c.shape == (24,)
        assert lp.A.shape == (20, 24)  # 4 + 16 equalities


class TestSimplex:
    def test_triangle_frustrated_fractional_vertex(self):
        mrf = triangle_mrf(-1.0)
        res = simplex_solve(build_local_lp(mrf))
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-7)
        tau = vector_to_pseudomarginal(mrf, res.x)
        want = fractional_triangle_tau()
        assert tau.edges == want.edges
        for s in range(3):
            assert np.allclose(tau.theta_node[s], want.theta_node[s], atol=1e-9)
        for e in want.edges:
            assert np.allclose(tau.theta_edge[e], want.theta_edge[e], atol=1e-9)

    def test_triangle_agreeing_integral_value(self):
        res = simplex_solve(build_local_lp(triangle_mrf(1.0)))
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_exact_on_random_trees(self, rng):
        for _ in range(20):
            mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 9)))
            res = simplex_solve(build_local_lp(mrf))
            value, _ = brute_force_map(mrf)
            assert res.status == "optimal"
            assert res.value == pytest.approx(value, rel=1e-7, abs=1e-7)

    def test_solution_feasible(self, rng):
        for _ in range(10):
            mrf = random_graph_mrf(rng, n_nodes=5)
            res = simplex_solve(build_local_lp(mrf))
            assert res.status == "optimal"
            assert in_local(vector_to_pseudomarginal(mrf, res.x), tol=1e-8)

    def test_infeasible_detected(self):
        lp = LinearProgram(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded_detected(self):
        lp = LinearProgram(np.array([1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
        assert simplex_solve(lp).status == "unbounded"

    @pytest.mark.parametrize("c, A, b", [
        ([[1.0], [0.0]], [[1.0, -1.0]], [0.0]),  # 2-D c
        ([1.0, 0.0], [[1.0, -1.0]], [[0.0]]),  # 2-D b
        ([1.0], [1.0], [1.0]),  # 1-D A
        ([1.0], [[[1.0]]], [1.0]),  # 3-D A
        (1.0, [[1.0]], [1.0]),  # scalar c
        ([1.0, 0.0], [[1.0, -1.0]], [0.0, 0.0]),  # b longer than A has rows
        ([1.0, 0.0, 0.0], [[1.0, -1.0]], [0.0]),  # c longer than A has columns
    ])
    def test_inconsistent_shapes_rejected(self, c, A, b):
        with pytest.raises(ValueError, match="^inconsistent LP dimensions$"):
            LinearProgram(np.array(c), np.array(A), np.array(b))


class TestVertexClassification:
    def test_fractional_vertex(self):
        assert classify_vertex(fractional_triangle_tau()).kind == "fractional"

    def test_delta_vector_decodes(self):
        mrf = triangle_mrf(1.0)
        cls = classify_vertex(delta_pseudomarginal(mrf, [1, 0, 1]))
        assert cls.kind == "integral"
        assert cls.assignment.tolist() == [1, 0, 1]

    def test_midpoint_is_fractional(self):
        mrf = triangle_mrf(1.0)
        a = delta_pseudomarginal(mrf, [0, 0, 0])
        b = delta_pseudomarginal(mrf, [1, 1, 1])
        assert classify_vertex(mixture(mrf, a, b)).kind == "fractional"

    def test_infeasible_rejected(self):
        bad = PairwiseMrf((2,), (), (np.array([0.9, 0.9]),), {})
        with pytest.raises(ValueError, match="local polytope"):
            classify_vertex(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_entry_rejected(self, bad):
        # a pseudomarginal is checked like a model, so it is never non-finite
        mrf = PairwiseMrf((2,), (), (np.zeros(2),), {})
        with pytest.raises(ModelFormatError, match=r"^theta_node\[0\]: non-finite entry$"):
            vector_to_pseudomarginal(mrf, np.array([bad, bad]))

    def test_non_finite_edge_entry_rejected(self):
        mrf = triangle_mrf(1.0)
        x = lp_vector(delta_pseudomarginal(mrf, [0, 0, 0]))
        assert in_local(vector_to_pseudomarginal(mrf, x))
        x[mrf.offsets[1][0] + 3] = np.nan  # entry [1, 1] of edge (0, 1)
        with pytest.raises(ModelFormatError, match=r"^theta_edge\[\(0, 1\)\]: non-finite entry$"):
            vector_to_pseudomarginal(mrf, x)

    def test_nan_solution_vector_rejected(self):
        mrf = triangle_mrf(-1.0)
        x = simplex_solve(build_local_lp(mrf)).x.copy()
        x[0] = np.nan  # [nan 0.5] at node 0
        with pytest.raises(ModelFormatError, match=r"^theta_node\[0\]: non-finite entry$"):
            vector_to_pseudomarginal(mrf, x)

    def test_pseudomarginal_is_a_model_on_the_graph(self):
        mrf = triangle_mrf(-1.0)
        x = simplex_solve(build_local_lp(mrf)).x
        tau = vector_to_pseudomarginal(mrf, x)
        assert isinstance(tau, PairwiseMrf)
        assert tau.cardinalities == mrf.cardinalities and tau.edges == mrf.edges
        assert np.array_equal(lp_vector(tau), x)
        assert not np.shares_memory(tau.node_vector, x)

    def test_wrong_length_rejected(self):
        mrf = triangle_mrf(1.0)
        with pytest.raises(ValueError, match="wrong length"):
            vector_to_pseudomarginal(mrf, np.zeros(17))


class TestMarginalPolytope:
    def test_gap_on_frustrated_triangle(self):
        mrf = triangle_mrf(-1.0)
        exact = brute_force_map(mrf)[0]
        relaxed = simplex_solve(build_local_lp(mrf)).value
        assert exact == pytest.approx(2.0, abs=1e-12)
        assert relaxed - exact == pytest.approx(1.0, abs=1e-7)

    def test_no_gap_on_agreeing_triangle(self):
        mrf = triangle_mrf(1.0)
        assert brute_force_map(mrf)[0] == pytest.approx(0.0, abs=1e-12)
        assert simplex_solve(build_local_lp(mrf)).value == pytest.approx(0.0, abs=1e-7)

    def test_no_gap_on_trees(self, rng):
        for _ in range(10):
            mrf = random_tree_mrf(rng, n_nodes=6)
            gap = simplex_solve(build_local_lp(mrf)).value - brute_force_map(mrf)[0]
            assert abs(gap) <= 1e-7

    def test_fractional_vertex_outside(self):
        assert not in_marginal_polytope(fractional_triangle_tau())

    def test_delta_vector_inside(self):
        mrf = triangle_mrf(-1.0)
        assert in_marginal_polytope(delta_pseudomarginal(mrf, [1, 0, 1]))

    def test_two_point_mixture_inside(self):
        mrf = triangle_mrf(1.0)
        a = delta_pseudomarginal(mrf, [0, 0, 0])
        b = delta_pseudomarginal(mrf, [1, 1, 1])
        assert in_marginal_polytope(mixture(mrf, a, b))

    def test_graph_and_states_are_taus_own(self):
        # tau carries its graph and cardinalities: a 3-state tau is judged on
        # its 3-state triangle, and a tau without the edge (0, 2) on its path
        three = PairwiseMrf((3, 3, 3), ((0, 1), (0, 2), (1, 2)),
                            (np.zeros(3),) * 3, {e: np.zeros((3, 3)) for e in
                                                 ((0, 1), (0, 2), (1, 2))})
        assert in_marginal_polytope(delta_pseudomarginal(three, [2, 0, 1]))
        assert in_marginal_polytope(fractional_triangle_tau(((0, 1), (1, 2))))
        assert not in_marginal_polytope(fractional_triangle_tau())
        with pytest.raises(TypeError):
            in_marginal_polytope(fractional_triangle_tau(), triangle_mrf(-1.0))

    def test_guard(self, monkeypatch):
        # 13 binary nodes, 8192 joint states: refused before any enumeration
        mrf = PairwiseMrf((2,) * 13, (), (np.zeros(2),) * 13, {})
        tau = delta_pseudomarginal(mrf, [0] * 13)
        monkeypatch.setattr(np, "unravel_index", None)
        with pytest.raises(CapacityError, match="guard of 4096"):
            in_marginal_polytope(tau)

    def test_sandwich_on_random_graphs(self, rng):
        for _ in range(8):
            mrf = random_graph_mrf(rng, n_nodes=4)
            exact = brute_force_map(mrf)[0]
            relaxed = simplex_solve(build_local_lp(mrf)).value
            assert relaxed >= exact - 1e-7


class TestSimplexAtGridScale:
    def test_frustrated_grids_fractional_and_feasible(self):
        from trwmap.trees import grid_edges
        from trwmap import ising_to_overcomplete
        edges = grid_edges(4, 4)
        for seed in range(3):
            r = np.random.default_rng(seed)
            mrf = ising_to_overcomplete(0.1 * (2 * r.random(16) - 1),
                                        {e: 2.0 * r.normal() for e in edges})
            res = simplex_solve(build_local_lp(mrf))
            value, _ = brute_force_map(mrf)
            assert res.status == "optimal"
            assert res.value >= value - 1e-7
            tau = vector_to_pseudomarginal(mrf, res.x)
            assert in_local(tau, tol=1e-7)
            # strong mixed couplings frustrate the relaxation
            assert classify_vertex(tau).kind == "fractional"

    def test_ternary_cyclic_instances(self):
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            edges = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
            mrf = PairwiseMrf((3, 3, 3, 3), edges,
                              tuple(r.normal(size=3) for _ in range(4)),
                              {e: r.normal(size=(3, 3)) for e in edges})
            res = simplex_solve(build_local_lp(mrf))
            value, _ = brute_force_map(mrf)
            assert res.value >= value - 1e-7

    def test_cardinality_one_node(self):
        mrf = PairwiseMrf((1, 2), ((0, 1),), (np.array([0.5]), np.array([0.0, 1.0])),
                          {(0, 1): np.array([[0.2, -0.3]])})
        value, _ = brute_force_map(mrf)
        assert simplex_solve(build_local_lp(mrf)).value == pytest.approx(value, abs=1e-9)


class TestLocalTreeIntersection:
    def test_intersection_of_tree_relaxations_is_local(self, rng):
        # verdicts of the full constraint set and of the intersection over any
        # edge-covering family of spanning trees agree on random candidates
        for _ in range(4):
            mrf = random_graph_mrf(rng, n_nodes=4, card_choices=(2,))
            dist = uniform_tree_distribution(mrf)
            trees = [t for t, _ in dist.support_items()]
            agree = 0
            for trial in range(100):
                if trial % 3 == 0:
                    x = [int(rng.integers(0, m)) for m in mrf.cardinalities]
                    tau = delta_pseudomarginal(mrf, x)
                elif trial % 3 == 1:
                    res = simplex_solve(build_local_lp(mrf))
                    tau = vector_to_pseudomarginal(mrf, res.x)
                else:
                    tau = vector_to_pseudomarginal(
                        mrf, np.abs(rng.normal(size=mrf.offsets[1][-1])))
                full = in_local(tau, tol=1e-8)
                per_tree = all(in_local_for_tree(tau, t, tol=1e-8) for t in trees)
                assert full == per_tree
                agree += 1
            assert agree == 100


class TestDual:
    def test_two_node_zero_model_zero_dual(self):
        mrf = PairwiseMrf((2, 2), ((0, 1),), (np.zeros(2), np.zeros(2)),
                          {(0, 1): np.zeros((2, 2))})
        dist = uniform_tree_distribution(mrf)
        result = run_trw(mrf, dist, TrwConfig(damping=1.0), variant="messages")
        lam = dual_from_messages(result.messages, result.nu, dist, root=0)
        assert all(np.allclose(v, 0.0, atol=1e-12) for v in lam.log_m.values())
        assert evaluate_dual(lam, mrf, edge_appearance(dist, mrf)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_multipliers_sum_table_maxima(self, rng):
        from trwmap import uniform_rho, unit_messages
        mrf = random_graph_mrf(rng, n_nodes=4)
        lam = MessageSet({k: np.zeros_like(v)
                          for k, v in unit_messages(mrf).log_m.items()})
        want = (sum(float(v.max()) for v in mrf.theta_node)
                + sum(float(m.max()) for m in mrf.theta_edge.values()))
        assert evaluate_dual(lam, mrf, uniform_rho(mrf)) == pytest.approx(want, rel=1e-12)

    def test_weak_duality_random_multipliers(self):
        from trwmap import unit_messages
        rng = np.random.default_rng(99)
        count = 0
        for _ in range(10):
            mrf = random_graph_mrf(rng, n_nodes=4)
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            lp_value = simplex_solve(build_local_lp(mrf)).value
            shapes = {k: v.shape for k, v in unit_messages(mrf).log_m.items()}
            for _ in range(20):
                lam = MessageSet({k: rng.normal(size=sh) for k, sh in shapes.items()})
                assert evaluate_dual(lam, mrf, rho) >= lp_value - 1e-8
                count += 1
        assert count == 200

    def test_strong_duality_triangle(self):
        mrf = triangle_mrf(1.0)
        dist = uniform_tree_distribution(mrf)
        rho = edge_appearance(dist, mrf)
        result = run_trw(mrf, dist, TrwConfig(), variant="messages")
        lam = dual_from_messages(result.messages, result.nu, dist, root=0)
        assert evaluate_dual(lam, mrf, rho) == pytest.approx(0.0, abs=1e-9)

    def test_strong_duality_diamond_every_root(self):
        mrf = diamond_mrf()
        dist = uniform_tree_distribution(mrf)
        rho = edge_appearance(dist, mrf)
        result = run_trw(mrf, dist, TrwConfig(tol=1e-10), variant="messages")
        assert result.certificate is not None
        lp_value = simplex_solve(build_local_lp(mrf)).value
        for root in range(4):
            lam = dual_from_messages(result.messages, result.nu, dist, root=root)
            assert evaluate_dual(lam, mrf, rho) == pytest.approx(lp_value, rel=1e-6)

    def test_requires_explicit_trees(self):
        mrf = triangle_mrf(1.0)
        result = run_trw(mrf, None, TrwConfig(), variant="messages")
        with pytest.raises(TypeError, match="explicit trees"):
            dual_from_messages(result.messages, result.nu, {e: 1.0 for e in mrf.edges})

    def test_distribution_missing_a_graph_edge_is_rejected(self):
        # edge_appearance rejects this distribution on the model too
        mrf = triangle_mrf(1.0)
        result = run_trw(mrf, None, TrwConfig(max_iterations=20), variant="messages")
        path = TreeDistribution(3, (SpanningTree(((0, 1), (1, 2))),), np.array([1.0]))
        for call in (lambda: edge_appearance(path, mrf),
                     lambda: dual_from_messages(result.messages, result.nu, path)):
            with pytest.raises(StructureError, match=r"edge \(0, 2\) appears in no supported tree"):
                call()

    def test_messages_of_another_graph_are_rejected(self):
        mrf = triangle_mrf(1.0)
        dist = uniform_tree_distribution(mrf)
        nu = run_trw(mrf, dist, TrwConfig(max_iterations=20), variant="messages").nu
        msgs = unit_messages(cycle4_mrf())
        with pytest.raises(StructureError, match=r"direction \(3, 0\) is not an edge direction"):
            dual_from_messages(msgs, nu, dist)

    def test_distribution_on_another_node_count_is_rejected(self):
        mrf = triangle_mrf(1.0)
        result = run_trw(mrf, None, TrwConfig(max_iterations=20), variant="messages")
        dist = uniform_tree_distribution(cycle4_mrf())
        for call in (lambda: edge_appearance(dist, mrf),
                     lambda: dual_from_messages(result.messages, result.nu, dist)):
            with pytest.raises(StructureError, match="node count: 4, the graph has 3"):
                call()

    def test_strong_duality_on_tree_instances(self, rng):
        for _ in range(5):
            mrf = random_tree_mrf(rng, n_nodes=5)
            tree = SpanningTree(mrf.edges)
            dist = TreeDistribution(5, (tree,), np.array([1.0]))
            result = run_trw(mrf, dist, TrwConfig(damping=1.0), variant="messages")
            assert result.certificate is not None
            lam = dual_from_messages(result.messages, result.nu, dist, root=0)
            lp_value = simplex_solve(build_local_lp(mrf)).value
            assert evaluate_dual(lam, mrf, edge_appearance(dist, mrf)) == pytest.approx(
                lp_value, rel=1e-6, abs=1e-8)


class TestLpVsCertificates:
    def test_integral_solution_matches_map_and_fractional_blocks_certificate(self, rng):
        for _ in range(10):
            mrf = random_graph_mrf(rng, n_nodes=4, card_choices=(2,))
            res = simplex_solve(build_local_lp(mrf))
            tau = vector_to_pseudomarginal(mrf, res.x)
            cls = classify_vertex(tau)
            value, _ = brute_force_map(mrf)
            if cls.kind == "integral":
                assert score(mrf, cls.assignment) == pytest.approx(value, abs=1e-7)
            elif res.value > value + 1e-7:
                result = run_trw(mrf, None, TrwConfig(), variant="messages")
                if result.converged:
                    assert result.certificate is None
