import itertools
import math

import numpy as np
import pytest

from trwmap import (MaxMarginals, PairwiseMrf, PseudoMaxMarginals,
                    SpanningTree, StructureError, TreeDistribution, TrwConfig,
                    brute_force_map, check_edge_consistency, check_reparameterization,
                    edge_appearance, find_certificate, init_pseudo,
                    ising_to_overcomplete, load_model, message_step, messages_to_pseudo,
                    reparameterization_step, run_tree_updates, run_trw, save_model, score,
                    tree_max_marginals, tree_opt_set, uniform_rho,
                    uniform_tree_distribution, unit_messages)
from trwmap.examples import (DIAMOND_NU_BOUNDARY_EDGE, DIAMOND_NU_MIDDLE_EDGE,
                             DIAMOND_NU_NODE, cycle4_tree_parameters,
                             diamond_mrf, triangle_mrf)
from trwmap import trw as trw_module
from trwmap.trees import grid_edges, grid_two_tree_distribution

from conftest import random_graph_mrf, random_tree_mrf
from model_reference import edge_table, neighbors
from trw_reference import (_merge_tree_potentials, _split_parameter, _theta_from_nu,
                           max_log_change, potentials, tree_parameter)


def triangle_fixed_point(beta):
    """Shared tables of the triangle's tree-reweighted fixed point (uniform
    trees, appearance 2/3), max-normalized."""
    log_edge = {}
    for e in ((0, 1), (0, 2), (1, 2)):
        m = 1.5 * np.array([[0.0, -beta], [-beta, 0.0]])
        log_edge[e] = m - m.max()
    return PseudoMaxMarginals((np.zeros(2),) * 3, log_edge)


class TestInitPseudo:
    def test_triangle_scaled_edge_tables(self):
        mrf = triangle_mrf(1.0)
        nu = init_pseudo(mrf, {e: 2.0 / 3.0 for e in mrf.edges})
        for e in mrf.edges:
            assert np.allclose(nu.log_edge[e], 1.5 * np.array([[0.0, -1.0], [-1.0, 0.0]]),
                               atol=1e-15)
            assert nu.log_edge[e].max() == 0.0

    def test_all_zero_parameters(self):
        mrf = triangle_mrf(0.0)
        nu = init_pseudo(mrf, {e: 2.0 / 3.0 for e in mrf.edges})
        assert all(np.all(v == 0) for v in nu.log_node)
        assert all(np.all(m == 0) for m in nu.log_edge.values())

    def test_tree_with_unit_rho_adds_node_tables(self, rng):
        mrf = random_tree_mrf(rng, n_nodes=4)
        nu = init_pseudo(mrf, {e: 1.0 for e in mrf.edges})
        for (s, t) in mrf.edges:
            want = (mrf.theta_edge[(s, t)] + mrf.theta_node[s][:, None]
                    + mrf.theta_node[t][None, :])
            assert np.allclose(nu.log_edge[(s, t)], want - want.max(), atol=1e-12)


class TestReparameterizationStep:
    def test_triangle_fixed_point_any_beta(self):
        for beta in (-2.0, -1.0, 0.5, 1.0, 3.0):
            nu = triangle_fixed_point(beta)
            rho = {e: 2.0 / 3.0 for e in nu.log_edge}
            out = reparameterization_step(nu, rho, damping=0.5)
            assert max_log_change(out, nu) < 1e-12

    def test_exact_tree_max_marginals_unchanged(self, rng):
        mrf = random_tree_mrf(rng, n_nodes=2)
        nu = tree_max_marginals(mrf, SpanningTree(mrf.edges))
        out = reparameterization_step(PseudoMaxMarginals(nu.log_node, nu.log_edge),
                                      {e: 1.0 for e in mrf.edges}, damping=1.0)
        assert max_log_change(out, nu) < 1e-12

    def test_converged_cycle_is_edge_consistent(self, rng):
        mrf = random_graph_mrf(rng, n_nodes=4, card_choices=(2,), extra_edge_prob=0.0)
        edges = ((0, 1), (1, 2), (2, 3), (0, 3))
        mrf = PairwiseMrf((2,) * 4, edges, tuple(rng.normal(size=2) for _ in range(4)),
                          {e: rng.normal(size=(2, 2)) for e in edges})
        result = run_trw(mrf, {e: 0.75 for e in edges}, TrwConfig(), variant="reparam")
        assert result.converged
        assert check_edge_consistency(result.nu).max_deviation < 1e-6


class TestMessageStep:
    def test_unit_rho_is_ordinary_max_product(self, rng):
        # with appearance weights 1 the reverse-message exponent vanishes
        mrf = random_tree_mrf(rng, n_nodes=5)
        msgs = MessageSetFactory(rng, mrf)
        rho = {e: 1.0 for e in mrf.edges}
        stepped = message_step(msgs, mrf, rho, damping=1.0)
        for (s, t) in mrf.edges:
            # ordinary max-product update computed directly
            vec = mrf.theta_node[t].copy()
            for v in neighbors(mrf)[t]:
                if v != s:
                    vec = vec + msgs.log_m[(v, t)]
            want = np.max(edge_table(mrf, s, t) + vec[None, :], axis=1)
            want -= want.max()
            assert np.allclose(stepped.log_m[(t, s)], want, atol=1e-12)

    def test_unit_messages_reproduce_init_tables(self, rng):
        mrf = random_graph_mrf(rng, n_nodes=5)
        rho = uniform_rho(mrf)
        nu = messages_to_pseudo(unit_messages(mrf), mrf, rho)
        want = init_pseudo(mrf, rho)
        assert max_log_change(nu, want) < 1e-12

    def test_diamond_converges_to_optimal_certificate(self):
        mrf = diamond_mrf()
        dist = uniform_tree_distribution(mrf)
        result = run_trw(mrf, dist, TrwConfig(), variant="messages")
        assert result.converged
        assert result.certificate is not None
        assert result.certificate.tolist() == [1, 1, 1, 1]
        value, _ = brute_force_map(mrf)
        assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-12)


def MessageSetFactory(rng, mrf):
    logs = {}
    for (s, t) in mrf.edges:
        logs[(t, s)] = rng.normal(size=mrf.cardinalities[s])
        logs[(s, t)] = rng.normal(size=mrf.cardinalities[t])
    from trwmap import MessageSet
    return MessageSet({k: v - v.max() for k, v in logs.items()})


class TestMessagesToPseudo:
    def test_unit_messages_zero_parameters(self):
        mrf = triangle_mrf(0.0)
        nu = messages_to_pseudo(unit_messages(mrf), mrf, uniform_rho(mrf))
        assert all(np.all(np.exp(v) == 1.0) for v in nu.log_node)
        assert all(np.all(np.exp(m) == 1.0) for m in nu.log_edge.values())

    def test_unit_messages_are_triangle_fixed_point(self):
        mrf = triangle_mrf(1.0)
        rho = {e: 2.0 / 3.0 for e in mrf.edges}
        nu = messages_to_pseudo(unit_messages(mrf), mrf, rho)
        want = triangle_fixed_point(1.0)
        assert max_log_change(nu, want) < 1e-12

    def test_arbitrary_messages_reparameterize(self, rng):
        # any message set induces tree parameters combining back to theta
        mrf = triangle_mrf(-0.7)
        dist = uniform_tree_distribution(mrf)
        rho = edge_appearance(dist, mrf)
        for _ in range(10):
            msgs = MessageSetFactory(rng, mrf)
            nu = messages_to_pseudo(msgs, mrf, rho)
            assert check_reparameterization(nu, dist, mrf) < 1e-10


class TestRunTrw:
    def test_triangle_agreeing_finds_certificate(self):
        mrf = triangle_mrf(1.0)
        dist = uniform_tree_distribution(mrf)
        for variant in ("reparam", "messages"):
            result = run_trw(mrf, dist, TrwConfig(), variant=variant)
            assert result.converged
            assert result.certificate is not None
            assert tuple(result.certificate) in {(0, 0, 0), (1, 1, 1)}
            assert result.bound_trace[-1] == pytest.approx(0.0, abs=1e-9)
            want = triangle_fixed_point(1.0)
            assert max_log_change(result.nu, want) < 1e-6

    def test_triangle_frustrated_no_certificate(self):
        mrf = triangle_mrf(-1.0)
        dist = uniform_tree_distribution(mrf)
        for variant in ("reparam", "messages"):
            result = run_trw(mrf, dist, TrwConfig(), variant=variant)
            assert result.converged
            assert result.certificate is None
            assert not result.certificate_indeterminate
            assert result.bound_trace[-1] == pytest.approx(3.0, abs=1e-9)
            want = triangle_fixed_point(-1.0)
            assert max_log_change(result.nu, want) < 1e-6

    def test_non_convergence_is_a_result_not_an_error(self):
        mrf = diamond_mrf()
        result = run_trw(mrf, None, TrwConfig(max_iterations=2), variant="messages")
        assert not result.converged
        assert result.terminated_by == "max_iterations"

    def test_attractive_grid_certificates_match_oracle(self):
        # 4x4 spin grids, node weights U[-1,1], couplings U[0,1]
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            edges = grid_edges(4, 4)
            mrf = ising_to_overcomplete(2 * rng.random(16) - 1,
                                        {e: rng.random() for e in edges})
            result = run_trw(mrf, None, TrwConfig(), variant="messages")
            assert result.certificate is not None
            value, _ = brute_force_map(mrf)
            assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-9)
            hits += 1
        assert hits == 20

    def test_bound_trace_stays_above_optimum(self, rng):
        for _ in range(5):
            mrf = random_graph_mrf(rng, n_nodes=4)
            dist = uniform_tree_distribution(mrf)
            result = run_trw(mrf, dist, TrwConfig(max_iterations=60), variant="reparam")
            value, _ = brute_force_map(mrf)
            assert all(b >= value - 1e-8 for b in result.bound_trace)

    def test_tree_fixed_point_equals_exact_max_marginals(self, rng):
        # undamped updates on a tree settle in finitely many steps
        for _ in range(10):
            mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 8)))
            result = run_trw(mrf, {e: 1.0 for e in mrf.edges},
                             TrwConfig(damping=1.0), variant="messages")
            assert result.converged
            exact = tree_max_marginals(mrf, SpanningTree(mrf.edges))
            assert max_log_change(result.nu, exact) < 1e-8
            value, _ = brute_force_map(mrf)
            assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("variant", ["messages", "reparam"])
    @pytest.mark.parametrize("rho", [None, {}, {(0, 1): 1.0}])
    def test_edgeless_model_is_error(self, variant, rho):
        mrf = PairwiseMrf((2, 3), (), (np.array([0.0, 1.0]), np.zeros(3)), {})
        with pytest.raises(StructureError, match=r"^model has no edges$"):
            run_trw(mrf, rho, TrwConfig(), variant=variant)


class TestCertificateSearch:
    def test_triangle_agreeing_returns_constant_state(self):
        nu = triangle_fixed_point(1.0)
        mrf = triangle_mrf(1.0)
        res = find_certificate(nu, mrf)
        assert res.assignment is not None
        assert tuple(res.assignment) in {(0, 0, 0), (1, 1, 1)}

    def test_triangle_frustrated_returns_none(self):
        # every edge demands disagreement, impossible around an odd cycle
        nu = triangle_fixed_point(-1.0)
        res = find_certificate(nu, triangle_mrf(-1.0))
        assert res.assignment is None
        assert not res.indeterminate

    def test_reference_diamond_tables_certify_all_zeros(self):
        mrf = diamond_mrf()
        log_node = tuple(np.log(np.array(DIAMOND_NU_NODE[s])) for s in range(4))
        mid = np.log(np.array(DIAMOND_NU_MIDDLE_EDGE))
        bnd = np.log(np.array(DIAMOND_NU_BOUNDARY_EDGE))  # (middle, corner)
        log_edge = {(1, 2): mid, (0, 1): bnd.T, (0, 2): bnd.T,
                    (1, 3): bnd, (2, 3): bnd}
        nu = PseudoMaxMarginals(log_node, log_edge)
        res = find_certificate(nu, mrf)
        assert res.assignment is not None and res.assignment.tolist() == [0, 0, 0, 0]
        value, _ = brute_force_map(mrf)
        assert score(mrf, res.assignment) < value - 1e-9

    def test_guard_reports_indeterminate(self, monkeypatch):
        mrf = triangle_mrf(1.0)
        monkeypatch.setattr(trw_module, "CERT_SEARCH_GUARD", 1)
        res = find_certificate(triangle_fixed_point(1.0), mrf)
        assert res.assignment is None
        assert res.indeterminate

    def test_tables_missing_on_an_edge_are_an_error(self):
        # without edge (2, 4) the search found [0 1 0 2 1 0], which scores
        # 8.372 against a MAP value of 9.255; with it, there is no certificate
        mrf = random_graph_mrf(np.random.default_rng(13), n_nodes=6)
        nu = run_trw(mrf, None, TrwConfig(max_iterations=200)).nu
        partial = PseudoMaxMarginals(nu.log_node,
                                     {e: m for e, m in nu.log_edge.items() if e != (2, 4)})
        with pytest.raises(StructureError, match=r"missing on edges \[\(2, 4\)\]"):
            find_certificate(partial, mrf)
        assert find_certificate(nu, mrf).assignment is None

    def test_tables_of_another_graph_are_an_error(self):
        mrf = triangle_mrf(1.0)
        chain = PairwiseMrf(mrf.cardinalities, ((0, 1), (1, 2)), mrf.theta_node,
                            {e: mrf.theta_edge[e] for e in ((0, 1), (1, 2))})
        with pytest.raises(StructureError, match=r"given on edges \[\(0, 2\)\], not graph edges"):
            find_certificate(triangle_fixed_point(1.0), chain)
        wide = PseudoMaxMarginals((np.zeros(3), np.zeros(2), np.zeros(2)),
                                  {(0, 1): np.zeros((3, 2)), (0, 2): np.zeros((3, 2)),
                                   (1, 2): np.zeros((2, 2))})
        with pytest.raises(StructureError,
                           match=r"cardinalities \[3, 2, 2\], the model \[2, 2, 2\]"):
            find_certificate(wide, triangle_mrf(1.0))


class TestReparameterizationCheck:
    def test_cycle4_explicit_collection_exact(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        assert check_reparameterization(thetas, dist, mrf) == pytest.approx(0.0, abs=1e-12)

    def test_parameter_on_a_non_edge_is_an_error(self):
        mrf, dist, thetas = cycle4_tree_parameters()
        first = thetas[0]
        stray = PairwiseMrf(first.cardinalities, first.edges + ((0, 2),), first.theta_node,
                            {**first.theta_edge, (0, 2): np.zeros((2, 2))})
        with pytest.raises(StructureError, match=r"\(0, 2\), which is not a graph edge"):
            check_reparameterization([stray, *thetas[1:]], dist, mrf)

    def test_pseudo_max_marginals_need_every_edge(self):
        mrf, dist, _ = cycle4_tree_parameters()
        nu = init_pseudo(mrf, edge_appearance(dist, mrf))
        partial = PseudoMaxMarginals(nu.log_node,
                                     {e: m for e, m in nu.log_edge.items() if e != (1, 2)})
        with pytest.raises(StructureError, match=r"missing on edges \[\(1, 2\)\]"):
            check_reparameterization(partial, dist, mrf)

    def test_init_pseudo_reparameterizes(self, rng):
        for _ in range(5):
            mrf = random_graph_mrf(rng, n_nodes=5)
            dist = uniform_tree_distribution(mrf)
            nu = init_pseudo(mrf, edge_appearance(dist, mrf))
            assert check_reparameterization(nu, dist, mrf) < 1e-10

    def test_preserved_across_fifty_steps(self, rng):
        # 3x3 spin grid, mixed couplings
        edges = grid_edges(3, 3)
        mrf = ising_to_overcomplete(rng.normal(size=9) * 0.5,
                                    {e: rng.normal() * 0.5 for e in edges})
        dist = grid_two_tree_distribution(3, 3)
        rho = edge_appearance(dist, mrf)
        nu = init_pseudo(mrf, rho)
        for _ in range(50):
            nu = reparameterization_step(nu, rho, damping=0.5)
        assert check_reparameterization(nu, dist, mrf) < 1e-8

    def test_preserved_along_all_algorithms(self):
        # fixed seeds; every iterate of each update rule stays a valid
        # rho-combination of tree parameters
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(3, 6)))
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            nu = init_pseudo(mrf, rho)
            msgs = unit_messages(mrf)
            for _ in range(8):
                nu = reparameterization_step(nu, rho, damping=0.5)
                msgs = message_step(msgs, mrf, rho, damping=0.5)
                assert check_reparameterization(nu, dist, mrf) < 1e-8
                assert check_reparameterization(
                    messages_to_pseudo(msgs, mrf, rho), dist, mrf) < 1e-8

    def test_fixed_points_are_edge_consistent(self):
        for seed in range(8):
            rng = np.random.default_rng(2000 + seed)
            mrf = random_graph_mrf(rng, n_nodes=5)
            result = run_trw(mrf, None, TrwConfig(), variant="messages")
            if result.converged:
                assert check_edge_consistency(result.nu).max_deviation < 1e-6
            result1 = run_trw(mrf, None, TrwConfig(), variant="reparam")
            if result1.converged:
                assert check_edge_consistency(result1.nu).max_deviation < 1e-6


class TestCertificateSoundness:
    def test_certificates_always_match_oracle(self):
        # whatever the instance, a converged run that certifies an assignment
        # has certified a true optimum
        found = 0
        for seed in range(30):
            rng = np.random.default_rng(7000 + seed)
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(3, 6)))
            for variant in ("reparam", "messages"):
                result = run_trw(mrf, None, TrwConfig(max_iterations=1500), variant=variant)
                if result.converged and result.certificate is not None:
                    value, _ = brute_force_map(mrf)
                    assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-8)
                    found += 1
        assert found >= 20

    def test_degenerate_cardinality_one_node(self):
        mrf = PairwiseMrf((1, 2), ((0, 1),), (np.array([0.5]), np.array([0.0, 1.0])),
                          {(0, 1): np.array([[0.2, -0.3]])})
        result = run_trw(mrf, {(0, 1): 1.0}, TrwConfig(damping=1.0))
        value, _ = brute_force_map(mrf)
        assert result.certificate is not None
        assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-12)


class TestJensenBound:
    def test_equality_iff_shared_optimum(self):
        for seed in range(12):
            rng = np.random.default_rng(3000 + seed)
            mrf = random_graph_mrf(rng, n_nodes=4, card_choices=(2,))
            dist = uniform_tree_distribution(mrf)
            result = run_trw(mrf, dist, TrwConfig(tol=1e-12, max_iterations=5000),
                             variant="reparam")
            if not result.converged:
                continue
            value, _ = brute_force_map(mrf)
            bound = result.bound_trace[-1]
            assert bound >= value - 1e-8
            sets = []
            for tree, _w in dist.support_items():
                theta = tree_parameter(mrf, _theta_from_nu(result.nu, tree))
                sets.append(tree_opt_set(mrf, tree, theta, atol=1e-9).as_set())
            shared = set.intersection(*sets)
            if shared:
                assert bound == pytest.approx(value, abs=1e-7)
                _, opt = brute_force_map(mrf)
                assert shared <= opt.as_set()
            else:
                assert bound > value + 1e-7


class TestTreeUpdates:
    def test_single_tree_terminates_immediately(self, rng):
        mrf = random_tree_mrf(rng, n_nodes=6)
        dist = TreeDistribution(6, (SpanningTree(mrf.edges),), np.array([1.0]))
        result = run_tree_updates(mrf, dist, TrwConfig())
        assert result.iterations == 1
        assert result.terminated_by == "tree_agreement"
        value, _ = brute_force_map(mrf)
        assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-9)

    def test_cycle4_early_exit_on_aligned_state(self):
        mrf, dist, _ = cycle4_tree_parameters()
        result = run_tree_updates(mrf, dist, TrwConfig())
        assert result.terminated_by == "tree_agreement"
        assert tuple(result.certificate) in {(0, 0, 0, 0), (1, 1, 1, 1)}
        value, _ = brute_force_map(mrf)
        assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-9)

    def test_mixed_grid_certificates_match_oracle(self):
        dist = grid_two_tree_distribution(4, 4)
        found = 0
        for seed in range(6):
            rng = np.random.default_rng(4000 + seed)
            edges = grid_edges(4, 4)
            gamma = 0.5
            mrf = ising_to_overcomplete(2 * rng.random(16) - 1,
                                        {e: gamma * rng.random() - gamma / 2 for e in edges})
            result = run_tree_updates(mrf, dist, TrwConfig(max_iterations=300))
            if result.certificate is not None:
                value, _ = brute_force_map(mrf)
                assert score(mrf, result.certificate) == pytest.approx(value, abs=1e-9)
                found += 1
        assert found >= 3  # weak coupling: agreement fires on most seeds

    def test_merge_preserves_reparameterization(self):
        # iterate with agreement checks disabled-by-tightness so merges happen
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            mrf = random_graph_mrf(rng, n_nodes=4)
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            thetas = _split_parameter(mrf, potentials(mrf), dist, rho)
            support = dist.support_items()
            for _ in range(3):
                nus = {tree: tree_max_marginals(mrf, tree, tree_parameter(mrf, thetas[tree]))
                       for tree, _w in support}
                merged = _merge_tree_potentials(mrf, nus, support)
                thetas = _split_parameter(mrf, merged, dist, rho)
                collection = [tree_parameter(mrf, thetas[tree]) for tree, _w in support]
                assert check_reparameterization(collection, dist, mrf) < 1e-8


@pytest.mark.parametrize("seed", [0, 4, 8])
def test_tree_update_bound_is_added_left_to_right(monkeypatch, seed):
    # builtin sum is compensated from Python 3.12 on, as math.fsum is; the
    # bound must not depend on which one the interpreter has
    import trwmap.trw as trw_module

    mrf = random_graph_mrf(np.random.default_rng(seed), n_nodes=5, extra_edge_prob=0.6)
    dist = uniform_tree_distribution(mrf)
    assert len(dist.support_items()) >= 3
    config = TrwConfig(max_iterations=30)
    want = run_tree_updates(mrf, dist, config).bound_trace
    monkeypatch.setattr(trw_module, "sum", math.fsum, raising=False)
    assert run_tree_updates(mrf, dist, config).bound_trace == want


def test_per_edge_views_are_built_on_first_read():
    mrf = load_model(save_model(random_graph_mrf(np.random.default_rng(3), n_nodes=6,
                                                 card_choices=(2, 3))))
    res = run_trw(mrf, None, TrwConfig(max_iterations=5))
    find_certificate(res.nu, mrf)
    check_edge_consistency(res.nu)
    score(mrf, [0] * mrf.node_count)
    # a solve reads the model's packed vectors only
    assert not {"theta_node", "theta_edge"} & set(vars(mrf))
    for views, vector in ((mrf.theta_node, mrf.node_vector),
                          (mrf.theta_edge.values(), mrf.edge_vector)):
        assert all(np.shares_memory(v, vector) and not v.flags.writeable for v in views)
    assert list(mrf.theta_edge) == list(mrf.edges)
    assert {"theta_node", "theta_edge"} <= set(vars(mrf))
    assert not {"log_node", "log_edge"} & set(vars(res.nu))
    assert "log_m" not in vars(res.messages)
    layout = res.nu.layout
    for k, (e, (ms, mt)) in enumerate(zip(layout.edges, layout.edge_cards)):
        assert np.shares_memory(res.nu.log_edge[e], res.nu.tables)
        assert np.array_equal(res.nu.log_edge[e], res.nu.tables[k, :ms, :mt])
    for s, v in enumerate(res.nu.log_node):
        assert np.array_equal(v, res.nu.node[layout.offsets[s]:layout.offsets[s] + len(v)])
    assert set(res.messages.log_m) == {(s, t) for e in mrf.edges for s, t in (e, e[::-1])}
    assert {"log_node", "log_edge"} <= set(vars(res.nu))


def _entry_points():
    """Each public function that takes rho_e, as a call on the triangle."""
    from trwmap.lp import MessageSet, evaluate_dual

    mrf = triangle_mrf(1.0)
    good = uniform_rho(mrf)
    msgs, nu = unit_messages(mrf), init_pseudo(mrf, good)
    return good, {
        "init_pseudo": lambda rho: init_pseudo(mrf, rho),
        "message_step": lambda rho: message_step(msgs, mrf, rho),
        "reparameterization_step": lambda rho: reparameterization_step(nu, rho),
        "messages_to_pseudo": lambda rho: messages_to_pseudo(msgs, mrf, rho),
        "evaluate_dual": lambda rho: evaluate_dual(MessageSet(msgs.log_m), mrf, rho),
    }


@pytest.mark.parametrize("name", ["init_pseudo", "message_step", "reparameterization_step",
                                  "messages_to_pseudo", "evaluate_dual"])
@pytest.mark.parametrize("value, message", [
    (0.0, "rho_e missing or non-positive on edges [(0, 1)]"),
    (-1.0, "rho_e missing or non-positive on edges [(0, 1)]"),
    (float("nan"), "rho_e on edge (0, 1) is not finite: nan"),
    (None, "rho_e missing or non-positive on edges [(0, 1)]"),
])
def test_every_entry_point_checks_rho(name, value, message):
    # the one check `resolve_rho` makes: a graph edge, finite and positive
    good, call = _entry_points()
    call[name](good)
    bad = dict(good)
    if value is None:
        del bad[(0, 1)]
    else:
        bad[(0, 1)] = value
    with pytest.raises(StructureError) as err:
        call[name](bad)
    assert str(err.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("tol", float("inf"), "tolerance must be finite and positive, got inf"),
    ("tol", float("nan"), "tolerance must be finite and positive, got nan"),
    ("tol", 0.0, "tolerance must be finite and positive, got 0.0"),
    ("damping", float("nan"), "damping must lie in (0, 1]"),
    ("damping", 1.5, "damping must lie in (0, 1]"),
    ("max_iterations", 0, "max_iterations must be at least 1"),
])
def test_trw_config_rejects_bad_fields(field, value, message):
    # an infinite tolerance would stop every run after one step as converged,
    # and a NaN one would never stop it
    TrwConfig(**{field: 1})
    with pytest.raises(ValueError) as err:
        TrwConfig(**{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("seed", range(5))
def test_sum_in_order_adds_left_to_right(seed):
    # terms of very different sizes, where pairwise or compensated sums differ
    from trwmap.model import _sum_in_order

    rng = np.random.default_rng(seed)
    terms = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 9, size=(40, 3))
    want = np.zeros(3)
    for row in terms:
        want = want + row
    assert np.array_equal(_sum_in_order(terms), want)
    total = 0.0
    for v in terms[:, 0].tolist():
        total += v
    assert _sum_in_order(terms[:, 0]) == total
    assert _sum_in_order(np.zeros((0, 2))).tolist() == [0.0, 0.0]
