"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (visible with pytest -s)."""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trwmap import (Factor, FactorGraph, PairwiseMrf, SpanningTree,
                    TreeDistribution, TrwConfig, brute_force_map,
                    build_local_lp, check_edge_consistency,
                    check_reparameterization, classify_vertex,
                    delta_pseudomarginal, dual_from_messages, edge_appearance,
                    evaluate_dual, factor_to_pairwise, find_certificate,
                    in_marginal_polytope, init_pseudo, message_step,
                    messages_to_pseudo, reparameterization_step,
                    run_tree_updates, run_trw, score, simplex_solve,
                    tree_max_marginals, tree_opt_set, uniform_tree_distribution,
                    vector_to_pseudomarginal)
from trwmap.cli import ExperimentSpec, run_experiment
from trwmap.examples import (DIAMOND_NU_BOUNDARY_EDGE, DIAMOND_NU_MIDDLE_EDGE,
                             DIAMOND_NU_NODE, diamond_mrf, bridge_graph_trees,
                             bridge_graph, triangle_mrf)

from conftest import random_graph_mrf, random_tree_mrf
from trw_reference import (_merge_tree_potentials, _split_parameter, _theta_from_nu,
                           max_log_change, potentials, tree_parameter)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def test_criterion_1_integrality_gap():
    with criterion(1, "frustrated-triangle integrality gap"):
        start = time.perf_counter()
        mrf = triangle_mrf(-1.0)
        lp = simplex_solve(build_local_lp(mrf))
        value, _ = brute_force_map(mrf)
        assert abs(lp.value - 3.0) <= 1e-7
        assert abs(value - 2.0) <= 1e-7
        tau = vector_to_pseudomarginal(mrf, lp.x)
        assert classify_vertex(tau).kind == "fractional"
        # solution equality (expected; objective equality is the requirement)
        for s in range(3):
            assert np.allclose(tau.theta_node[s], [0.5, 0.5], atol=1e-9)
        for e in mrf.edges:
            assert np.allclose(tau.theta_edge[e], [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_triangle_fixed_point():
    with criterion(2, "triangle fixed point and certificates"):
        start = time.perf_counter()
        mrf = triangle_mrf(1.0)
        dist = uniform_tree_distribution(mrf)
        lp = simplex_solve(build_local_lp(mrf))
        value, _ = brute_force_map(mrf)
        assert abs(lp.value - 0.0) <= 1e-7 and abs(value - 0.0) <= 1e-12
        want_edge = 1.5 * np.array([[0.0, -1.0], [-1.0, 0.0]])
        config = TrwConfig(damping=0.5, tol=1e-8)
        for variant in ("reparam", "messages"):
            result = run_trw(mrf, dist, config, variant=variant)
            assert result.converged
            for e in mrf.edges:
                assert np.allclose(result.nu.log_edge[e], want_edge, atol=1e-6)
            assert result.certificate is not None
            assert tuple(result.certificate) in {(0, 0, 0), (1, 1, 1)}
        for variant in ("reparam", "messages"):
            result = run_trw(triangle_mrf(-1.0), uniform_tree_distribution(mrf),
                             config, variant=variant)
            assert result.converged
            assert result.certificate is None
            assert not result.certificate_indeterminate
        assert time.perf_counter() - start < 1.0


def test_criterion_3_diamond_counterexample():
    with criterion(3, "diamond: ordinary max-product fails, reweighted succeeds"):
        start = time.perf_counter()
        mrf = diamond_mrf()
        value, opt = brute_force_map(mrf)
        assert opt.configurations == ((1, 1, 1, 1),)

        plain = run_trw(mrf, {e: 1.0 for e in mrf.edges}, TrwConfig(), variant="messages")
        assert plain.converged
        # genuine fixed point: one more undamped update barely moves it
        again = message_step(plain.messages, mrf, {e: 1.0 for e in mrf.edges}, damping=1.0)
        assert max_log_change(again, plain.messages) < 1e-6

        nu = plain.nu
        for s in range(4):
            assert np.allclose(np.exp(nu.log_node[s]), DIAMOND_NU_NODE[s],
                               rtol=2e-2, atol=5e-5)
        mid = np.exp(nu.log_edge[(1, 2)])
        # reference tables carry four decimals; allow half an ulp of that
        assert np.allclose(mid, DIAMOND_NU_MIDDLE_EDGE, rtol=2e-2, atol=5e-5)
        want = np.array(DIAMOND_NU_BOUNDARY_EDGE)  # (middle, corner) orientation
        for e, oriented in (((0, 1), np.exp(nu.log_edge[(0, 1)]).T),
                            ((0, 2), np.exp(nu.log_edge[(0, 2)]).T),
                            ((1, 3), np.exp(nu.log_edge[(1, 3)])),
                            ((2, 3), np.exp(nu.log_edge[(2, 3)]))):
            assert np.allclose(np.diag(oriented), np.diag(want), rtol=2e-2, atol=5e-5)
            # reference off-diagonal pair is asymmetric; compare it as a set
            assert np.allclose(sorted([oriented[0, 1], oriented[1, 0]]),
                               sorted([want[0, 1], want[1, 0]]), rtol=2e-2, atol=5e-5)

        assert plain.certificate is not None
        assert plain.certificate.tolist() == [0, 0, 0, 0]
        assert score(mrf, plain.certificate) < score(mrf, [1, 1, 1, 1]) - 1e-9

        dist = uniform_tree_distribution(mrf)
        assert len(dist.trees) == 8
        trw = run_trw(mrf, dist, TrwConfig(), variant="messages")
        assert trw.certificate is not None
        assert trw.certificate.tolist() == [1, 1, 1, 1]
        assert score(mrf, trw.certificate) == pytest.approx(value, abs=1e-12)
        assert time.perf_counter() - start < 5.0


def test_criterion_4_edge_appearance_probabilities():
    with criterion(4, "bridge graph edge appearance probabilities"):
        rho = edge_appearance(bridge_graph_trees(), bridge_graph())
        assert rho[(3, 4)] == 1.0
        assert rho[(0, 1)] == 2.0 / 3.0
        assert rho[(1, 2)] == 1.0 / 3.0


def test_criterion_5_tree_exactness():
    with criterion(5, "exactness on 100 random tree models"):
        for seed in range(100):
            rng = np.random.default_rng(50_000 + seed)
            mrf = random_tree_mrf(rng, n_nodes=int(rng.integers(2, 11)),
                                  card_choices=(2, 3))
            value, _ = brute_force_map(mrf)
            lp = simplex_solve(build_local_lp(mrf))
            assert abs(lp.value - value) <= 1e-7 * max(1.0, abs(value))
            result = run_trw(mrf, {e: 1.0 for e in mrf.edges},
                             TrwConfig(damping=0.5, tol=1e-10, max_iterations=5000),
                             variant="messages")
            assert result.converged
            assert result.certificate is not None
            assert abs(score(mrf, result.certificate) - value) <= 1e-7
            exact = tree_max_marginals(mrf, SpanningTree(mrf.edges))
            assert max_log_change(result.nu, exact) < 1e-8  # log abs ~ relative


def _random_enumerable_instance(seed):
    rng = np.random.default_rng(60_000 + seed)
    return random_graph_mrf(rng, n_nodes=int(rng.integers(3, 6)),
                            card_choices=(2, 3), extra_edge_prob=0.3)


def test_criterion_6a_reparameterization_every_iteration():
    with criterion("6a", "rho-reparameterization at every iteration"):
        for seed in range(50):
            mrf = _random_enumerable_instance(seed)
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            nu = init_pseudo(mrf, rho)
            assert check_reparameterization(nu, dist, mrf) < 1e-8
            from trwmap import unit_messages
            msgs = unit_messages(mrf)
            for _ in range(10):
                nu = reparameterization_step(nu, rho, damping=0.5)
                msgs = message_step(msgs, mrf, rho, damping=0.5)
                assert check_reparameterization(nu, dist, mrf) < 1e-8
                assert check_reparameterization(
                    messages_to_pseudo(msgs, mrf, rho), dist, mrf) < 1e-8
            support = dist.support_items()
            thetas = _split_parameter(mrf, potentials(mrf), dist, rho)
            for _ in range(3):
                nus = {tree: tree_max_marginals(mrf, tree, tree_parameter(mrf, thetas[tree]))
                       for tree, _w in support}
                merged = _merge_tree_potentials(mrf, nus, support)
                thetas = _split_parameter(mrf, merged, dist, rho)
                assert check_reparameterization(
                    [tree_parameter(mrf, thetas[t]) for t, _w in support], dist, mrf) < 1e-8


def test_criterion_6b_fixed_point_edge_consistency():
    with criterion("6b", "fixed-point edge consistency"):
        checked = 0
        for seed in range(20):
            mrf = _random_enumerable_instance(seed)
            result = run_trw(mrf, None, TrwConfig(tol=1e-8), variant="messages")
            if result.converged:
                assert check_edge_consistency(result.nu).max_deviation < 1e-6
                checked += 1
        assert checked >= 15


def test_criterion_6c_jensen_bound():
    with criterion("6c", "upper bound with equality iff shared tree optimum"):
        for seed in range(20):
            mrf = _random_enumerable_instance(seed)
            dist = uniform_tree_distribution(mrf)
            result = run_trw(mrf, dist, TrwConfig(tol=1e-12, max_iterations=3000),
                             variant="reparam")
            value, opt = brute_force_map(mrf)
            assert all(b >= value - 1e-8 for b in result.bound_trace)
            if not result.converged:
                continue
            sets = [tree_opt_set(mrf, tree, tree_parameter(mrf, _theta_from_nu(result.nu, tree)),
                                 atol=1e-9).as_set()
                    for tree, _w in dist.support_items()]
            shared = set.intersection(*sets)
            bound = result.bound_trace[-1]
            if shared:
                assert abs(bound - value) <= 1e-7
                assert shared <= opt.as_set()
            else:
                assert bound > value + 1e-7


def test_criterion_6d_weak_duality():
    with criterion("6d", "weak duality over 200 random multipliers"):
        rng = np.random.default_rng(77)
        trials = 0
        while trials < 200:
            mrf = _random_enumerable_instance(int(rng.integers(0, 50)))
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            lp_value = simplex_solve(build_local_lp(mrf)).value
            from trwmap import MessageSet, unit_messages
            shapes = {k: v.shape for k, v in unit_messages(mrf).log_m.items()}
            for _ in range(10):
                lam = MessageSet({k: rng.normal(size=sh) * 2 for k, sh in shapes.items()})
                assert evaluate_dual(lam, mrf, rho) >= lp_value - 1e-8
                trials += 1


def test_criterion_6e_strong_duality_at_certified_fixed_points():
    with criterion("6e", "dual optimality at certified fixed points"):
        instances = [(triangle_mrf(1.0), None), (diamond_mrf(), None)]
        for seed in range(12):
            instances.append((_random_enumerable_instance(seed), None))
        tested = 0
        for mrf, _ in instances:
            dist = uniform_tree_distribution(mrf)
            rho = edge_appearance(dist, mrf)
            result = run_trw(mrf, dist, TrwConfig(tol=1e-10, max_iterations=4000),
                             variant="messages")
            if not (result.converged and result.certificate is not None):
                continue
            lp_value = simplex_solve(build_local_lp(mrf)).value
            lam = dual_from_messages(result.messages, result.nu, dist, root=0)
            q = evaluate_dual(lam, mrf, rho)
            assert q == pytest.approx(lp_value, rel=1e-6, abs=1e-6)
            tested += 1
        assert tested >= 8


def test_criterion_6f_fractional_vertex_outside_marginal_polytope():
    with criterion("6f", "fractional vertex lies outside the marginal polytope"):
        mrf = triangle_mrf(-1.0)
        tau = PairwiseMrf(
            mrf.cardinalities, mrf.edges, (np.array([0.5, 0.5]),) * 3,
            {e: np.array([[0.0, 0.5], [0.5, 0.0]]) for e in mrf.edges})
        assert not in_marginal_polytope(tau)
        assert in_marginal_polytope(delta_pseudomarginal(mrf, [1, 0, 1]))


def test_criterion_7_grid_experiment():
    with criterion(7, "4x4 grid experiment, oracle-verified"):
        start = time.perf_counter()
        gammas = (0.2, 0.5, 1.0, 1.5, 2.0)
        attractive = run_experiment(ExperimentSpec(
            rows=4, cols=4, regime="attractive", gammas=gammas, trials=20,
            seed=20240817, verify_oracle=True))
        for r in attractive:
            if r.certificate:
                assert r.oracle_match
        mixed = run_experiment(ExperimentSpec(
            rows=4, cols=4, regime="mixed", gammas=gammas, trials=20,
            seed=20240817, verify_oracle=True))
        for r in mixed:
            assert r.frac_unique_correct is not None
            if r.certificate:
                assert r.oracle_match
        for g in (0.2, 0.5):
            for records in (attractive, mixed):
                edge_med = statistics.median(
                    [r.messages_per_edge for r in records
                     if r.gamma == g and r.method == "edge"])
                tree_med = statistics.median(
                    [r.messages_per_edge for r in records
                     if r.gamma == g and r.method == "tree"])
                assert tree_med < edge_med
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0


def test_criterion_8_factor_graph_conversion():
    with criterion(8, "factor-graph reduction preserves the optimum"):
        for seed in range(50):
            rng = np.random.default_rng(80_000 + seed)
            n = int(rng.integers(2, 5))
            cards = tuple([2] * n)
            factors = []
            for _ in range(int(rng.integers(1, 4))):
                arity = int(rng.integers(1, min(3, n) + 1))
                members = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
                factors.append(Factor(members, np.exp(rng.normal(
                    size=tuple(cards[v] for v in members)))))
            fg = FactorGraph(cards, tuple(factors))
            mrf = factor_to_pairwise(fg)
            value, _ = brute_force_map(mrf)
            best = -np.inf
            for flat in range(2 ** n):
                x = [(flat >> s) & 1 for s in range(n)]
                best = max(best, sum(float(np.log(f.table[tuple(x[v] for v in f.members)]))
                                     for f in fg.factors))
            assert abs(value - best) <= 1e-9
