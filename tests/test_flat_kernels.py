"""The array kernels on the padded edge stack and the level-batched tree DP
reproduce the per-edge dict kernels bit for bit."""

import io
import sys
from pathlib import Path

import numpy as np
import pytest

import trw_reference as ref
from trwmap import (MessageSet, PairwiseMrf, SpanningTree, StructureError,
                    TreeDistribution, TrwConfig, check_edge_consistency,
                    check_reparameterization, cli, edge_appearance, evaluate_dual,
                    find_certificate, init_pseudo, message_step, messages_to_pseudo,
                    reparameterization_step, run_tree_updates, run_trw, tree_map_value,
                    tree_max_marginals, uniform_rho, uniform_tree_distribution, unit_messages)
from trwmap.examples import cycle4_tree_parameters, triangle_mrf
from trwmap.trees import grid_edges, grid_two_tree_distribution
from trwmap.treedp import MaxMarginals, _Layout, _TreeLayout
from trwmap.trw import CERT_TIE_TOL, _tree_tables_agree

from conftest import random_graph_mrf, random_tree_mrf

DATA = Path(__file__).parent / "data"


def mixed_grid(rng, rows, cols):
    n = rows * cols
    cards = tuple(int(m) for m in rng.integers(2, 5, n))
    edges = tuple(grid_edges(rows, cols))
    return PairwiseMrf(cards, edges, tuple(rng.normal(size=m) for m in cards),
                       {(s, t): rng.normal(size=(cards[s], cards[t])) for s, t in edges})


def shuffled_edges(rng):
    mrf = random_graph_mrf(rng, n_nodes=7, extra_edge_prob=0.6)
    edges = tuple(mrf.edges[i] for i in rng.permutation(len(mrf.edges)))
    assert edges != tuple(sorted(edges))
    return PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge)


def models():
    out = []
    for seed in range(6):
        out.append(random_graph_mrf(np.random.default_rng(9100 + seed)))
    out.append(mixed_grid(np.random.default_rng(9200), 5, 5))
    out.append(mixed_grid(np.random.default_rng(9201), 3, 4))
    out.append(shuffled_edges(np.random.default_rng(9300)))
    return out


def random_rho(rng, mrf):
    return {e: float(rng.uniform(0.2, 1.0)) for e in mrf.edges}


def random_messages(rng, mrf):
    logs = {}
    for s, t in mrf.edges:
        logs[(t, s)] = rng.normal(size=mrf.cardinalities[s])
        logs[(s, t)] = rng.normal(size=mrf.cardinalities[t])
    return MessageSet(logs)


def assert_tables_equal(got, want):
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def assert_pseudo_equal(got, want):
    assert len(got.log_node) == len(want.log_node)
    for a, b in zip(got.log_node, want.log_node):
        assert np.array_equal(a, b)
    assert_tables_equal(got.log_edge, want.log_edge)


MODELS = models()


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(MODELS)))
def test_message_step_matches_reference(index, damping):
    mrf = MODELS[index]
    rng = np.random.default_rng(index)
    rho = random_rho(rng, mrf)
    for start in (unit_messages(mrf), random_messages(rng, mrf)):
        got, want = start, start
        for _ in range(6):
            got = message_step(got, mrf, rho, damping)
            want = ref.message_step(want, mrf, rho, damping)
            assert_tables_equal(got.log_m, want.log_m)
            assert_pseudo_equal(messages_to_pseudo(got, mrf, rho),
                                ref.messages_to_pseudo(want, mrf, rho))


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(MODELS)))
def test_reparameterization_step_matches_reference(index, damping):
    mrf = MODELS[index]
    rho = random_rho(np.random.default_rng(index), mrf)
    got = init_pseudo(mrf, rho)
    want = ref.init_pseudo(mrf, rho)
    assert_pseudo_equal(got, want)
    for _ in range(6):
        got = reparameterization_step(got, rho, damping)
        want = ref.reparameterization_step(want, rho, damping)
        assert_pseudo_equal(got, want)


def test_unit_messages_match_reference():
    for mrf in MODELS:
        assert_tables_equal(unit_messages(mrf).log_m, ref.unit_messages(mrf).log_m)


@pytest.mark.parametrize("variant", ["messages", "reparam"])
def test_run_trw_matches_reference_loop(variant):
    for index, mrf in enumerate(MODELS):
        rho = uniform_rho(mrf) if index % 2 else random_rho(np.random.default_rng(index), mrf)
        config = TrwConfig(max_iterations=60)
        result = run_trw(mrf, rho, config, variant=variant)
        nu, msgs, iterations, converged = ref.run(mrf, rho, config.damping, config.tol,
                                                  config.max_iterations, variant)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert_pseudo_equal(result.nu, nu)
        if variant == "messages":
            assert_tables_equal(result.messages.log_m, msgs.log_m)
        else:
            assert result.messages is None


def test_certificate_search_on_1600_nodes_within_recursion_limit():
    # a 40x40 grid of strongly attractive binary couplings with a unique
    # maximizer per node: the search descends once per node
    rows = cols = 40
    n = rows * cols
    rng = np.random.default_rng(5)
    edges = tuple(grid_edges(rows, cols))
    mrf = PairwiseMrf((2,) * n, edges, tuple(rng.normal(size=2) for _ in range(n)),
                      {e: np.array([[1.0, -1.0], [-1.0, 1.0]]) for e in edges})
    assert n > sys.getrecursionlimit()
    result = run_trw(mrf, None, TrwConfig(max_iterations=200), variant="messages")
    cert = find_certificate(result.nu, mrf)
    assert cert.assignment is not None
    assert np.array_equal(cert.assignment, result.certificate)
    for (s, t) in mrf.edges:
        m = result.nu.log_edge[(s, t)]
        assert m[cert.assignment[s], cert.assignment[t]] >= m.max() - 1e-9


def experiment_csv(regime):
    out = io.StringIO()
    code = cli.main(["experiment", "--rows", "4", "--cols", "4", "--regime", regime,
                     "--trials", "3", "--max-iters", "100", "--seed", "7",
                     "--verify-oracle"], out=out)
    assert code == 0
    return out.getvalue().encode("utf-8")


def test_experiment_csv_is_byte_identical_to_golden():
    assert experiment_csv("mixed") == (DATA / "experiment_mixed_4x4_seed7.csv").read_bytes()


def test_attractive_experiment_csv_is_byte_identical_to_golden():
    # converged and capped runs of both schedules, two tree runs without a certificate
    golden = (DATA / "experiment_attractive_4x4_seed7.csv").read_bytes()
    assert experiment_csv("attractive") == golden
    rows = [line.split(",") for line in golden.decode().splitlines()[1:]]
    assert {(r[2], r[4]) for r in rows} == {(m, c) for m in ("edge", "tree")
                                            for c in ("true", "false")}


# --- tree layer ---------------------------------------------------------------

def reweighted(dist, rng, zero_first=False, reverse=False):
    """The distribution's trees, reversed if asked, under random weights;
    with zero_first, the first listed tree gets weight zero."""
    trees = dist.trees[::-1] if reverse else dist.trees
    w = rng.uniform(0.5, 1.5, len(trees))
    if zero_first:
        w[0] = 0.0
    return TreeDistribution(dist.node_count, trees, w / w.sum())


def tree_cases():
    """(model, tree distribution) pairs: random graphs with 2 or 3 states
    under all their spanning trees, grids under the two-tree distribution,
    a distribution holding a zero-weight tree, one listing its trees out of
    sorted order, a model whose edges are not sorted, a frustrated
    triangle, whose trees agree on max-marginals but share no optimum, and
    `penalized_triangle`, which stops on that agreement with padded
    slots."""
    cases = []
    for seed in (9400, 9402, 9403, 9407):
        mrf = random_graph_mrf(np.random.default_rng(seed), n_nodes=5)
        cases.append((mrf, uniform_tree_distribution(mrf)))
    spec = cli.ExperimentSpec(4, 4, "attractive", (1.0,), 2, 20240817)
    cases.append((cli._draw_grid_model(spec, 0, 1), grid_two_tree_distribution(4, 4)))
    cases.append((mixed_grid(np.random.default_rng(9201), 3, 4), grid_two_tree_distribution(3, 4)))
    rng = np.random.default_rng(9500)
    mrf = random_graph_mrf(rng, n_nodes=5, extra_edge_prob=0.5)
    dist = uniform_tree_distribution(mrf)
    cases.append((mrf, reweighted(dist, rng, zero_first=True)))
    unsorted = reweighted(dist, rng, reverse=True)
    assert list(unsorted.trees) != sorted(unsorted.trees, key=lambda t: t.edges)
    cases.append((mrf, unsorted))
    edges = tuple(mrf.edges[i] for i in rng.permutation(len(mrf.edges)))
    assert edges != tuple(sorted(edges))
    cases.append((PairwiseMrf(mrf.cardinalities, edges, mrf.theta_node, mrf.theta_edge), dist))
    triangle = triangle_mrf(-1.0)
    cases.append((triangle, uniform_tree_distribution(triangle)))
    mixed = penalized_triangle()
    cases.append((mixed, uniform_tree_distribution(mixed)))
    return cases


def penalized_triangle():
    """The frustrated triangle with a third state on node 0, penalized by
    -10 and with edge rows of 1 like the off-diagonal entries: every tree
    still gives the same max-marginals, so the tree schedule stops on
    their agreement, now on a (3, 3, 3) stack with padded 2x2 tables."""
    triangle = triangle_mrf(-1.0)
    edge = dict(triangle.theta_edge)
    for e in ((0, 1), (0, 2)):
        edge[e] = np.vstack([edge[e], [1.0, 1.0]])
    return PairwiseMrf((3, 2, 2), triangle.edges,
                       (np.array([0.0, 0.0, -10.0]), np.zeros(2), np.zeros(2)), edge)


TREE_CASES = tree_cases()


@pytest.mark.parametrize("damping", [1.0, 0.5])
@pytest.mark.parametrize("index", range(len(TREE_CASES)))
def test_run_tree_updates_matches_reference_loop(index, damping):
    mrf, dist = TREE_CASES[index]
    config = TrwConfig(damping=damping, max_iterations=25)
    result = run_tree_updates(mrf, dist, config)
    want = ref.run_tree_updates(mrf, dist, config)
    for field in ("iterations", "converged", "terminated_by", "certificate_indeterminate",
                  "messages_per_edge"):
        assert getattr(result, field) == want[field], field
    assert (result.certificate is None) == (want["certificate"] is None)
    if want["certificate"] is not None:
        assert np.array_equal(result.certificate, want["certificate"])
    assert np.array_equal(result.bound_trace, want["bound_trace"])
    assert_pseudo_equal(result.nu, want["nu"])


def test_tree_cases_reach_every_stopping_rule():
    reasons = {run_tree_updates(mrf, dist, TrwConfig(max_iterations=25)).terminated_by
               for mrf, dist in TREE_CASES}
    assert reasons == {"tree_agreement", "max_marginal_agreement", "max_iterations"}


@pytest.mark.parametrize("damping", [1.0, 0.5])
def test_mixed_cardinality_case_stops_on_max_marginal_agreement(damping):
    # the edge half of the agreement test runs on padded slot tables, whose
    # padded entries are -inf in every tree
    mrf, dist = TREE_CASES[-1]
    assert len(set(mrf.cardinalities)) > 1
    result = run_tree_updates(mrf, dist, TrwConfig(damping=damping, max_iterations=25))
    assert result.terminated_by == "max_marginal_agreement"
    assert result.certificate is None


@pytest.mark.parametrize("index", range(len(TREE_CASES)))
def test_tree_dp_matches_reference(index):
    mrf, dist = TREE_CASES[index]
    rho = edge_appearance(dist, mrf)
    thetas = ref._split_parameter(mrf, ref.potentials(mrf), dist, rho)
    for tree, theta in thetas.items():
        model = ref.tree_parameter(mrf, theta)
        assert_pseudo_equal(tree_max_marginals(mrf, tree, model),
                            ref.tree_max_marginals(mrf, tree, theta))
        assert tree_map_value(mrf, tree, model) == ref.tree_map_value(mrf, tree, theta)
    tree_model = random_tree_mrf(np.random.default_rng(index), n_nodes=6)
    tree = SpanningTree(tree_model.edges)
    assert_pseudo_equal(tree_max_marginals(tree_model, tree),
                        ref.tree_max_marginals(tree_model, tree))
    assert tree_map_value(tree_model, tree) == ref.tree_map_value(tree_model, tree)


def test_tree_dp_on_one_node_matches_reference():
    # no edges: the stack is (0, M, M) and the belief is the root's node table
    mrf = PairwiseMrf((3,), (), (np.array([0.0, 1.0, 2.0]),), {})
    tree = SpanningTree(())
    assert_pseudo_equal(tree_max_marginals(mrf, tree), ref.tree_max_marginals(mrf, tree))
    assert tree_map_value(mrf, tree) == ref.tree_map_value(mrf, tree)


@pytest.mark.parametrize("variant", ["messages", "reparam"])
def test_run_trw_bound_trace_and_certificate_match_reference(variant):
    for mrf, dist in TREE_CASES:
        rho = edge_appearance(dist, mrf)
        config = TrwConfig(max_iterations=15)
        result = run_trw(mrf, dist, config, variant=variant)
        bounds = []
        nu, _, _, _ = ref.run(mrf, rho, config.damping, config.tol, config.max_iterations,
                              variant, lambda nu: bounds.append(ref.bound_value(mrf, nu, dist, rho)))
        assert np.array_equal(result.bound_trace, bounds)
        assignment, indeterminate = ref.find_certificate(nu, mrf, CERT_TIE_TOL)
        assert result.certificate_indeterminate == indeterminate
        assert (result.certificate is None) == (assignment is None)
        if assignment is not None:
            assert np.array_equal(result.certificate, assignment)


@pytest.mark.parametrize("index", range(len(TREE_CASES)))
def test_check_reparameterization_matches_reference(index):
    # both input forms: pseudo-max-marginals of the three schedules, and
    # explicit tree parameters (tables on tree edges only) before and after
    # one merge of their max-marginals, which the library takes as models
    mrf, dist = TREE_CASES[index]
    rho = edge_appearance(dist, mrf)
    support = dist.support_items()
    config = TrwConfig(max_iterations=15)
    thetas = ref._split_parameter(mrf, ref.potentials(mrf), dist, rho)
    nus = {tree: ref.tree_max_marginals(mrf, tree, thetas[tree]) for tree, _ in support}
    merged = ref._split_parameter(mrf, ref._merge_tree_potentials(mrf, nus, support), dist, rho)
    for nu in (run_trw(mrf, dist, config, variant="messages").nu,
               run_trw(mrf, dist, config, variant="reparam").nu,
               run_tree_updates(mrf, dist, config).nu):
        assert check_reparameterization(nu, dist, mrf) == ref.check_reparameterization(
            nu, dist, mrf)
    for split in (thetas, merged):
        pots = [split[tree] for tree, _ in support]
        models = [ref.tree_parameter(mrf, theta) for theta in pots]
        assert check_reparameterization(models, dist, mrf) == ref.check_reparameterization(
            pots, dist, mrf)


def test_check_reparameterization_matches_reference_on_cycle4_parameters():
    mrf, dist, thetas = cycle4_tree_parameters()
    assert check_reparameterization(thetas, dist, mrf) == ref.check_reparameterization(
        [ref.potentials(theta) for theta in thetas], dist, mrf)


def assert_report_equal(got, want):
    assert list(got.per_edge.items()) == list(want.per_edge.items())
    assert got.max_deviation == want.max_deviation


@pytest.mark.parametrize("index", range(len(TREE_CASES)))
def test_check_edge_consistency_matches_reference_on_tree_cases(index):
    mrf, dist = TREE_CASES[index]
    config = TrwConfig(max_iterations=15)
    for nu in (run_trw(mrf, dist, config, variant="messages").nu,
               run_trw(mrf, dist, config, variant="reparam").nu,
               run_tree_updates(mrf, dist, config).nu):
        assert_report_equal(check_edge_consistency(nu), ref.check_edge_consistency(nu))


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_check_edge_consistency_matches_reference_on_models(index):
    # both schedules' results under random rho, and random tables keyed in
    # random order, far from consistent
    mrf = MODELS[index]
    rng = np.random.default_rng(9600 + index)
    rho = random_rho(rng, mrf)
    cards = mrf.cardinalities
    raw = MaxMarginals(tuple(rng.normal(size=m) for m in cards),
                       {(s, t): rng.normal(size=(cards[s], cards[t]))
                        for s, t in (mrf.edges[i] for i in rng.permutation(len(mrf.edges)))})
    config = TrwConfig(max_iterations=10)
    for nu in (run_trw(mrf, rho, config, variant="messages").nu,
               run_trw(mrf, rho, config, variant="reparam").nu, raw):
        assert_report_equal(check_edge_consistency(nu), ref.check_edge_consistency(nu))


def reordered_results():
    """(model, its tree distribution, pseudo-max-marginals) whose layout
    orders the edges otherwise than `mrf.edges`: the reparameterization
    result on the model with unsorted edges, whose layout is sorted, and
    tables built from a dict keyed in reverse edge order, on that model, a
    triangle and a 4x4 grid.  The search finds a certificate in each."""
    shuffled = MODELS[-1]
    triangle = triangle_mrf(1.0)
    config = TrwConfig(max_iterations=30)
    out = [(shuffled, uniform_tree_distribution(shuffled),
            run_trw(shuffled, None, config, variant="reparam").nu)]
    for mrf, dist in ((shuffled, out[0][1]), (triangle, uniform_tree_distribution(triangle)),
                      TREE_CASES[4]):
        nu = run_trw(mrf, None, config, variant="messages").nu
        out.append((mrf, dist, MaxMarginals(nu.log_node,
                                            {e: nu.log_edge[e] for e in reversed(mrf.edges)})))
    return out


REORDERED = reordered_results()


@pytest.mark.parametrize("index", range(len(REORDERED)))
def test_checks_on_reordered_layouts_match_reference(index):
    mrf, dist, nu = REORDERED[index]
    assert nu.layout.edges != mrf.edges
    got = find_certificate(nu, mrf)
    assignment, indeterminate = ref.find_certificate(nu, mrf, CERT_TIE_TOL)
    assert assignment is not None  # each case certifies, so the assignments are compared
    assert np.array_equal(got.assignment, assignment)
    assert got.indeterminate == indeterminate
    assert_report_equal(check_edge_consistency(nu), ref.check_edge_consistency(nu))
    assert check_reparameterization(nu, dist, mrf) == ref.check_reparameterization(nu, dist, mrf)


def test_check_edge_consistency_without_edges():
    nu = MaxMarginals((np.zeros(2), np.array([0.0, -1.0, -2.0])), {})
    report = check_edge_consistency(nu)
    assert report.per_edge == {} and report.max_deviation == 0.0
    assert_report_equal(report, ref.check_edge_consistency(nu))


def test_edge_consistency_per_edge_is_built_on_first_read():
    # a solve prints only the maximum: the sorted dict waits for a reader
    mrf = MODELS[-1]
    report = check_edge_consistency(run_trw(mrf, None, TrwConfig(max_iterations=5)).nu)
    assert "per_edge" not in vars(report)
    assert report.max_deviation == max(report.per_edge.values())
    assert list(report.per_edge) == sorted(mrf.edges)


def test_tree_agreement_compares_every_pair_of_trees_on_an_edge():
    # three trees hold edge (0, 1); the first lies within tol of the other
    # two, which are 1.2 tol apart, so the trees do not agree
    cards = (2,) * 4
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    trees = [SpanningTree(t) for t in (((0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2), (2, 3)),
                                       ((0, 1), (0, 3), (1, 2)))]
    tol, shift = 1e-8, (0.0, 0.6e-8, -0.6e-8)
    layout = _TreeLayout(_Layout(cards, edges), trees)
    node_mm = np.zeros((len(trees), layout.graph.size))
    edge_mm = np.array([np.full((2, 2), shift[k] if edges[i] == (0, 1) else 0.0)
                        for k, i in zip(layout.tree, layout.edge)])
    nus = {tree: MaxMarginals((np.zeros(2),) * 4,
                              {e: np.full((2, 2), shift[k] if e == (0, 1) else 0.0)
                               for e in tree.edges})
           for k, tree in enumerate(trees)}
    support = [(tree, 1 / 3) for tree in trees]
    assert not ref._max_marginals_agree(nus, support, tol)
    assert not _tree_tables_agree(layout, node_mm, edge_mm, tol)
    assert _tree_tables_agree(layout, node_mm, edge_mm, 2e-8)


def broken_directions():
    """The triangle's unit messages without (1, 0), with an extra (5, 0),
    and with a 3-entry vector on binary node 1."""
    full = dict(unit_messages(triangle_mrf(1.0)).log_m)
    return [({k: v for k, v in full.items() if k != (1, 0)}, r"^direction \(1, 0\): no vector"),
            ({**full, (5, 0): np.zeros(2)}, r"^direction \(5, 0\) is not an edge direction"),
            ({**full, (0, 1): np.zeros(3)}, r"^direction \(0, 1\): shape \(3,\), expected \(2,\)$")]


@pytest.mark.parametrize("case", range(3))
def test_directed_vectors_name_a_bad_direction(case):
    vectors, message = broken_directions()[case]
    mrf = triangle_mrf(1.0)
    rho = uniform_rho(mrf)
    calls = [lambda: message_step(MessageSet(vectors), mrf, rho),
             lambda: messages_to_pseudo(MessageSet(vectors), mrf, rho),
             lambda: evaluate_dual(MessageSet(vectors), mrf, rho)]
    for call in calls:
        with pytest.raises(StructureError, match=message):
            call()
