"""The LP layer on one index map, against the per-row forms in `lp_reference`.

`build_local_lp` must hand the simplex the same `A`, `b` and `c`
(`np.array_equal`), `delta_pseudomarginal` the same tables,
`in_marginal_polytope` the same feasibility LP and answer and `in_local` the
same answer as its edge-by-edge form; `evaluate_dual`,
which sums in edge order on the padded edge stack instead of node by node,
agrees within 1e-12 relative.  `dual_from_messages` must give multipliers
`np.array_equal` to its dict walk's.  The models are the corpus of
`test_simplex_reference.py`.
"""

import functools
import itertools

import numpy as np
import pytest

import lp_reference
from conftest import random_graph_mrf
from test_simplex_reference import MIXED_GRIDS, mixed_cardinality_grid, potts_grid
from trwmap import (MaxMarginals, MessageSet, PairwiseMrf, SpanningTree, TreeDistribution,
                    TrwConfig, build_local_lp, delta_pseudomarginal, dual_from_messages,
                    edge_appearance, grid_edges, in_local, in_marginal_polytope, kirchhoff_count,
                    run_trw, score, simplex_solve, uniform_rho,
                    uniform_tree_distribution, unit_messages, vector_to_pseudomarginal)
from trwmap import lp as lp_module
from trwmap.examples import cycle4_mrf, diamond_mrf, triangle_mrf


def corpus():
    models = [mixed_cardinality_grid(side, np.random.default_rng(1000 * side + seed))
              for side, seed in MIXED_GRIDS]
    rng = np.random.default_rng(20240817)
    models += [random_graph_mrf(rng) for _ in range(12)]
    models += [potts_grid(side, 3, 2.0, np.random.default_rng(50 + seed))
               for side in (2, 3, 4) for seed in range(2)]
    edges = tuple(grid_edges(3, 3))
    cards = (2, 3, 2, 3, 2, 3, 2, 3, 2)
    models.append(PairwiseMrf(cards, edges, tuple(np.zeros(m) for m in cards),
                              {(s, t): np.zeros((cards[s], cards[t])) for s, t in edges}))
    models += [triangle_mrf(1.0), triangle_mrf(-1.0), cycle4_mrf(), diamond_mrf(),
               PairwiseMrf((3,), (), (np.array([0.3, 1.7, -0.2]),), {})]
    return models


CORPUS = corpus()
SMALL = [mrf for mrf in CORPUS if np.prod(mrf.cardinalities) <= 800]


def random_configuration(mrf, rng):
    return [int(rng.integers(m)) for m in mrf.cardinalities]


def test_corpus_has_small_models_for_membership():
    assert len(CORPUS) == 39 and len(SMALL) >= 15


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_local_lp_data_equal_reference(k):
    got, want = build_local_lp(CORPUS[k]), lp_reference.build_local_lp(CORPUS[k])
    assert np.array_equal(got.A, want.A)
    assert np.array_equal(got.b, want.b)
    assert np.array_equal(got.c, want.c)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_delta_tables_equal_reference(k):
    mrf, rng = CORPUS[k], np.random.default_rng(k)
    for _ in range(5):
        x = random_configuration(mrf, rng)
        got, want = delta_pseudomarginal(mrf, x), lp_reference.delta_pseudomarginal(mrf, x)
        assert got.cardinalities == want.cardinalities and got.edges == want.edges
        assert np.array_equal(got.node_vector, want.node_vector)
        assert np.array_equal(got.edge_vector, want.edge_vector)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_indicator_index_prices_a_configuration_at_its_score(k):
    mrf, rng = CORPUS[k], np.random.default_rng(100 + k)
    c = build_local_lp(mrf).c
    states = np.array([random_configuration(mrf, rng) for _ in range(8)])
    index = lp_module._indicator_index(mrf, states)
    assert index.shape == (8, mrf.node_count + len(mrf.edges))
    for x, positions in zip(states, index):
        assert len(set(positions.tolist())) == positions.size
        assert c[positions].sum() == pytest.approx(score(mrf, x), abs=1e-12)


@pytest.mark.parametrize("x", [[-1, 0, 0], [0, 2, 0], [0, 0], [0, 0, 0, 0], [0.5, 0, 0]])
def test_delta_rejects_invalid_assignments(x):
    with pytest.raises(ValueError, match="invalid assignment"):
        delta_pseudomarginal(triangle_mrf(1.0), x)


def lp_vector(tau):
    return np.concatenate((tau.node_vector, tau.edge_vector))


@functools.cache
def vertex(k):
    """The relaxed LP's optimal vertex of `CORPUS[k]`."""
    return simplex_solve(build_local_lp(CORPUS[k])).x


def membership_points(mrf, rng, x=None):
    """A relaxed-LP vertex (`x`, else solved), two indicator vectors, their
    midpoint and a perturbed point that leaves the local polytope."""
    if x is None:
        x = simplex_solve(build_local_lp(mrf)).x
    tau = vector_to_pseudomarginal(mrf, x)
    a = delta_pseudomarginal(mrf, random_configuration(mrf, rng))
    b = delta_pseudomarginal(mrf, random_configuration(mrf, rng))
    mid = vector_to_pseudomarginal(mrf, (lp_vector(a) + lp_vector(b)) / 2)
    n = mrf.offsets[1][0]
    off = vector_to_pseudomarginal(mrf, np.concatenate((mid.node_vector + 0.1,
                                                        lp_vector(mid)[n:])))
    return [tau, a, b, mid, off]


def perturbed(mrf, tau, rng):
    """tau with noise of scale 1e-10 to 1e-6 on every entry, on one random
    entry, and on one node's table (moved from one state to another)."""
    x = lp_vector(tau)
    points = []
    for scale in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        points.append(x + rng.normal(scale=scale, size=x.size))
        one = x.copy()
        one[rng.integers(x.size)] += rng.choice([-1.0, 1.0]) * scale * rng.uniform(0.5, 2.0)
        points.append(one)
        s = int(rng.integers(mrf.node_count))
        shift = x.copy()
        start = mrf.offsets[0][s]
        shift[start] += scale
        shift[start + mrf.cardinalities[s] - 1] -= scale
        points.append(shift)
    return [vector_to_pseudomarginal(mrf, p) for p in points]


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_in_local_equals_reference(k):
    mrf, rng = CORPUS[k], np.random.default_rng(400 + k)
    points = membership_points(mrf, rng, vertex(k))
    points += [q for p in points[:4] for q in perturbed(mrf, p, rng)]
    for tol in (1e-9, 1e-8, 1e-7):
        for tau in points:
            assert in_local(tau, tol) == lp_reference.in_local(tau, tol)


def test_in_local_answers_cover_both_outcomes():
    answers = {tol: set() for tol in (1e-9, 1e-8, 1e-7)}
    for k, mrf in enumerate(CORPUS):
        rng = np.random.default_rng(400 + k)
        points = membership_points(mrf, rng, vertex(k))
        points += [q for p in points[:4] for q in perturbed(mrf, p, rng)]
        for tol, seen in answers.items():
            seen.update(in_local(tau, tol) for tau in points)
    assert all(seen == {True, False} for seen in answers.values())


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_membership_lp_and_answer_equal_reference(k, monkeypatch):
    mrf, rng = SMALL[k], np.random.default_rng(200 + k)
    solved = []

    def recording(lp):
        solved.append(lp)
        return simplex_solve(lp)

    monkeypatch.setattr(lp_module, "simplex_solve", recording)
    for tau in membership_points(mrf, rng):
        answer = in_marginal_polytope(tau)
        want = lp_reference.marginal_polytope_lp(tau, lp_module.MEMBERSHIP_GUARD)
        got = solved[-1]
        assert np.array_equal(got.A, want.A)
        assert np.array_equal(got.b, want.b)
        assert np.array_equal(got.c, want.c)
        assert answer == (simplex_solve(want).status == "optimal")


def test_membership_answers_cover_both_outcomes():
    answers = set()
    for k, mrf in enumerate(SMALL):
        for tau in membership_points(mrf, np.random.default_rng(200 + k)):
            answers.add(in_marginal_polytope(tau))
    assert answers == {True, False}
    assert not in_marginal_polytope(
        vector_to_pseudomarginal(triangle_mrf(-1.0),
                                 simplex_solve(build_local_lp(triangle_mrf(-1.0))).x))


def assert_dual_close(lam, mrf, rho):
    got, want = lp_module.evaluate_dual(lam, mrf, rho), lp_reference.evaluate_dual(lam, mrf, rho)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_dual_random_multipliers_close_to_reference(k):
    mrf, rng = CORPUS[k], np.random.default_rng(300 + k)
    if not mrf.edges:
        lam = MessageSet({})
        assert lp_module.evaluate_dual(lam, mrf, {}) == lp_reference.evaluate_dual(lam, mrf, {})
        return
    shapes = {key: v.shape for key, v in unit_messages(mrf).log_m.items()}
    for _ in range(4):
        lam = MessageSet({key: rng.normal(scale=3.0, size=sh) for key, sh in shapes.items()})
        rho = {e: float(r) for e, r in zip(mrf.edges, rng.uniform(0.1, 1.0, len(mrf.edges)))}
        assert_dual_close(lam, mrf, rho)
        assert_dual_close(lam, mrf, uniform_rho(mrf))


@pytest.mark.parametrize("mrf", [triangle_mrf(1.0), triangle_mrf(-1.0), cycle4_mrf(),
                                 diamond_mrf()] + SMALL[:4], ids=lambda m: str(m.cardinalities))
def test_dual_at_message_multipliers_close_to_reference(mrf):
    dist = uniform_tree_distribution(mrf)
    rho = edge_appearance(dist, mrf)
    result = run_trw(mrf, dist, TrwConfig(max_iterations=200), variant="messages")
    for root in range(mrf.node_count):
        assert_dual_close(dual_from_messages(result.messages, result.nu, dist, root), mrf, rho)


def covering_trees(mrf, rng):
    """Random spanning trees with random weights: each tree is grown by
    Kruskal's rule, the edges no earlier tree has first, until every edge is
    in one."""
    trees, left = [], set(mrf.edges)
    while left:
        root = list(range(mrf.node_count))

        def find(u):
            while root[u] != u:
                u = root[u]
            return u
        chosen = []
        for s, t in sorted(mrf.edges, key=lambda e: (e not in left, rng.random())):
            if find(s) != find(t):
                root[find(s)] = find(t)
                chosen.append((s, t))
        trees.append(SpanningTree(tuple(chosen)))
        left -= set(chosen)
    w = rng.uniform(0.5, 1.5, len(trees))
    return TreeDistribution(mrf.node_count, tuple(trees), w / w.sum())


@pytest.mark.parametrize("k", [k for k, mrf in enumerate(CORPUS) if mrf.edges])
def test_dual_multipliers_equal_dict_walk(k):
    """The multipliers on nu's layout are `==` to the dict walk's for every
    root, on a layout in the model's edge order and in the reverse order,
    for a run-built and a dict-built message set: 0 on padded states, and
    the same dual value."""
    mrf, rng = CORPUS[k], np.random.default_rng(400 + k)
    dists = [covering_trees(mrf, rng)]
    if kirchhoff_count(mrf.node_count, mrf.edges) <= 200:
        dists.append(uniform_tree_distribution(mrf))
    result = run_trw(mrf, None, TrwConfig(max_iterations=30), variant="messages")
    turned = MaxMarginals(result.nu.log_node, dict(reversed(result.nu.log_edge.items())))
    for dist in dists:
        rho = edge_appearance(dist, mrf)
        for nu, msgs, root in itertools.product(
                (result.nu, turned), (result.messages, MessageSet(dict(result.messages.log_m))),
                range(mrf.node_count)):
            got = dual_from_messages(msgs, nu, dist, root)
            want = lp_reference.dual_from_messages(msgs, nu, dist, root)
            assert np.array_equal(got._msgs, nu.layout.directed(want.log_m))
            assert not got._msgs[nu.layout.pad].any()
            assert lp_module.evaluate_dual(got, mrf, rho) == lp_module.evaluate_dual(want, mrf, rho)
