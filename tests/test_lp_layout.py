"""The LP layer on one index map, against the per-row forms in `lp_reference`.

`build_local_lp` must hand the simplex the same `A`, `b` and `c`
(`np.array_equal`), `delta_pseudomarginal` the same tables and
`in_marginal_polytope` the same feasibility LP and answer; `evaluate_dual`,
which sums in bucket order instead of node by node, agrees within 1e-12
relative.  The models are the corpus of `test_simplex_reference.py`.
"""

import numpy as np
import pytest

import lp_reference
from conftest import random_graph_mrf
from test_simplex_reference import MIXED_GRIDS, mixed_cardinality_grid, potts_grid
from trwmap import (DualVector, PairwiseMrf, TrwConfig, build_local_lp, delta_pseudomarginal,
                    dual_from_messages, edge_appearance, grid_edges, in_marginal_polytope,
                    run_trw, score, simplex_solve, uniform_rho, uniform_tree_distribution,
                    unit_messages, vector_to_pseudomarginal)
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
        assert len(got.tau_node) == len(want.tau_node)
        assert all(np.array_equal(a, b) for a, b in zip(got.tau_node, want.tau_node))
        assert list(got.tau_edge) == list(want.tau_edge)
        assert all(np.array_equal(got.tau_edge[e], want.tau_edge[e]) for e in mrf.edges)


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


def membership_points(mrf, rng):
    """A relaxed-LP vertex, two indicator vectors, their midpoint and a
    perturbed point that leaves the local polytope."""
    tau = vector_to_pseudomarginal(mrf, simplex_solve(build_local_lp(mrf)).x)
    a = delta_pseudomarginal(mrf, random_configuration(mrf, rng))
    b = delta_pseudomarginal(mrf, random_configuration(mrf, rng))
    mid = type(a)(tuple((u + v) / 2 for u, v in zip(a.tau_node, b.tau_node)),
                  {e: (a.tau_edge[e] + b.tau_edge[e]) / 2 for e in mrf.edges})
    off = type(a)(tuple(v + 0.1 for v in mid.tau_node), mid.tau_edge)
    return [tau, a, b, mid, off]


@pytest.mark.parametrize("k", range(len(SMALL)))
def test_membership_lp_and_answer_equal_reference(k, monkeypatch):
    mrf, rng = SMALL[k], np.random.default_rng(200 + k)
    solved = []

    def recording(lp):
        solved.append(lp)
        return simplex_solve(lp)

    monkeypatch.setattr(lp_module, "simplex_solve", recording)
    for tau in membership_points(mrf, rng):
        answer = in_marginal_polytope(tau, mrf)
        want = lp_reference.marginal_polytope_lp(tau, mrf, lp_module.MEMBERSHIP_GUARD)
        got = solved[-1]
        assert np.array_equal(got.A, want.A)
        assert np.array_equal(got.b, want.b)
        assert np.array_equal(got.c, want.c)
        assert answer == (simplex_solve(want).status == "optimal")


def test_membership_answers_cover_both_outcomes():
    answers = set()
    for k, mrf in enumerate(SMALL):
        for tau in membership_points(mrf, np.random.default_rng(200 + k)):
            answers.add(in_marginal_polytope(tau, mrf))
    assert answers == {True, False}
    assert not in_marginal_polytope(
        vector_to_pseudomarginal(triangle_mrf(-1.0),
                                 simplex_solve(build_local_lp(triangle_mrf(-1.0))).x),
        triangle_mrf(-1.0))


def assert_dual_close(lam, mrf, rho):
    got, want = lp_module.evaluate_dual(lam, mrf, rho), lp_reference.evaluate_dual(lam, mrf, rho)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_dual_random_multipliers_close_to_reference(k):
    mrf, rng = CORPUS[k], np.random.default_rng(300 + k)
    if not mrf.edges:
        lam = DualVector({})
        assert lp_module.evaluate_dual(lam, mrf, {}) == lp_reference.evaluate_dual(lam, mrf, {})
        return
    shapes = {key: v.shape for key, v in unit_messages(mrf).log_m.items()}
    for _ in range(4):
        lam = DualVector({key: rng.normal(scale=3.0, size=sh) for key, sh in shapes.items()})
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
