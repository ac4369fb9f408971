"""The certificate search prunes its candidates by arc consistency before it
searches: it must return what the search on the unpruned candidates returns
(`trw_reference.search_tie_masks`), the same assignment, since the search
order is part of the output, and it must never trip the guard where that
search does not."""

import numpy as np
import pytest

from trwmap.treedp import _Layout
from trwmap.trw import _arc_consistent, _search_tie_masks

import trw_reference as ref
from conftest import random_graph_mrf

BIG_GUARD = 10 ** 9


def random_masks(rng, layout, node_p, edge_p):
    """Candidate states with probability node_p and allowed pairs with
    probability edge_p, on the valid entries only."""
    node = rng.random(layout.size) < node_p
    width = layout.pad.shape[2]
    edge = np.zeros((len(layout.edges), width, width), dtype=bool)
    edge.reshape(-1)[layout.entries] = rng.random(len(layout.entries)) < edge_p
    return node, edge


def assert_same(got, want):
    assert got[1] == want[1]
    if want[0] is None:
        assert got[0] is None
    else:
        assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("node_p, edge_p", [(0.6, 0.5), (0.8, 0.7), (1.0, 0.35)])
def test_pruned_search_matches_unpruned_on_random_masks(seed, node_p, edge_p):
    rng = np.random.default_rng(seed)
    mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(4, 10)), card_choices=(2, 3, 4))
    layout = _Layout(mrf.cardinalities, mrf.edges)
    node, edge = random_masks(rng, layout, node_p, edge_p)
    want = ref.search_tie_masks(layout, node, edge, BIG_GUARD)
    assert_same(_search_tie_masks(layout, node, edge, BIG_GUARD), want)


def test_random_masks_cover_every_outcome():
    # the corpus above holds solutions, cases that pruning empties and nodes
    # that keep several candidates after pruning (the frustrated cycles below
    # keep several and have no solution)
    outcomes = set()
    for seed in range(40):
        for node_p, edge_p in [(0.6, 0.5), (0.8, 0.7), (1.0, 0.35)]:
            rng = np.random.default_rng(seed)
            mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(4, 10)), card_choices=(2, 3, 4))
            layout = _Layout(mrf.cardinalities, mrf.edges)
            node, edge = random_masks(rng, layout, node_p, edge_p)
            domain = _arc_consistent(layout, node, edge)
            if domain is None:
                outcomes.add("emptied")
                continue
            left = np.add.reduceat(domain, layout.offsets)
            found = ref.search_tie_masks(layout, node, edge, BIG_GUARD)[0] is not None
            outcomes.add(("several" if (left > 1).any() else "single", found))
    assert {"emptied", ("single", True), ("several", True)} <= outcomes


def not_equal_cycle(n, states):
    """Allowed pairs x_s != x_t around an n-cycle: no solution for an odd
    cycle with 2 states, several with 3."""
    edges = tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))
    layout = _Layout((states,) * n, edges)
    edge = np.broadcast_to(~np.eye(states, dtype=bool), (len(edges), states, states)).copy()
    return layout, np.ones(layout.size, dtype=bool), edge


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9])
@pytest.mark.parametrize("states", [2, 3])
def test_frustrated_cycles(n, states):
    layout, node, edge = not_equal_cycle(n, states)
    want = ref.search_tie_masks(layout, node, edge, BIG_GUARD)
    assert (want[0] is None) == (states == 2 and n % 2 == 1)
    assert_same(_search_tie_masks(layout, node, edge, BIG_GUARD), want)
    # arc consistency alone prunes nothing here: every state has a partner
    assert np.array_equal(_arc_consistent(layout, node, edge), node)


@pytest.mark.parametrize("seed", range(12))
def test_guard_never_trips_where_the_unpruned_search_finishes(seed):
    rng = np.random.default_rng(100 + seed)
    mrf = random_graph_mrf(rng, n_nodes=8, card_choices=(2, 3, 4), extra_edge_prob=0.5)
    layout = _Layout(mrf.cardinalities, mrf.edges)
    node, edge = random_masks(rng, layout, 0.9, 0.6)
    for guard in (1, 2, 3, 5, 8, 13, 40, 200):
        want = ref.search_tie_masks(layout, node, edge, guard)
        got = _search_tie_masks(layout, node, edge, guard)
        if not want[1]:
            assert_same(got, want)


def test_mixed_cardinalities_with_one_candidate_per_node():
    # the common case: a single tie per node, so no node is left to search
    rng = np.random.default_rng(7)
    mrf = random_graph_mrf(rng, n_nodes=9, card_choices=(2, 3, 4))
    layout = _Layout(mrf.cardinalities, mrf.edges)
    x = np.array([rng.integers(m) for m in mrf.cardinalities])
    node = np.zeros(layout.size, dtype=bool)
    node[layout.offsets + x] = True
    _, edge = random_masks(rng, layout, 1.0, 0.5)
    edge[np.arange(len(layout.edges)), x[layout.ends[:, 0]], x[layout.ends[:, 1]]] = True
    got = _search_tie_masks(layout, node, edge, guard=0)  # no node is expanded
    assert_same(got, (x, False))
    assert_same(got, ref.search_tie_masks(layout, node, edge, BIG_GUARD))
