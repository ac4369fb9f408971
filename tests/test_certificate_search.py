"""The certificate search prunes its candidates by arc consistency before it
searches: it must return what the search on the unpruned candidates returns
(`trw_reference.search_tie_masks`), the same assignment, since the search
order is part of the output, and it must never trip the guard where that
search does not."""

import itertools

import numpy as np
import pytest

from trwmap.treedp import _Layout
from trwmap.trw import CERT_SEARCH_GUARD, _arc_consistent, _search_tie_masks

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


def brute_force_first(layout, node_mask, edge_masks):
    """Every configuration of candidate states with allowed pairs on every
    edge, enumerated; the first in the search order: nodes by unpruned
    candidate count, then index, each compared by its state."""
    states = np.array(list(itertools.product(*map(range, layout.cards))))
    ok = node_mask[layout.offsets + states].all(axis=1)
    for k, (s, t) in enumerate(layout.edges):
        ok &= edge_masks[k, states[:, s], states[:, t]]
    if not ok.any():
        return None
    order = np.lexsort((np.arange(len(layout.cards)), np.add.reduceat(node_mask, layout.offsets)))
    # lexsort sorts by its last key first: the first node in `order` is the last key
    return states[ok][np.lexsort(states[ok][:, order[::-1]].T)[0]]


@pytest.mark.parametrize("seed", range(60))
def test_search_returns_the_first_configuration_of_a_brute_force_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(2, 9)), card_choices=(2, 3),
                           extra_edge_prob=float(rng.choice([0.2, 0.5])))
    layout = _Layout(mrf.cardinalities, mrf.edges)
    node, edge = random_masks(rng, layout, rng.choice([0.7, 1.0]), rng.choice([0.4, 0.6, 0.8]))
    want = brute_force_first(layout, node, edge)
    got, indeterminate = _search_tie_masks(layout, node, edge, BIG_GUARD)
    assert not indeterminate
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)


def test_brute_force_corpus_has_searches_and_failures():
    # the corpus above has cases without a solution and cases where several
    # nodes keep several candidates after pruning
    found = several = 0
    for seed in range(60):
        rng = np.random.default_rng(2000 + seed)
        mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(2, 9)), card_choices=(2, 3),
                               extra_edge_prob=float(rng.choice([0.2, 0.5])))
        layout = _Layout(mrf.cardinalities, mrf.edges)
        node, edge = random_masks(rng, layout, rng.choice([0.7, 1.0]), rng.choice([0.4, 0.6, 0.8]))
        found += brute_force_first(layout, node, edge) is not None
        domain = _arc_consistent(layout, node, edge)
        several += domain is not None and (np.add.reduceat(domain, layout.offsets) > 1).sum() > 1
    assert 10 <= found <= 50 and several >= 10


@pytest.mark.parametrize("seed", range(30))
def test_where_the_reference_trips_the_guard_the_answer_is_the_unguarded_one(seed):
    rng = np.random.default_rng(300 + seed)
    mrf = random_graph_mrf(rng, n_nodes=int(rng.integers(5, 10)), card_choices=(2, 3, 4),
                           extra_edge_prob=0.5)
    layout = _Layout(mrf.cardinalities, mrf.edges)
    node, edge = random_masks(rng, layout, 0.9, 0.6)
    unguarded = _search_tie_masks(layout, node, edge, BIG_GUARD)
    for guard in (1, 2, 3, 5, 8, 13):
        if ref.search_tie_masks(layout, node, edge, guard)[1]:
            got = _search_tie_masks(layout, node, edge, guard)
            assert got[1] or got[0] is None and unguarded[0] is None or (
                np.array_equal(got[0], unguarded[0]))


def grid_layout(side, states):
    at = np.arange(side * side).reshape(side, side)
    edges = sorted(zip(at[:, :-1].ravel().tolist(), at[:, 1:].ravel().tolist()))
    edges = sorted(edges + list(zip(at[:-1].ravel().tolist(), at[1:].ravel().tolist())))
    return _Layout((states,) * side * side, edges)


def test_all_ties_potts_grid_gives_all_zeros():
    # every state tied and only equal pairs allowed: fixing the first node
    # to state 0 forces every other node in turn, on an explicit stack
    layout = grid_layout(40, 3)
    node = np.ones(layout.size, dtype=bool)
    edge = np.broadcast_to(np.eye(3, dtype=bool), (len(layout.edges), 3, 3)).copy()
    x, indeterminate = _search_tie_masks(layout, node, edge, CERT_SEARCH_GUARD)
    assert not indeterminate
    assert np.array_equal(x, np.zeros(1600, dtype=int))


def test_guard_counts_each_state_tried_and_each_forced_node():
    # x_s != x_t on a 3-state triangle: node 0 tries state 0, node 1 state 1,
    # and node 2, left with state 2 alone, takes it: three units in all
    layout, node, edge = not_equal_cycle(3, 3)
    for guard, want in ((2, (None, True)), (3, (np.array([0, 1, 2]), False))):
        assert_same(ref.search_tie_masks(layout, node, edge, guard), want)
        assert_same(_search_tie_masks(layout, node, edge, guard), want)


def test_edges_that_allow_every_candidate_pair_are_not_searched():
    # K4 with 3 states and x_s != x_t has no configuration; a path of p
    # binary nodes hung on it allows every pair, so a search through the
    # path's 2^p states would only repeat the failure and trip the guard
    p = 14
    k4 = [(s, t) for s in range(4) for t in range(s + 1, 4)]
    layout = _Layout((3,) * 4 + (2,) * p, k4 + [(t - 1, t) for t in range(4, 4 + p)])
    node = np.ones(layout.size, dtype=bool)
    edge = np.zeros((len(layout.edges), 3, 3), dtype=bool)
    edge.reshape(-1)[layout.entries] = True
    edge[:len(k4)] &= ~np.eye(3, dtype=bool)
    assert_same(_search_tie_masks(layout, node, edge, 10 ** 5), (None, False))
