import numpy as np
import pytest

from trwmap import PairwiseMrf, grid_edges


def random_graph_mrf(rng, n_nodes=None, card_choices=(2, 3), extra_edge_prob=0.4,
                     scale=1.0):
    """Connected random model: a random spanning tree plus random extra edges."""
    n = n_nodes if n_nodes is not None else int(rng.integers(3, 7))
    cards = tuple(int(rng.choice(card_choices)) for _ in range(n))
    edges = set()
    order = list(rng.permutation(n))
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        edges.add((min(a, b), max(a, b)))
    for s in range(n):
        for t in range(s + 1, n):
            if (s, t) not in edges and rng.random() < extra_edge_prob:
                edges.add((s, t))
    edges = tuple(sorted(edges))
    theta_node = tuple(scale * rng.normal(size=cards[s]) for s in range(n))
    theta_edge = {(s, t): scale * rng.normal(size=(cards[s], cards[t])) for (s, t) in edges}
    return PairwiseMrf(cards, edges, theta_node, theta_edge)


def potts_grid_mrf(side, states, gamma, rng):
    """Square grid: node fields uniform in [-1, 1] per state, then Potts
    couplings w * [x_s == x_t] with w uniform in [-gamma/2, gamma/2], drawn
    in grid-edge order."""
    n = side * side
    node = tuple(2.0 * rng.random(states) - 1.0 for _ in range(n))
    edges = grid_edges(side, side)
    weights = gamma * rng.random(len(edges)) - gamma / 2.0
    edge = {e: w * np.eye(states) for e, w in zip(edges, weights)}
    return PairwiseMrf((states,) * n, tuple(edges), node, edge)


def random_tree_mrf(rng, n_nodes=None, card_choices=(2, 3), scale=1.0):
    mrf = random_graph_mrf(rng, n_nodes=n_nodes, card_choices=card_choices,
                           extra_edge_prob=0.0, scale=scale)
    return mrf


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
