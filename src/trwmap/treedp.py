"""Exact computations: brute-force MAP, tree max-marginals, consistency checks.

Max-marginals are kept in the log domain and max-normalized (largest entry of
every table is 1, i.e. 0 in logs); that pins down the free per-table constants
and keeps all arithmetic overflow-safe.

Trees are solved by one max-product DP rooted at node 0, `_tree_dp`, which
returns the max-marginals and the optimal value together.  Its upward pass
max-normalizes every message and keeps the sum of the constants it removed,
so the optimal value is the root belief's max plus that sum; `tree_map_value`
runs that pass alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import CapacityError, Edge, PairwiseMrf, Potentials, StructureError
from .trees import SpanningTree

BRUTE_FORCE_GUARD = 2 ** 24
OFF_TREE_TOL = 0.0


@dataclass(frozen=True)
class MaxMarginals:
    """Per-node vectors and per-edge matrices, stored as logs."""

    log_node: tuple
    log_edge: Mapping[Edge, np.ndarray]

    def __post_init__(self):
        node = tuple(np.asarray(v, dtype=float) for v in self.log_node)
        edge = {e: np.asarray(m, dtype=float) for e, m in self.log_edge.items()}
        for v in node:
            if not np.all(np.isfinite(v)):
                raise ValueError("non-finite log max-marginal")
        for m in edge.values():
            if not np.all(np.isfinite(m)):
                raise ValueError("non-finite log max-marginal")
        object.__setattr__(self, "log_node", node)
        object.__setattr__(self, "log_edge", edge)

    def node(self, s: int) -> np.ndarray:
        return np.exp(self.log_node[s])

    def edge(self, s: int, t: int) -> np.ndarray:
        m = self.log_edge[(s, t) if s < t else (t, s)]
        return np.exp(m if s < t else m.T)

    def normalized(self) -> "MaxMarginals":
        return type(self)(
            tuple(v - v.max() for v in self.log_node),
            {e: m - m.max() for e, m in self.log_edge.items()},
        )

    def max_log_change(self, other: "MaxMarginals") -> float:
        d = 0.0
        for a, b in zip(self.log_node, other.log_node):
            d = max(d, float(np.max(np.abs(a - b))))
        for e, a in self.log_edge.items():
            d = max(d, float(np.max(np.abs(a - other.log_edge[e]))))
        return d


@dataclass(frozen=True)
class OptSet:
    """The complete set of maximizing assignments of some objective."""

    configurations: tuple

    def as_set(self) -> set:
        return set(self.configurations)

    def __contains__(self, x) -> bool:
        return tuple(int(v) for v in x) in self.as_set()

    def __len__(self) -> int:
        return len(self.configurations)


def assignment_scores(cardinalities: Sequence[int], pot: Potentials) -> np.ndarray:
    """Dense array of objective values over the whole joint state space."""
    cards = tuple(int(m) for m in cardinalities)
    n = len(cards)
    total = np.zeros(cards)
    for s in range(n):
        shape = [1] * n
        shape[s] = cards[s]
        total += np.asarray(pot.node[s]).reshape(shape)
    for (s, t), m in pot.edge.items():
        shape = [1] * n
        shape[s], shape[t] = cards[s], cards[t]
        total += np.asarray(m).reshape(shape)
    return total


def _guard_states(cardinalities, max_states):
    total = 1
    for m in cardinalities:
        total *= int(m)
        if total > max_states:
            raise CapacityError(f"joint state space exceeds guard of {max_states}")
    return total


def brute_force_over_potentials(cardinalities, pot: Potentials,
                                max_states: int = BRUTE_FORCE_GUARD,
                                atol: float = 0.0):
    _guard_states(cardinalities, max_states)
    scores = assignment_scores(cardinalities, pot)
    value = float(scores.max())
    where = np.argwhere(scores >= value - atol)
    return value, OptSet(tuple(tuple(int(v) for v in row) for row in where))


def brute_force_map(mrf: PairwiseMrf, max_states: int = BRUTE_FORCE_GUARD,
                    atol: float = 0.0):
    """Exact MAP value and the complete set of optimal assignments."""
    return brute_force_over_potentials(mrf.cardinalities, mrf.potentials,
                                       max_states=max_states, atol=atol)


def _check_tree_potentials(mrf: PairwiseMrf, tree: SpanningTree, theta: Potentials):
    tree.validate(mrf.node_count)
    tree_edges = set(tree.edges)
    for e in theta.edge:
        if e not in tree_edges:
            m = np.asarray(theta.edge[e])
            if np.max(np.abs(m)) > OFF_TREE_TOL:
                raise StructureError(f"parameter on off-tree edge {e} must vanish")


def _oriented(theta: Potentials, a: int, b: int, cards) -> np.ndarray:
    key = (a, b) if a < b else (b, a)
    m = theta.edge.get(key)
    if m is None:
        m = np.zeros((cards[key[0]], cards[key[1]]))
    m = np.asarray(m)
    return m if a < b else m.T


def _upward_pass(mrf: PairwiseMrf, tree: SpanningTree, theta: Potentials):
    """Leaves-to-root half of the DP rooted at node 0: the max-normalized
    messages toward the root (msg[(u, v)] from u to v, indexed by states of
    v), the adjacency, parent map and visit order, and the optimal value."""
    _check_tree_potentials(mrf, tree, theta)
    n = mrf.node_count
    cards = mrf.cardinalities
    adj = tree.neighbors(n)
    parent = tree.parent_map(n, 0)
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if v != parent[u]:
                stack.append(v)
    msg = {}
    removed = 0.0
    for u in reversed(order):
        p = parent[u]
        if p < 0:
            continue
        vec = np.asarray(theta.node[u], dtype=float).copy()
        for c in adj[u]:
            if c != p:
                vec = vec + msg[(c, u)]
        out = np.max(_oriented(theta, p, u, cards) + vec[None, :], axis=1)
        top = out.max()
        msg[(u, p)] = out - top
        removed += float(top)
    root = np.asarray(theta.node[0], dtype=float).copy()
    for v in adj[0]:
        root = root + msg[(v, 0)]
    return msg, adj, parent, order, float(root.max()) + removed


def _tree_dp(mrf: PairwiseMrf, tree: SpanningTree, theta: Potentials):
    """Exact two-pass max-product on the tree: (max-marginals, optimal value)."""
    msg, adj, parent, order, value = _upward_pass(mrf, tree, theta)
    cards = mrf.cardinalities
    for u in order:
        for v in adj[u]:
            if v == parent[u]:
                continue
            vec = np.asarray(theta.node[u], dtype=float).copy()
            for c in adj[u]:
                if c != v:
                    vec = vec + msg[(c, u)]
            out = np.max(_oriented(theta, v, u, cards) + vec[None, :], axis=1)
            msg[(u, v)] = out - out.max()
    log_node = []
    for s in range(mrf.node_count):
        vec = np.asarray(theta.node[s], dtype=float).copy()
        for v in adj[s]:
            vec = vec + msg[(v, s)]
        log_node.append(vec - vec.max())
    log_edge = {}
    for (s, t) in tree.edges:
        left = np.asarray(theta.node[s], dtype=float).copy()
        for v in adj[s]:
            if v != t:
                left = left + msg[(v, s)]
        right = np.asarray(theta.node[t], dtype=float).copy()
        for v in adj[t]:
            if v != s:
                right = right + msg[(v, t)]
        m = _oriented(theta, s, t, cards) + left[:, None] + right[None, :]
        log_edge[(s, t)] = m - m.max()
    return MaxMarginals(tuple(log_node), log_edge), value


def tree_max_marginals(mrf: PairwiseMrf, tree: SpanningTree,
                       theta: Potentials | None = None) -> MaxMarginals:
    """Exact max-marginals of the tree-structured distribution given by theta.

    theta must vanish off the tree; it defaults to the model's own tables
    (valid only when the model itself is tree-structured).
    """
    return _tree_dp(mrf, tree, theta if theta is not None else mrf.potentials)[0]


def tree_map_value(mrf: PairwiseMrf, tree: SpanningTree,
                   theta: Potentials | None = None) -> float:
    """Exact optimal value of a tree-structured objective (single upward pass)."""
    return _upward_pass(mrf, tree, theta if theta is not None else mrf.potentials)[-1]


@dataclass(frozen=True)
class EdgeConsistencyReport:
    per_edge: Mapping[Edge, float]
    max_deviation: float

    def flagged(self, tol: float = 1e-8):
        return sorted(e for e, d in self.per_edge.items() if d > tol)


def check_edge_consistency(nu: MaxMarginals, edges=None) -> EdgeConsistencyReport:
    """Deviation of each edge table from the max-consistency condition.

    An edge is consistent when row maxima of nu_st reproduce nu_s up to one
    multiplicative constant per direction; the reported deviation is the log
    spread of the implied constants over both directions (relative scale).
    """
    edges = list(edges) if edges is not None else sorted(nu.log_edge)
    per_edge = {}
    for (s, t) in edges:
        m = nu.log_edge[(s, t)]
        d_s = m.max(axis=1) - nu.log_node[s]
        d_t = m.max(axis=0) - nu.log_node[t]
        dev = max(float(d_s.max() - d_s.min()), float(d_t.max() - d_t.min()))
        per_edge[(s, t)] = dev
    worst = max(per_edge.values()) if per_edge else 0.0
    return EdgeConsistencyReport(per_edge, worst)


def backtrack_optimum(nu: MaxMarginals, tree: SpanningTree, root: int = 0) -> np.ndarray:
    """Decode one optimal assignment from edge-consistent tree max-marginals.

    Picks an optimal root state, then walks parent-to-child choosing a child
    state jointly optimal with the parent's.  Ties break to the lowest state.
    """
    n = len(nu.log_node)
    parent = tree.parent_map(n, root)
    adj = tree.neighbors(n)
    x = np.full(n, -1, dtype=int)
    x[root] = int(np.argmax(nu.log_node[root]))
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v == parent[u]:
                continue
            m = nu.log_edge[(u, v)] if u < v else nu.log_edge[(v, u)].T
            x[v] = int(np.argmax(m[x[u]]))
            stack.append(v)
    return x


def tree_opt_set(mrf: PairwiseMrf, tree: SpanningTree,
                 theta: Potentials | None = None,
                 max_states: int = BRUTE_FORCE_GUARD,
                 atol: float = 0.0) -> OptSet:
    """Complete optimal set of a tree-structured objective, by enumeration."""
    theta = theta if theta is not None else mrf.potentials
    _check_tree_potentials(mrf, tree, theta)
    _, opt = brute_force_over_potentials(mrf.cardinalities, theta,
                                         max_states=max_states, atol=atol)
    return opt
