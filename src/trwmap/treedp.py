"""Exact computations: brute-force MAP, tree max-marginals, consistency checks.

Max-marginals are kept in the log domain and max-normalized (largest entry of
every table is 1, i.e. 0 in logs); that pins down the free per-table constants
and keeps all arithmetic overflow-safe.

Tables compute on `_Layout`: node tables concatenated into one vector with
per-node offsets, edges bucketed by table shape (m_s, m_t) so mixed
cardinalities need no padding, each bucket's tables one stacked array.  The
tree-reweighted schedules in `trw` build on the same layout.  A
`MaxMarginals` keeps the layout it was computed on, with its node vector and
table stacks; its per-node and per-edge tables are views of them, and
`check_edge_consistency` tests every edge of a bucket at once on them.

Trees are solved by one max-product DP, `_TreeLayout`, which runs on every
tree of a collection at once, each rooted at node 0.  Its upward pass sends
one batch of messages per node height, its downward pass one per node depth,
and each batch covers all the trees.  The upward pass max-normalizes every
message and keeps the constants it removed, so a tree's optimal value is its
root belief's max plus their sum; `map_values` runs that pass alone and
`solve` both, which also gives the max-marginals.  `tree_max_marginals` and
`tree_map_value` run it on a single tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .model import (CapacityError, Edge, PairwiseMrf, Potentials, StructureError,
                    _all_finite)
from .trees import SpanningTree

BRUTE_FORCE_GUARD = 2 ** 24
OFF_TREE_TOL = 0.0


@dataclass(frozen=True, init=False, eq=False)
class MaxMarginals:
    """Per-node vectors and per-edge matrices, stored as logs, on the
    `_Layout` they were computed on: `node` is its node vector and `tables`
    holds one table stack per bucket.  `log_node` and `log_edge` are views
    of these arrays, with the edges in the layout's order."""

    layout: _Layout
    node: np.ndarray
    tables: tuple
    log_node: tuple
    log_edge: Mapping[Edge, np.ndarray]

    def __init__(self, log_node, log_edge):
        cards = [len(v) for v in log_node]
        for (s, t), m in log_edge.items():
            if not (0 <= s < len(cards) and 0 <= t < len(cards)):
                raise StructureError(f"edge {(s, t)} names a node outside 0..{len(cards) - 1}")
            if np.shape(m) != (cards[s], cards[t]):
                raise StructureError(f"edge {(s, t)} table has shape {np.shape(m)}, "
                                     f"expected {(cards[s], cards[t])}")
        layout = _Layout(cards, tuple(log_edge))
        self._place(layout, *layout.pack(log_node, log_edge))

    @classmethod
    def on_layout(cls, layout: _Layout, node: np.ndarray, tables) -> MaxMarginals:
        """From a node vector of `layout` and one table stack per bucket."""
        self = cls.__new__(cls)
        self._place(layout, node, tuple(tables))
        return self

    def _place(self, layout, node, tables):
        if not _all_finite((node, *tables)):
            raise ValueError("non-finite log max-marginal")
        for name, value in zip(("layout", "node", "tables", "log_node", "log_edge"),
                               (layout, node, tables, *layout.unpack(node, tables))):
            object.__setattr__(self, name, value)


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


def _normalized(a: np.ndarray) -> np.ndarray:
    """Shift every table of a stack (axis 0) so its largest entry is 0."""
    return a - a.max(axis=tuple(range(1, a.ndim)), keepdims=True)


class _Bucket(NamedTuple):
    """The edges of one table shape (m_s, m_t), in layout order."""

    edges: tuple
    pos: np.ndarray  # (E_b,): positions of the edges in the layout's `edges`
    idx_s: np.ndarray  # (E_b, m_s): positions of the s tables in the node vector
    idx_t: np.ndarray  # (E_b, m_t)


class _Layout:
    """Node and edge tables of a graph laid out as arrays.

    Node tables live in one vector; node s owns entries offsets[s] to
    offsets[s] + m_s.  Edges are grouped into buckets by table shape
    (m_s, m_t), so mixed cardinalities need no padding, and keep `edges`
    order within a bucket; slot[k] is the (bucket, row) of the k-th edge.
    A bucket's tables are one (E_b, m_s, m_t) stack.
    """

    def __init__(self, cardinalities, edges):
        cards = np.array(cardinalities, dtype=np.intp)
        ends = np.cumsum(cards)
        self.offsets = ends - cards
        self.node_of = np.repeat(np.arange(len(cards)), cards)
        self.size = int(ends[-1])
        self.edges = tuple(edges)
        groups = {}
        for k, (s, t) in enumerate(self.edges):
            groups.setdefault((int(cards[s]), int(cards[t])), []).append(k)
        self.buckets = []
        self.slot = [None] * len(self.edges)
        for bi, ((ms, mt), ks) in enumerate(groups.items()):
            es = tuple(self.edges[k] for k in ks)
            idx_s = self.offsets[[s for s, _ in es]][:, None] + np.arange(ms)
            idx_t = self.offsets[[t for _, t in es]][:, None] + np.arange(mt)
            self.buckets.append(_Bucket(es, np.array(ks), idx_s, idx_t))
            for i, k in enumerate(ks):
                self.slot[k] = (bi, i)

    def node_max(self, v: np.ndarray) -> np.ndarray:
        """Every entry's node-table max, for a node vector or a stack of them
        (last axis)."""
        return np.maximum.reduceat(v, self.offsets, axis=-1)[..., self.node_of]

    def pack(self, node, edge) -> tuple:
        """(node vector, one table stack per bucket) from per-node tables and
        a mapping of edge tables; an edge the mapping lacks counts as zero."""
        vec = np.concatenate([np.asarray(v, dtype=float) for v in node])
        tables = []
        for b in self.buckets:
            zero = np.zeros((b.idx_s.shape[1], b.idx_t.shape[1]))
            tables.append(np.array([edge[e] if e in edge else zero for e in b.edges],
                                   dtype=float))
        return vec, tables

    def unpack(self, node: np.ndarray, tables) -> tuple:
        """(per-node tables, {edge: table} in `edges` order): views of the arrays."""
        return (tuple(np.split(node, self.offsets[1:])),
                {e: tables[bi][i] for e, (bi, i) in zip(self.edges, self.slot)})


class _Slots(NamedTuple):
    """The tree edges of one bucket, ordered by tree, then by edge."""

    tree: np.ndarray  # (S_b,): the tree of each slot
    row: np.ndarray  # (S_b,): the bucket row of its edge
    side_s: slice  # its s-side vectors in the message/cavity vectors
    side_t: slice
    node_s: np.ndarray  # (S_b, m_s): its tree's s table in a raveled (T, N) stack
    node_t: np.ndarray  # (S_b, m_t)
    by_edge: np.ndarray  # the slots stably sorted by row
    starts: np.ndarray  # the first of each row's slots in that order


class _TreeLayout:
    """Spanning trees of one graph, laid out for one max-product DP that
    runs on all of them at once.

    `graph` lays out the node and edge tables, which the trees share: tree k
    uses every node table and its own edges' tables.  Each tree is rooted at
    node 0.  A slot is one edge of one tree.  Every slot has two sides, one
    per endpoint x: the message into x, and x's cavity vector (x's node
    table plus its other incoming messages), from which x's message to the
    other endpoint is computed.  Messages and cavities live in two flat
    vectors with the same layout: per bucket, the s sides of its slots, then
    the t sides.

    The upward pass sends the messages toward the root, one batch per node
    height; the downward pass the messages away from it, one batch per node
    depth.  Each batch covers every tree and one (receiver, sender)
    cardinality pair, whose edge tables, oriented receiver by sender, are
    one stack.  A node's incoming messages are added in its tree's adjacency
    order, one add per rank, so every entry sees the same floating-point
    operations in the same order as a per-edge recursion over each tree.
    """

    def __init__(self, graph: _Layout, trees):
        self.graph = graph
        self.count = len(trees)
        n, N = len(graph.offsets), graph.size
        self.cards = cards = np.diff(np.append(graph.offsets, N)).tolist()
        where = {e: k for k, e in enumerate(graph.edges)}
        slots = [[] for _ in graph.buckets]
        for k, tree in enumerate(trees):
            for e in tree.edges:
                bi, i = graph.slot[where[e]]
                slots[bi].append((k, i))
        # side[k][(x, y)]: first entry of the x side of tree k's slot of edge {x, y}
        self.side = [{} for _ in trees]
        self.slots = []
        end = 0
        for b, bslots in zip(graph.buckets, slots):
            ms, mt = b.idx_s.shape[1], b.idx_t.shape[1]
            s0, t0 = end, end + len(bslots) * ms
            end = t0 + len(bslots) * mt
            for j, (k, i) in enumerate(bslots):
                s, t = b.edges[i]
                self.side[k][(s, t)] = s0 + j * ms
                self.side[k][(t, s)] = t0 + j * mt
            tree = np.array([k for k, _ in bslots], dtype=np.intp)
            row = np.array([i for _, i in bslots], dtype=np.intp)
            by_edge = np.argsort(row, kind="stable")
            self.slots.append(_Slots(tree, row, slice(s0, t0), slice(t0, end),
                                     (tree * N)[:, None] + b.idx_s[row],
                                     (tree * N)[:, None] + b.idx_t[row], by_edge,
                                     np.searchsorted(row[by_edge], np.arange(len(b.edges)))))
        self.length = end
        # per (receiver, sender) shape: the (bucket, transposed) parts of its
        # stack of oriented tables, and each part's first row in it
        self.stacks, first = {}, {}
        for bi, b in enumerate(graph.buckets):
            ms, mt = b.idx_s.shape[1], b.idx_t.shape[1]
            for shape, flip in (((ms, mt), False), ((mt, ms), True)):
                parts = self.stacks.setdefault(shape, [])
                first[(bi, flip)] = sum(len(graph.buckets[p].edges) for p, _ in parts)
                parts.append((bi, flip))
        self.adj, up, down, rev = [], [], [], []
        for k, tree in enumerate(trees):
            adj = tree.neighbors(n)
            parent = tree.parent_map(n, 0)
            order = []
            stack = [0]
            while stack:
                u = stack.pop()
                order.append(u)
                stack.extend(v for v in adj[u] if v != parent[u])
            depth, height = [0] * n, [0] * n
            for u in order[1:]:
                depth[u] = depth[parent[u]] + 1
            for u in reversed(order[1:]):
                height[parent[u]] = max(height[parent[u]], height[u] + 1)
            self.adj.append(adj)
            up += [(height[u], k, u, parent[u]) for u in order[1:]]
            down += [(depth[u], k, u, v) for u in order for v in adj[u] if v != parent[u]]
            rev += [k * n + u for u in reversed(order[1:])]
        self.rev = np.array(rev, dtype=np.intp)

        def orient(k, u, v):
            # the stack and row of edge {u, v}'s table oriented v by u
            bi, i = graph.slot[where[(min(u, v), max(u, v))]]
            flip = u < v
            shape = (cards[v], cards[u])
            return shape, first[(bi, flip)] + i

        def batches(arcs):
            groups = {}
            for level, k, u, v in arcs:
                shape, row = orient(k, u, v)
                groups.setdefault((level, shape), []).append((k, u, v, row))
            out = []
            for (_, (mv, mu)), group in sorted(groups.items()):
                cav = [self.side[k][(u, v)] for k, u, v, _ in group]
                msg = [self.side[k][(v, u)] for k, u, v, _ in group]
                out.append(((mv, mu), np.array([g[3] for g in group]),
                            self._sum_plan([(k, u, v) for k, u, v, _ in group]),
                            (np.array(cav)[:, None] + np.arange(mu)).ravel(),
                            np.array(msg)[:, None] + np.arange(mv),
                            np.array([k * n + u for k, u, _, _ in group])))
            return out

        self.up, self.down = batches(up), batches(down)
        self.roots = self._sum_plan([(k, 0, None) for k in range(self.count)])
        # A node's belief adds its last incoming message to the cavity
        # vector that leaves that one out: both are on the node's side of
        # the edge to its last neighbor.
        last = []
        for k, adj in enumerate(self.adj):
            for u in range(n):
                if adj[u]:
                    first = self.side[k][(u, adj[u][-1])]
                    last.extend(range(first, first + cards[u]))
        self.last = np.array(last, dtype=np.intp)

    def _sum_plan(self, rows):
        """Index plan for the sums node[u] + the messages into u in tree k,
        in adjacency order, leaving out the one from `skip`, for rows
        (k, u, skip): the node entries of the sums, concatenated, and per
        rank the positions of the sums that add a message and its entries."""
        offsets = self.graph.offsets.tolist()
        node, ranks = [], []
        pos = 0
        for k, u, skip in rows:
            m = self.cards[u]
            node.extend(range(offsets[u], offsets[u] + m))
            side = self.side[k]
            r = 0
            for c in self.adj[k][u]:
                if c != skip:
                    if r == len(ranks):
                        ranks.append(([], []))
                    first = side[(u, c)]
                    ranks[r][0].extend(range(pos, pos + m))
                    ranks[r][1].extend(range(first, first + m))
                    r += 1
            pos += m
        return (np.array(node, dtype=np.intp),
                [(np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp))
                 for dst, src in ranks])

    @staticmethod
    def _sums(plan, node, msg) -> np.ndarray:
        sums = node[plan[0]]
        for dst, src in plan[1]:
            sums[dst] += msg[src]
        return sums

    def _pass(self, batches, node, stacks, msg, cav, tops=None):
        for shape, rows, plan, at_cav, at_msg, at_top in batches:
            c = self._sums(plan, node, msg)
            cav[at_cav] = c
            out = (stacks[shape][rows] + c.reshape(len(rows), 1, -1)).max(axis=2)
            top = out.max(axis=1)
            msg[at_msg] = out - top[:, None]
            if tops is not None:
                tops[at_top] = top

    def _upward(self, node, tables):
        stacks = {shape: np.concatenate([tables[bi].transpose(0, 2, 1) if flip else tables[bi]
                                         for bi, flip in parts])
                  for shape, parts in self.stacks.items()}
        msg, cav = np.zeros(self.length), np.zeros(self.length)
        tops = np.zeros(self.count * len(self.graph.offsets))
        self._pass(self.up, node, stacks, msg, cav, tops)
        return stacks, msg, cav, tops

    def _values(self, root_max, tops) -> list:
        """Each tree's optimal value: its root belief's max plus the constants
        the upward pass removed, summed in reverse visit order."""
        values = []
        rest = tops[self.rev].reshape(self.count, -1).tolist()
        for top, removed_tops in zip(root_max.tolist(), rest):
            removed = 0.0
            for r in removed_tops:
                removed += r
            values.append(top + removed)
        return values

    def map_values(self, node: np.ndarray, tables) -> list:
        """Each tree's optimal value (the upward pass only).  `node` is the
        node vector and `tables` holds one stack per bucket of the graph."""
        _, msg, _, tops = self._upward(node, tables)
        roots = self._sums(self.roots, node, msg).reshape(self.count, -1)
        return self._values(roots.max(axis=1), tops)

    def solve(self, node: np.ndarray, tables) -> tuple:
        """Both passes: (node max-marginals as a (T, N) stack, per bucket the
        edge max-marginals of its slots, each tree's optimal value)."""
        stacks, msg, cav, tops = self._upward(node, tables)
        self._pass(self.down, node, stacks, msg, cav)
        # a one-node tree has no edges: its belief is the root's node table
        beliefs = (cav[self.last] + msg[self.last] if self.length
                   else self._sums(self.roots, node, msg)).reshape(self.count, -1)
        top = self.graph.node_max(beliefs)
        edge = []
        for sl, table in zip(self.slots, tables):
            left = cav[sl.side_s].reshape(len(sl.row), -1)
            right = cav[sl.side_t].reshape(len(sl.row), -1)
            edge.append(_normalized(table[sl.row] + left[:, :, None] + right[:, None, :]))
        return beliefs - top, edge, self._values(top[:, 0], tops)


def _check_tree_potentials(mrf: PairwiseMrf, tree: SpanningTree, theta: Potentials):
    tree.validate(mrf.node_count)
    tree_edges = set(tree.edges)
    for e in theta.edge:
        if e not in tree_edges:
            m = np.asarray(theta.edge[e])
            if np.max(np.abs(m)) > OFF_TREE_TOL:
                raise StructureError(f"parameter on off-tree edge {e} must vanish")


def _one_tree(mrf: PairwiseMrf, tree: SpanningTree, theta: Potentials | None):
    theta = theta if theta is not None else mrf.potentials
    _check_tree_potentials(mrf, tree, theta)
    layout = _TreeLayout(_Layout(mrf.cardinalities, tree.edges), [tree])
    return layout, layout.graph.pack(theta.node, theta.edge)


def tree_max_marginals(mrf: PairwiseMrf, tree: SpanningTree,
                       theta: Potentials | None = None) -> MaxMarginals:
    """Exact max-marginals of the tree-structured distribution given by theta.

    theta must vanish off the tree; it defaults to the model's own tables
    (valid only when the model itself is tree-structured).
    """
    layout, (node, tables) = _one_tree(mrf, tree, theta)
    node_mm, edge_mm, _ = layout.solve(node, tables)
    return MaxMarginals.on_layout(layout.graph, node_mm[0], edge_mm)


def tree_map_value(mrf: PairwiseMrf, tree: SpanningTree,
                   theta: Potentials | None = None) -> float:
    """Exact optimal value of a tree-structured objective (single upward pass)."""
    layout, (node, tables) = _one_tree(mrf, tree, theta)
    return layout.map_values(node, tables)[0]


@dataclass(frozen=True)
class EdgeConsistencyReport:
    per_edge: Mapping[Edge, float]
    max_deviation: float


def check_edge_consistency(nu: MaxMarginals) -> EdgeConsistencyReport:
    """Deviation of each edge table from the max-consistency condition.

    An edge is consistent when row maxima of nu_st reproduce nu_s up to one
    multiplicative constant per direction; the reported deviation is the log
    spread of the implied constants over both directions (relative scale).
    Edges are reported in sorted order.
    """
    dev = np.empty(len(nu.layout.edges))
    for b, m in zip(nu.layout.buckets, nu.tables):
        d_s = m.max(axis=2) - nu.node[b.idx_s]
        d_t = m.max(axis=1) - nu.node[b.idx_t]
        dev[b.pos] = np.maximum(d_s.max(axis=1) - d_s.min(axis=1),
                                d_t.max(axis=1) - d_t.min(axis=1))
    per_edge = dict(sorted(zip(nu.layout.edges, dev.tolist())))
    return EdgeConsistencyReport(per_edge, max(per_edge.values(), default=0.0))


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
