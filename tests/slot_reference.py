"""The slot-ordered forms of the two schedules' hot layers, kept as oracles
of the batch-ordered layouts that replaced them.

- `SlotFlatMrf` keeps the message kernel that computed the two directions
  of an edge from the table stack and stacked them, and summed the
  rho-weighted messages onto the nodes with `np.add.at`.
- `SlotTreeLayout` keeps the tree DP whose messages and cavities live in
  slot order (row 2j the s side of slot j, row 2j + 1 its t side): every
  batch gathers its oriented tables, sums its cavities by a gather, an add
  and a scatter per rank, and scatters its messages back.
- `run_tree_updates` keeps the tree schedule's loop on that layout, with
  the sums over trees by `np.add.at` and the bound's constant offset built
  by `np.stack` and `np.concatenate` (`ZeroOffset`).

The library must reproduce them bit for bit, zero signs included: both
perform the same floating-point operations on every entry in the same
order.
"""

import functools

import numpy as np

from trwmap import PseudoMaxMarginals, StructureError, TrwConfig, TreeDistribution
from trwmap.model import _sum_in_order
from trwmap.treedp import _Layout, _top
from trwmap.trees import edge_appearance
from trwmap.trw import (CERT_TIE_TOL, TrwResult, _damp, _shared_tree_optimum, _tie_masks,
                        _tree_tables_agree)
from edge_major_reference import EdgeMajorFlatMrf


class SlotFlatMrf(EdgeMajorFlatMrf):
    """`EdgeMajorFlatMrf` with the slot-ordered message kernel."""

    def _cavities(self, msgs: np.ndarray) -> tuple:
        weighted = self.rho[:, None, None] * msgs
        h = np.zeros(self.layout.size)
        np.add.at(h, self.layout._target, weighted.take(self.layout.sides))
        h = self.theta_node + h
        return h, h[self.layout.idx] - msgs

    def message_step(self, msgs: tuple, damping: float) -> tuple:
        _, cav = self._cavities(msgs[0])
        new = np.stack((_top(self.table + cav[:, 1, None, :], 2),
                        _top(self.table + cav[:, 0, :, None], 1)), axis=1)
        new -= _top(new, 2)[..., None]
        if damping < 1.0:
            new = _damp(new, msgs[0], damping)
            new -= _top(new, 2)[..., None]
        new[self.layout.pad] = 0.0
        return (new,)


class ZeroOffset:
    """<combined - theta, phi(x)> at the all-zeros configuration x, its
    terms stacked and concatenated on every call."""

    def __init__(self, mrf, layout: _Layout):
        where = {e: k for k, e in enumerate(layout.edges)}
        self.order = np.array([where[e] for e in mrf.edges], dtype=np.intp)
        node_off, edge_off = mrf.offsets
        self.theta_node = mrf.node_vector[node_off]
        self.minus_theta_edge = -mrf.edge_vector[edge_off[:-1] - edge_off[0]]

    def __call__(self, node: np.ndarray, edge: np.ndarray) -> float:
        edge_terms = np.stack((edge[self.order], self.minus_theta_edge), axis=1)
        return float(_sum_in_order(np.concatenate((node - self.theta_node, edge_terms.ravel()))))


def normalized(tables: np.ndarray) -> np.ndarray:
    """Shift every table of an (E, M, M) stack so its largest entry is 0:
    the max over the rows of the row maxima, each taken by `np.maximum` of
    the slices in order, so a tie of 0.0 and -0.0 has one answer."""
    top = _top(_top(tables, 2), 1)
    return tables - top[:, None, None]


def tree_sum(trees, w, node, slot_tables) -> tuple:
    """Sum over the trees of w_k times tree k's tables, by `np.add.at`."""
    edge = np.zeros((len(trees.graph.edges),) + slot_tables.shape[1:])
    np.add.at(edge, trees.edge,
              w[trees.tree].reshape((-1,) + (1,) * (slot_tables.ndim - 1)) * slot_tables)
    return _sum_in_order(w[:, None] * node), edge


def tree_max_marginals(mrf, tree, theta=None):
    """(node max-marginals, edge stack, value) of one tree by the slot DP."""
    theta = mrf if theta is None else theta
    layout = SlotTreeLayout(_Layout(mrf.cardinalities, tree.edges), [tree])
    return layout.solve(theta.node_vector, layout.graph.stack(theta.theta_edge))


def tree_map_value(mrf, tree, theta=None):
    theta = mrf if theta is None else theta
    layout = SlotTreeLayout(_Layout(mrf.cardinalities, tree.edges), [tree])
    return layout.map_values(theta.node_vector, layout.graph.stack(theta.theta_edge))[0]


def run_tree_updates(mrf, dist: TreeDistribution, config: TrwConfig | None = None) -> TrwResult:
    """The tree schedule's loop on `SlotTreeLayout`."""
    if not mrf.edges:
        raise StructureError("model has no edges")
    config = config or TrwConfig()
    rho_e = edge_appearance(dist, mrf)
    support = dist.support_items()
    trees = SlotTreeLayout(_Layout(mrf.cardinalities, mrf.edges),
                           tuple(tree for tree, _ in support))
    graph = trees.graph
    w = np.array([wk for _, wk in support])
    rho = np.array([rho_e[e] for e in graph.edges])[:, None, None]
    offset = ZeroOffset(mrf, graph)
    node, edge = mrf.node_vector, graph.model_tables(mrf)
    bound_trace = []
    converged = False
    terminated_by = "max_iterations"
    certificate = None
    indeterminate = False
    units_per_iter = sum(len(t.edges) for t, _ in support) / len(mrf.edges)
    for iterations in range(1, config.max_iterations + 1):
        split = edge / rho
        node_mm, edge_mm, values = trees.solve(node, split)
        firsts = node[graph.offsets]
        combined = tree_sum(trees, w, np.broadcast_to(firsts, (len(w), len(firsts))),
                            split[trees.edge, 0, 0])
        bound_trace.append(float(_sum_in_order(w * values)) - offset(*combined))
        certificate, indeterminate = _shared_tree_optimum(
            trees, *_tie_masks(graph, node_mm, edge_mm, CERT_TIE_TOL))
        if certificate is not None:
            converged = True
            terminated_by = "tree_agreement"
            break
        if _tree_tables_agree(trees, node_mm, edge_mm, config.tol):
            converged = True
            terminated_by = "max_marginal_agreement"
            break
        near = node_mm.ravel()[trees.tree[:, None, None] * graph.size + graph.idx[trees.edge]]
        theta = (edge_mm - near[:, 0, :, None]) - near[:, 1, None, :]
        merged_node, merged_edge = tree_sum(trees, w, node_mm, theta)
        node = _damp(merged_node, node, config.damping)
        edge = _damp(merged_edge, edge, config.damping)
    total_node, total_edge = tree_sum(trees, w, node_mm, edge_mm)
    nu = PseudoMaxMarginals.on_layout(graph, total_node - graph.node_max(total_node),
                                      normalized(total_edge / rho))
    return TrwResult(nu=nu, iterations=iterations, converged=converged, certificate=certificate,
                     certificate_indeterminate=indeterminate, bound_trace=tuple(bound_trace),
                     messages=None, variant="tree", terminated_by=terminated_by,
                     messages_per_edge=units_per_iter * iterations)


class SlotTreeLayout:
    """Spanning trees of one graph, laid out for one max-product DP that
    runs on all of them at once.

    `graph` lays out the node and edge tables, which the trees share: tree k
    uses every node table and its own edges' tables.  Each tree is rooted at
    node 0.  A slot is one edge of one tree; the slots are ordered by tree,
    then by the tree's edge order, and `tree` and `edge` hold each slot's
    tree and its edge's position in `graph.edges`.  Every slot has two
    sides, one per endpoint x: the message into x, and x's cavity vector
    (x's node table plus its other incoming messages), from which x's
    message to the other endpoint is computed.  Messages and cavities are
    flat vectors of 2S rows of M entries: row 2j is the s side of slot j,
    row 2j + 1 its t side.

    The upward pass sends the messages toward the root, one batch per
    sender height, lowest first; the downward pass reverses the upward arcs
    and sends them highest sender first.  Each batch covers every tree and
    edge; its edge tables, oriented receiver by sender, are rows of the
    table stack followed by its transpose.  Padded message and cavity
    entries are -inf like the padded table entries, and every
    max-normalization is a max over the valid entries, so no batch needs a
    mask.  A node's incoming messages are added
    in its tree's adjacency order, one add per rank, so every valid entry
    sees the same floating-point operations in the same order as a per-edge
    recursion over each tree.  The downward plan is built on the first
    `solve`: `map_values` needs the upward pass only.
    """

    def __init__(self, graph: _Layout, trees):
        self.graph = graph
        self.count = len(trees)
        n, N = len(graph.offsets), graph.size
        self._where = {e: k for k, e in enumerate(graph.edges)}
        slots = [(k, self._where[e]) for k, tree in enumerate(trees) for e in tree.edges]
        self.tree = np.array([k for k, _ in slots], dtype=np.intp)
        self.edge = np.array([i for _, i in slots], dtype=np.intp)
        # side[k][(x, y)]: the row of the x side of tree k's slot of edge {x, y}
        self.side = [{} for _ in trees]
        for j, (k, i) in enumerate(slots):
            s, t = graph.edges[i]
            self.side[k][(s, t)] = 2 * j
            self.side[k][(t, s)] = 2 * j + 1
        # per node, its M states' entries in the node vector extended by one
        # -inf entry, N, which the padded states read
        cards = np.diff(np.append(graph.offsets, N))
        self._span = np.arange(graph.pad.shape[2])
        self._node_rows = np.where(self._span < cards[:, None],
                                   graph.offsets[:, None] + self._span, N)
        self.adj, up, self._down_arcs, rev = [], [], [], []
        for k, tree in enumerate(trees):
            adj = tree.neighbors(n)
            parent = tree.parent_map(n, 0)
            order = []
            stack = [0]
            while stack:
                u = stack.pop()
                order.append(u)
                stack.extend(v for v in adj[u] if v != parent[u])
            height = [0] * n
            for u in reversed(order[1:]):
                height[parent[u]] = max(height[parent[u]], height[u] + 1)
            self.adj.append(adj)
            up += [(height[u], k, u, parent[u]) for u in order[1:]]
            # parent to child needs the message into the parent, sent from higher up
            self._down_arcs += [(-height[parent[u]], k, parent[u], u) for u in order[1:]]
            rev += [k * n + u for u in reversed(order[1:])]
        self.rev = np.array(rev, dtype=np.intp)
        self.up = self._batches(up)
        self.roots = self._sum_plan([(k, 0, None) for k in range(self.count)])

    @functools.cached_property
    def down(self) -> list:
        return self._batches(self._down_arcs)

    @functools.cached_property
    def last(self) -> np.ndarray:
        """A node's belief adds its last incoming message to the cavity
        vector that leaves that one out: both are on the node's side of the
        edge to its last neighbor.  These are the flat positions of those
        sides' valid entries, tree by tree and node by node."""
        cards = np.diff(np.append(self.graph.offsets, self.graph.size))
        last = []
        for k, adj in enumerate(self.adj):
            for u, nbrs in enumerate(adj):
                if nbrs:
                    first = self.side[k][(u, nbrs[-1])] * len(self._span)
                    last.extend(range(first, first + cards[u]))
        return np.array(last, dtype=np.intp)

    @functools.cached_property
    def by_edge(self) -> tuple:
        """(the slots stably sorted by edge, the first of each edge's slots
        in that order)."""
        order = np.argsort(self.edge, kind="stable")
        return order, np.searchsorted(self.edge[order], np.arange(len(self.graph.edges)))

    def _entries(self, rows) -> np.ndarray:
        """The flat positions of the entries of M-wide rows, row by row."""
        width = len(self._span)
        return np.array([r * width + j for r in rows for j in range(width)], dtype=np.intp)

    def _batches(self, arcs) -> list:
        """One batch per level for arcs (level, tree, sender, receiver): the
        rows of the oriented tables, the plan of the senders' cavity sums,
        the cavity and message entries it writes and the senders' entries
        in a (T, n) stack."""
        n, E = len(self.graph.offsets), len(self.graph.edges)
        levels = {}
        for level, k, u, v in arcs:
            levels.setdefault(level, []).append((k, u, v))
        out = []
        for _, group in sorted(levels.items()):
            out.append((np.array([self._where[(min(u, v), max(u, v))] + (E if u < v else 0)
                                  for _, u, v in group], dtype=np.intp),
                        self._sum_plan(group),
                        self._entries([self.side[k][(u, v)] for k, u, v in group]),
                        self._entries([self.side[k][(v, u)] for k, u, v in group]).reshape(
                            len(group), -1),
                        np.array([k * n + u for k, u, _ in group], dtype=np.intp)))
        return out

    def _sum_plan(self, rows):
        """Index plan for the sums node[u] + the messages into u in tree k,
        in adjacency order, leaving out the one from `skip`, for rows
        (k, u, skip): u's entries of the padded node vector, concatenated,
        and per rank the entries of the sums that add a message and of the
        messages they add."""
        ranks = []
        for b, (k, u, skip) in enumerate(rows):
            r = 0
            for c in self.adj[k][u]:
                if c != skip:
                    if r == len(ranks):
                        ranks.append(([], []))
                    ranks[r][0].append(b)
                    ranks[r][1].append(self.side[k][(u, c)])
                    r += 1
        return (self._node_rows[[u for _, u, _ in rows]].ravel(),
                [(self._entries(dst), self._entries(src)) for dst, src in ranks])

    @staticmethod
    def _sums(plan, node, msg) -> np.ndarray:
        sums = node[plan[0]]
        for dst, src in plan[1]:
            sums[dst] += msg[src]
        return sums

    def _pass(self, batches, node, oriented, msg, cav, tops=None):
        for rows, plan, at_cav, at_msg, at_top in batches:
            c = self._sums(plan, node, msg)
            cav[at_cav] = c
            out = _top(oriented[rows] + c.reshape(len(rows), 1, -1), 2)
            top = _top(out, 1)
            msg[at_msg] = out - top[:, None]
            if tops is not None:
                tops[at_top] = top

    def _upward(self, node, tables):
        node = np.append(node, -np.inf)
        oriented = np.concatenate((tables, tables.transpose(0, 2, 1)))
        msg = np.zeros(2 * len(self.edge) * len(self._span))
        cav = np.zeros_like(msg)
        tops = np.zeros(self.count * len(self.graph.offsets))
        self._pass(self.up, node, oriented, msg, cav, tops)
        return node, oriented, msg, cav, tops

    def _values(self, root_max, tops) -> list:
        """Each tree's optimal value: its root belief's max plus the constants
        the upward pass removed, summed in reverse visit order."""
        return (root_max + _sum_in_order(tops[self.rev].reshape(self.count, -1).T)).tolist()

    def map_values(self, node: np.ndarray, tables: np.ndarray) -> list:
        """Each tree's optimal value (the upward pass only), from a node
        vector and a table stack of the graph."""
        node, _, msg, _, tops = self._upward(node, tables)
        roots = self._sums(self.roots, node, msg).reshape(self.count, -1)
        return self._values(roots.max(axis=1), tops)

    def solve(self, node: np.ndarray, tables: np.ndarray) -> tuple:
        """Both passes: (node max-marginals as a (T, N) stack, the edge
        max-marginals of the slots as an (S, M, M) stack, each tree's
        optimal value)."""
        node, oriented, msg, cav, tops = self._upward(node, tables)
        self._pass(self.down, node, oriented, msg, cav)
        # a one-node tree has no edges: its belief is the root's node table
        beliefs = (cav[self.last] + msg[self.last] if len(self.edge)
                   else self._sums(self.roots, node, msg)).reshape(self.count, -1)
        top = self.graph.node_max(beliefs)
        sides = cav.reshape(len(self.edge), 2, len(self._span))
        edge = normalized(tables[self.edge] + sides[:, 0, :, None] + sides[:, 1, None, :])
        return beliefs - top, edge, self._values(top[:, 0], tops)
