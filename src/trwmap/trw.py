"""Tree-reweighted max-product: reparameterization, message passing and
tree-based updates, plus the certificate search that turns a fixed point into
a provably optimal assignment.

All state lives in the log domain.  Updates are fully synchronous (every node
and edge is updated from the previous iterate), optionally damped by linear
combination of old and new logs, and re-normalized so the largest entry of
every table is 0.

The message and reparameterization schedules compute on `_FlatMrf`, the
array layout of `treedp._Layout` built once per run from the model and rho.
Node tables are concatenated into one vector with per-node offsets.  Edges
are grouped into buckets by table shape (m_s, m_t), so mixed cardinalities
need no padding.  Each bucket holds its endpoint index arrays, its tables
theta_st / rho_st stacked into one (E_b, m_s, m_t) array, and, in a message
state, one (E_b, m) array per direction.  A step maps one state (a tuple of
such arrays) to the next, and `_iterate` is the one driver for both
schedules: it applies a step, measures the max log change and decides when
to stop.  The per-node sums over incident edges are accumulated with
`np.add.at` in the schedule's edge order (`mrf.edges` for messages, sorted
for reparameterization), so each entry sees the same floating-point
operations in the same order as a per-edge loop.  `PseudoMaxMarginals` and
`MessageSet` are the boundary types, built once at the end of a run; the
former keeps the run's layout and arrays, which the certificate search and
the checks read, so a run builds one layout.  With
an explicit tree distribution, the per-iteration bound runs the tree DP of
`treedp._TreeLayout`, built once per run, on the arrays.  The public
`message_step`, `reparameterization_step`, `messages_to_pseudo`,
`init_pseudo` and `unit_messages` convert to the layout, run one kernel and
convert back.

The tree-based schedule keeps its own loop, because its stopping rules (a
configuration optimal in every tree, or agreement of the per-tree tables) are
checked between the tree DP and the merge.  It runs on the same layout: the
shared parameter is a node vector and one table stack per bucket, each
iteration runs one `_TreeLayout.solve` for all trees, which gives both the
max-marginals and the tree values of the bound, and the split, the merge,
the damping, the tie masks and the agreement test are array operations.
Sums over trees run in support order (`_tree_sum`).  The certificate's tie
rule, the entries within `CERT_TIE_TOL` of their table's max, is
`_tie_masks`, shared by `find_certificate`, the tree schedule and the
experiment's unique-maximizer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .model import Edge, PairwiseMrf, Potentials, StructureError
from .trees import TreeDistribution, edge_appearance
from .treedp import (MaxMarginals, _guard_states, _Layout, _normalized, _TreeLayout,
                     assignment_scores)

CERT_TIE_TOL = 1e-9
CERT_SEARCH_GUARD = 1_000_000


class PseudoMaxMarginals(MaxMarginals):
    """Max-marginal-shaped tables on every edge of a graph with cycles."""


@dataclass(frozen=True)
class MessageSet:
    """Directed positive messages, one vector per edge direction, as logs.

    log_m[(t, s)] is the log message sent from t to s, indexed by states of s.
    """

    log_m: Mapping[tuple, np.ndarray]


@dataclass(frozen=True)
class TrwConfig:
    damping: float = 0.5
    tol: float = 1e-8
    max_iterations: int = 2000

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class TrwResult:
    """Outcome of an iterative run.

    messages_per_edge counts one unit per directed message computed for the
    synchronous variants (two per edge per iteration), and one unit per edge
    touched per tree max-marginal pass for the tree-update variant, divided
    by the number of graph edges.
    """

    nu: PseudoMaxMarginals
    iterations: int
    converged: bool
    certificate: np.ndarray | None
    certificate_indeterminate: bool
    bound_trace: tuple
    messages: MessageSet | None
    variant: str
    terminated_by: str
    messages_per_edge: float


def uniform_rho(mrf: PairwiseMrf) -> dict:
    """Uniform edge appearance weights (n-1)/|E| on every edge."""
    if not mrf.edges:
        raise StructureError("model has no edges")
    r = (mrf.node_count - 1) / len(mrf.edges)
    return {e: r for e in mrf.edges}


def resolve_rho(mrf: PairwiseMrf, dist_or_rho=None):
    """Return (explicit distribution or None, per-edge rho dict)."""
    if dist_or_rho is None:
        return None, uniform_rho(mrf)
    if isinstance(dist_or_rho, TreeDistribution):
        return dist_or_rho, edge_appearance(dist_or_rho, mrf)
    rho = {mrf.edge_key(*e): float(r) for e, r in dict(dist_or_rho).items()}
    edges = set(mrf.edges)
    for e, r in rho.items():
        if e not in edges:
            raise StructureError(f"rho_e given on {e}, which is not a graph edge")
        if not math.isfinite(r):
            raise StructureError(f"rho_e on edge {e} is not finite: {r!r}")
    missing = [e for e in mrf.edges if e not in rho or rho[e] <= 0]
    if missing:
        raise StructureError(f"rho_e missing or non-positive on edges {missing}")
    return None, rho


def _damp(new: np.ndarray, old: np.ndarray, lam: float) -> np.ndarray:
    return new if lam >= 1.0 else lam * new + (1.0 - lam) * old


class _RhoBucket(NamedTuple):
    """A `_Bucket` with its edges' rho and, given the model, their tables."""

    edges: tuple
    pos: np.ndarray
    idx_s: np.ndarray
    idx_t: np.ndarray
    rho: np.ndarray | None  # (E_b, 1)
    table: np.ndarray | None  # (E_b, m_s, m_t): theta_st / rho_st


class _FlatMrf(_Layout):
    """A graph, its rho and optionally its model, laid out for array updates.

    The node vector and the edge buckets are those of `_Layout`; each bucket
    also holds rho (E_b, 1) and, given the model, theta_st / rho_st.  Two
    state kinds are tuples of per-bucket arrays: messages are (to_s, to_t)
    per bucket, to_s[i] being the log message t->s of the bucket's i-th
    edge; pseudo-max-marginals are the node vector followed by one
    (E_b, m_s, m_t) table stack per bucket.  Sums over the edges at a node
    are taken in `edges` order, the order of the schedule.
    """

    def __init__(self, cardinalities, edges, rho_e=None, mrf: PairwiseMrf | None = None):
        super().__init__(cardinalities, edges)
        self.theta_node = None if mrf is None else np.concatenate(mrf.theta_node)
        if mrf is not None:
            for e in self.edges:
                if rho_e[e] <= 0:
                    raise StructureError(f"rho_e on edge {e} must be positive")
        position, target = [], []
        for bi, b in enumerate(self.buckets):
            rho = None if rho_e is None else np.array([float(rho_e[e]) for e in b.edges])[:, None]
            table = None
            if mrf is not None:
                table = np.array([mrf.theta_edge[e] for e in b.edges]) / rho[:, :, None]
            self.buckets[bi] = _RhoBucket(*b, rho, table)
            position += [np.repeat(b.pos, b.idx_s.shape[1]), np.repeat(b.pos, b.idx_t.shape[1])]
            target += [b.idx_s.ravel(), b.idx_t.ravel()]
        # Entries of the concatenated per-bucket (to_s, to_t) contributions,
        # reordered by edge position, and the node entries they add to.
        if position:
            self._gather = np.argsort(np.concatenate(position), kind="stable")
            self._scatter = np.concatenate(target)[self._gather]

    def _accumulate(self, acc: np.ndarray, to_s, to_t) -> np.ndarray:
        """Add each bucket's to_s (E_b, m_s) and to_t (E_b, m_t) rows to the
        endpoint tables in `acc`, edge by edge in schedule order."""
        if self.edges:
            parts = np.concatenate([a.ravel() for pair in zip(to_s, to_t) for a in pair])
            np.add.at(acc, self._scatter, parts[self._gather])
        return acc

    def _normalized_nodes(self, v: np.ndarray) -> np.ndarray:
        return v - self.node_max(v)

    # --- messages: (to_s, to_t) per bucket ---------------------------------

    def unit_messages(self) -> tuple:
        return tuple(np.zeros(idx.shape) for b in self.buckets for idx in (b.idx_s, b.idx_t))

    def _belief_sums(self, msgs: tuple) -> np.ndarray:
        """B_s = sum over neighbors v of rho_vs * log M_vs, as a node vector."""
        return self._accumulate(np.zeros(self.size),
                                [b.rho * m for b, m in zip(self.buckets, msgs[0::2])],
                                [b.rho * m for b, m in zip(self.buckets, msgs[1::2])])

    def message_step(self, msgs: tuple, damping: float) -> tuple:
        h = self.theta_node + self._belief_sums(msgs)
        new = []
        for b, to_s, to_t in zip(self.buckets, msgs[0::2], msgs[1::2]):
            # message t -> s (indexed by x_s): maximize over x_t
            src = h[b.idx_t] - to_t
            new.append(_normalized(np.max(b.table + src[:, None, :], axis=2)))
            # message s -> t (indexed by x_t): maximize over x_s
            src = h[b.idx_s] - to_s
            new.append(_normalized(np.max(b.table + src[:, :, None], axis=1)))
        if damping < 1.0:
            new = [_normalized(_damp(m, old, damping)) for m, old in zip(new, msgs)]
        return tuple(new)

    def pseudo_from_messages(self, msgs: tuple) -> tuple:
        h = self.theta_node + self._belief_sums(msgs)
        tables = []
        for b, to_s, to_t in zip(self.buckets, msgs[0::2], msgs[1::2]):
            left = h[b.idx_s] - to_s
            right = h[b.idx_t] - to_t
            tables.append(_normalized(b.table + left[:, :, None] + right[:, None, :]))
        return (self._normalized_nodes(h), *tables)

    def pack_messages(self, msgs: MessageSet) -> tuple:
        out = []
        for b in self.buckets:
            out.append(np.array([msgs.log_m[(t, s)] for s, t in b.edges], dtype=float))
            out.append(np.array([msgs.log_m[(s, t)] for s, t in b.edges], dtype=float))
        return tuple(out)

    def message_set(self, msgs: tuple) -> MessageSet:
        logs = {}
        for (s, t), (bi, i) in zip(self.edges, self.slot):
            logs[(t, s)] = msgs[2 * bi][i]
            logs[(s, t)] = msgs[2 * bi + 1][i]
        return MessageSet(logs)

    # --- pseudo-max-marginals: node vector, then table stacks ---------------

    def reparameterization_step(self, nu: tuple, damping: float) -> tuple:
        node, tables = nu[0], nu[1:]
        rows = [m.max(axis=2) for m in tables]
        cols = [m.max(axis=1) for m in tables]
        new_node = self._normalized_nodes(self._accumulate(
            node.copy(),
            [b.rho * (r - node[b.idx_s]) for b, r in zip(self.buckets, rows)],
            [b.rho * (c - node[b.idx_t]) for b, c in zip(self.buckets, cols)]))
        new_tables = [_normalized(m - r[:, :, None] - c[:, None, :]
                                  + new_node[b.idx_s][:, :, None]
                                  + new_node[b.idx_t][:, None, :])
                      for b, m, r, c in zip(self.buckets, tables, rows, cols)]
        if damping < 1.0:
            new_node = self._normalized_nodes(_damp(new_node, node, damping))
            new_tables = [_normalized(_damp(m, old, damping))
                          for m, old in zip(new_tables, tables)]
        return (new_node, *new_tables)

    def pseudo(self, nu: tuple) -> PseudoMaxMarginals:
        return PseudoMaxMarginals.on_layout(self, nu[0], nu[1:])


def unit_messages(mrf: PairwiseMrf) -> MessageSet:
    flat = _FlatMrf(mrf.cardinalities, mrf.edges)
    return flat.message_set(flat.unit_messages())


def init_pseudo(mrf: PairwiseMrf, rho_e: Mapping[Edge, float]) -> PseudoMaxMarginals:
    """Starting pseudo-max-marginals: node tables from theta, edge tables from
    the edge table scaled by 1/rho plus both node tables, max-normalized."""
    flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
    return flat.pseudo(flat.pseudo_from_messages(flat.unit_messages()))


def reparameterization_step(nu: PseudoMaxMarginals, rho_e: Mapping[Edge, float],
                            damping: float = 1.0) -> PseudoMaxMarginals:
    """One synchronous edge-based reparameterization update.

    Every node table absorbs the rho-weighted row-max corrections of all its
    incident edge tables (in sorted edge order); every edge table is
    recentred by its row and column maxima and re-attached to the new node
    tables.  The update is computed from the previous iterate throughout,
    then damped in the log domain and re-normalized.
    """
    flat = _FlatMrf([len(v) for v in nu.log_node], sorted(nu.log_edge), rho_e)
    node, tables = flat.pack(nu.log_node, nu.log_edge)
    return flat.pseudo(flat.reparameterization_step((node, *tables), damping))


def message_step(msgs: MessageSet, mrf: PairwiseMrf, rho_e: Mapping[Edge, float],
                 damping: float = 1.0) -> MessageSet:
    """One synchronous tree-reweighted message update for every direction.

    The new message from t to s maximizes, over the sender's states, the edge
    table scaled by 1/rho plus the sender's node table and its rho-weighted
    incoming messages, with the reverse-direction message subtracted at full
    weight.  With rho identically 1 this is the ordinary max-product update.
    """
    flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
    return flat.message_set(flat.message_step(flat.pack_messages(msgs), damping))


def messages_to_pseudo(msgs: MessageSet, mrf: PairwiseMrf,
                       rho_e: Mapping[Edge, float]) -> PseudoMaxMarginals:
    """Pseudo-max-marginals induced by a message set, max-normalized."""
    flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
    return flat.pseudo(flat.pseudo_from_messages(flat.pack_messages(msgs)))


def _iterate(step, state: tuple, config: TrwConfig, observe=None):
    """The iteration driver shared by the synchronous schedules.

    Applies `step(state, damping)` until the largest absolute log change
    between two iterates falls below the tolerance, or the iteration cap.
    `observe`, when given, sees the starting state and every iterate.
    Returns (final state, iterations, converged).
    """
    if observe is not None:
        observe(state)
    for iterations in range(1, config.max_iterations + 1):
        new = step(state, config.damping)
        delta = max(float(np.max(np.abs(a - b))) for a, b in zip(new, state))
        state = new
        if observe is not None:
            observe(state)
        if delta < config.tol:
            return state, iterations, True
    return state, iterations, False


@dataclass(frozen=True)
class CertificateResult:
    assignment: np.ndarray | None
    indeterminate: bool = False


def _search_common_config(candidates, edges, allowed, guard):
    """Depth-first search with forward pruning for a configuration whose node
    states all lie in `candidates` and whose pairs on every edge (s, t) of
    `edges` are allowed: allowed[i][js][jt], one nested list per edge.

    Nodes are fixed in order of increasing candidate count; fixing one prunes
    the domains of its later neighbors.  The replaced domains go on an undo
    trail, so backtracking restores them without copying, and the search
    keeps an explicit stack instead of recursing once per node.  Returns
    (assignment or None, indeterminate).  Complete unless the node guard
    trips, which is reported as indeterminate rather than absence.
    """
    n = len(candidates)
    adj = {s: [] for s in range(n)}
    pairs = {}  # pairs[(s, t)][js][jt], for both orientations
    for (s, t), m in zip(edges, allowed):
        adj[s].append(t)
        adj[t].append(s)
        pairs[(s, t)] = m
        pairs[(t, s)] = list(zip(*m))
    order = sorted(range(n), key=lambda s: (len(candidates[s]), s))
    rank = {s: i for i, s in enumerate(order)}
    later = [[t for t in adj[s] if rank[t] > pos] for pos, s in enumerate(order)]
    domains = [list(candidates[s]) for s in range(n)]
    x = [-1] * n
    tried = [0] * n  # per position: values of its domain tried so far
    marks = [0] * n  # per position: trail length before its current value
    trail = []
    expanded = 0
    pos = 0
    while 0 <= pos < n:
        s = order[pos]
        while len(trail) > marks[pos]:
            t, dom = trail.pop()
            domains[t] = dom
        if tried[pos] == len(domains[s]):
            pos -= 1
            continue
        j = domains[s][tried[pos]]
        tried[pos] += 1
        expanded += 1
        if expanded > guard:
            return None, True
        x[s] = j
        for t in later[pos]:
            ok = pairs[(s, t)][j]
            keep = [k for k in domains[t] if ok[k]]
            if not keep:
                break
            trail.append((t, domains[t]))
            domains[t] = keep
        else:
            pos += 1
            if pos < n:
                tried[pos] = 0
                marks[pos] = len(trail)
    if pos == n:
        return np.array(x, dtype=int), False
    return None, False


def _tie_masks(layout: _Layout, node: np.ndarray, tables, tie_tol: float):
    """The certificate's tie rule: the entries within `tie_tol` of their
    table's max, on a node vector of `layout` (or a stack of them) and on
    every table of a list of table stacks."""
    return (node >= layout.node_max(node) - tie_tol,
            [m >= m.max(axis=(1, 2), keepdims=True) - tie_tol for m in tables])


def _search_tie_masks(layout: _Layout, node_mask: np.ndarray, edge_masks, guard: int):
    """`_search_common_config` on tie masks laid out on `layout`: a node
    vector of candidate states and one stack of allowed pairs per bucket."""
    pos = np.flatnonzero(node_mask)
    node = layout.node_of[pos]
    candidates = [[] for _ in layout.offsets]
    for s, j in zip(node.tolist(), (pos - layout.offsets[node]).tolist()):
        candidates[s].append(j)
    rows = [m.tolist() for m in edge_masks]
    return _search_common_config(candidates, layout.edges,
                                 [rows[bi][i] for bi, i in layout.slot], guard)


def find_certificate(nu: PseudoMaxMarginals, mrf: PairwiseMrf,
                     tie_tol: float = CERT_TIE_TOL,
                     guard: int = CERT_SEARCH_GUARD) -> CertificateResult:
    """Search for an assignment that is optimal in every node table and every
    edge table of `nu` simultaneously (within `tie_tol` in the log domain).

    Such an assignment certifies MAP optimality at a fixed point of the
    tree-reweighted updates with valid edge appearance weights.
    """
    _check_graph(nu, mrf)
    masks = _tie_masks(nu.layout, nu.node, nu.tables, tie_tol)
    assignment, indet = _search_tie_masks(nu.layout, *masks, guard)
    return CertificateResult(assignment, indet)


def _check_graph(nu: MaxMarginals, mrf: PairwiseMrf):
    """Raise unless `nu` has tables on exactly the nodes and edges of `mrf`."""
    cards, want = [len(v) for v in nu.log_node], list(mrf.cardinalities)
    if cards != want:
        raise StructureError(f"pseudo-max-marginals have cardinalities {cards}, the model {want}")
    missing = [e for e in mrf.edges if e not in nu.log_edge]
    if missing:
        raise StructureError(f"pseudo-max-marginals missing on edges {missing}")
    extra = [e for e in nu.log_edge if e not in mrf.theta_edge]
    if extra:
        raise StructureError(f"pseudo-max-marginals given on edges {extra}, not graph edges")


class _ZeroOffset:
    """<combined - theta, phi(x)> at the all-zeros configuration x.

    Called with the combined parameter's first entries: one per node, in
    node order, and one array per bucket of `layout` for the edges.  The
    terms are summed node by node, then edge by edge in model order.
    """

    def __init__(self, mrf: PairwiseMrf, layout: _Layout):
        where = {e: k for k, e in enumerate(layout.edges)}
        first = np.cumsum([0] + [len(b.edges) for b in layout.buckets])
        self.order = np.array([first[bi] + i for bi, i in (layout.slot[where[e]]
                                                           for e in mrf.edges)], dtype=np.intp)
        self.theta_node = [float(v[0]) for v in mrf.theta_node]
        self.theta_edge = [float(mrf.theta_edge[e][0, 0]) for e in mrf.edges]

    def __call__(self, node: np.ndarray, edge) -> float:
        total = 0.0
        for c, th in zip(node.tolist(), self.theta_node):
            total += c - th
        edge = np.concatenate([*edge, np.zeros(0)])[self.order]
        for c, th in zip(edge.tolist(), self.theta_edge):
            total += c
            total -= th
        return total


def check_reparameterization(nu_or_thetas, dist: TreeDistribution, mrf: PairwiseMrf,
                             max_states: int = 2 ** 24) -> float:
    """How far the rho-weighted tree parameters are from reproducing theta.

    Accepts either pseudo-max-marginals (tree parameters induced per edge) or
    an explicit list of Potentials aligned with the distribution's trees,
    where an edge a tree parameter has no table for counts as zero.
    Evaluates the difference of objectives over every configuration and
    returns the maximum deviation from its mean: zero means the combination
    equals theta up to an additive constant.
    """
    if isinstance(nu_or_thetas, MaxMarginals):
        _check_graph(nu_or_thetas, mrf)
        layout, node = nu_or_thetas.layout, nu_or_thetas.node
        rho_e = edge_appearance(dist, mrf)
        tables = [np.array([rho_e[e] for e in b.edges])[:, None, None]
                  * (m - node[b.idx_s][:, :, None] - node[b.idx_t][:, None, :])
                  for b, m in zip(layout.buckets, nu_or_thetas.tables)]
    else:
        thetas = list(nu_or_thetas)
        support = dist.support_items()
        if len(thetas) != len(support):
            raise ValueError("one Potentials per supported tree required")
        stray = [e for th in thetas for e in th.edge if e not in mrf.theta_edge]
        if stray:
            raise StructureError(f"parameter given on {stray[0]}, which is not a graph edge")
        layout = _Layout(mrf.cardinalities, mrf.edges)
        w = [wk for _, wk in support]
        nodes, per_tree = zip(*(layout.pack(th.node, th.edge) for th in thetas))
        node = _sum_in_order(w, np.array(nodes))
        tables = [_sum_in_order(w, np.array(stack)) for stack in zip(*per_tree)]
    theta_node, theta_tables = layout.pack(mrf.theta_node, mrf.theta_edge)
    _guard_states(mrf.cardinalities, max_states)
    diff_node, diff_edge = layout.unpack(node - theta_node,
                                         [c - th for c, th in zip(tables, theta_tables)])
    d = assignment_scores(mrf.cardinalities,
                          Potentials(diff_node, {e: diff_edge[e] for e in mrf.edges}))
    return float(np.max(np.abs(d - d.mean())))


def _bound_value(trees: _TreeLayout, weights, offset: _ZeroOffset, rho, nu: tuple) -> float:
    """Current upper bound from pseudo-max-marginals on `trees.graph` (node
    vector, then table stacks): rho-weighted optimal values of the induced
    tree problems, corrected by the additive constant separating their
    combination from theta."""
    node, graph = nu[0], trees.graph
    theta = [(m - node[b.idx_s][:, :, None]) - node[b.idx_t][:, None, :]
             for b, m in zip(graph.buckets, nu[1:])]
    total = 0.0
    for w, value in zip(weights, trees.map_values(node, theta)):
        total += w * value
    return total - offset(node[graph.offsets], [r[:, 0] * m[:, 0, 0] for r, m in zip(rho, theta)])


def run_trw(mrf: PairwiseMrf, dist_or_rho=None, config: TrwConfig | None = None,
            variant: str = "messages") -> TrwResult:
    """Iterate tree-reweighted updates to convergence or the iteration cap.

    variant "messages" runs message passing, "reparam" the direct
    reparameterization updates.  When an explicit tree distribution is
    supplied, the per-iteration upper bound is recorded.  Non-convergence is
    reported in the result, never raised.  After termination the certificate
    search runs on the final pseudo-max-marginals.
    """
    if not mrf.edges:
        raise StructureError("model has no edges")
    config = config or TrwConfig()
    dist, rho_e = resolve_rho(mrf, dist_or_rho)
    if variant == "reparam":
        # this update sums node corrections in sorted edge order
        flat = _FlatMrf(mrf.cardinalities, sorted(mrf.edges), rho_e, mrf)
        state, step = flat.pseudo_from_messages(flat.unit_messages()), flat.reparameterization_step

        def tables(nu):
            return nu
    elif variant == "messages":
        flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
        state, step, tables = flat.unit_messages(), flat.message_step, flat.pseudo_from_messages
    else:
        raise ValueError(f"unknown variant {variant!r}")
    bound_trace = []
    observe = None
    if dist is not None:
        support = dist.support_items()
        trees = _TreeLayout(flat, [tree for tree, _ in support])
        weights = [w for _, w in support]
        offset = _ZeroOffset(mrf, flat)
        rho = [b.rho for b in flat.buckets]

        def observe(state):
            bound_trace.append(_bound_value(trees, weights, offset, rho, tables(state)))
    state, iterations, converged = _iterate(step, state, config, observe)
    nu = flat.pseudo(tables(state))
    cert = find_certificate(nu, mrf)
    return TrwResult(
        nu=nu,
        iterations=iterations,
        converged=converged,
        certificate=cert.assignment,
        certificate_indeterminate=cert.indeterminate,
        bound_trace=tuple(bound_trace),
        messages=flat.message_set(state) if variant == "messages" else None,
        variant=variant,
        terminated_by="converged" if converged else "max_iterations",
        messages_per_edge=2.0 * iterations,
    )


def run_tree_updates(mrf: PairwiseMrf, dist: TreeDistribution,
                     config: TrwConfig | None = None) -> TrwResult:
    """Tree-based updates: exact max-marginals per supported tree, early exit
    on a shared optimal configuration, merge otherwise.

    Each iteration computes exact max-marginals for every supported tree, then
    looks for a configuration optimal in all of them (nodewise and edgewise);
    if found it is returned immediately and is MAP-optimal.  If the per-tree
    max-marginal values all agree instead, the state is a fixed point.  Else
    the rho-weighted log tables are merged into a new shared parameter (damped
    against the previous one) and re-split onto the trees.

    The shared parameter is a node vector and one edge-table stack per
    bucket of the model's layout.  Tree k's parameter is its node tables and
    its edges' tables scaled by 1/rho, so one `_TreeLayout.solve` runs the DP
    on every tree at once, and the per-tree results are slot stacks that the
    merge sums onto the edges in support order.
    """
    if not isinstance(dist, TreeDistribution):
        raise TypeError("tree updates require an explicit tree distribution")
    if not mrf.edges:
        raise StructureError("model has no edges")
    config = config or TrwConfig()
    rho_e = edge_appearance(dist, mrf)
    support = dist.support_items()
    graph = _Layout(mrf.cardinalities, mrf.edges)
    trees = _TreeLayout(graph, [tree for tree, _ in support])
    weights = [w for _, w in support]
    w = np.array(weights)
    rho = [np.array([rho_e[e] for e in b.edges])[:, None, None] for b in graph.buckets]
    offset = _ZeroOffset(mrf, graph)
    node, edge = graph.pack(mrf.theta_node, mrf.theta_edge)
    bound_trace = []
    converged = False
    terminated_by = "max_iterations"
    certificate = None
    indeterminate = False
    units_per_iter = sum(len(t.edges) for t, _ in support) / len(mrf.edges)
    for iterations in range(1, config.max_iterations + 1):
        split = [m / r for m, r in zip(edge, rho)]
        node_mm, edge_mm, values = trees.solve(node, split)
        # the offset sums the tree parameters over the trees, as the bound
        # is defined; taking `node` and `edge` as their sum instead would
        # move the bound in the last ulps
        firsts = node[graph.offsets]
        combined = _tree_sum(trees, w, np.broadcast_to(firsts, (len(w), len(firsts))),
                             [m[sl.row, 0, 0] for sl, m in zip(trees.slots, split)])
        bound_trace.append(sum(wk * v for wk, v in zip(weights, values)) - offset(*combined))
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
        stacked = node_mm.ravel()
        theta = [(m - stacked[sl.node_s][:, :, None]) - stacked[sl.node_t][:, None, :]
                 for sl, m in zip(trees.slots, edge_mm)]
        merged_node, merged_edge = _tree_sum(trees, w, node_mm, theta)
        node = _damp(merged_node, node, config.damping)
        edge = [_damp(m, old, config.damping) for m, old in zip(merged_edge, edge)]
    total_node, total_edge = _tree_sum(trees, w, node_mm, edge_mm)
    nu = PseudoMaxMarginals.on_layout(graph, total_node - graph.node_max(total_node),
                                      [_normalized(m / r) for m, r in zip(total_edge, rho)])
    return TrwResult(
        nu=nu,
        iterations=iterations,
        converged=converged,
        certificate=certificate,
        certificate_indeterminate=indeterminate,
        bound_trace=tuple(bound_trace),
        messages=None,
        variant="tree",
        terminated_by=terminated_by,
        messages_per_edge=units_per_iter * iterations,
    )


def _tree_sum(trees: _TreeLayout, w: np.ndarray, node: np.ndarray, slot_tables) -> tuple:
    """Sum over the trees of w_k times tree k's tables, in tree order: node
    tables from a stack over the trees (first axis), edge tables from one
    stack per bucket over its slots, each slot added onto its edge's row.
    An edge sums over the trees that hold it."""
    edge = []
    for b, sl, tables in zip(trees.graph.buckets, trees.slots, slot_tables):
        acc = np.zeros((len(b.edges),) + tables.shape[1:])
        np.add.at(acc, sl.row, w[sl.tree].reshape((-1,) + (1,) * (tables.ndim - 1)) * tables)
        edge.append(acc)
    return _sum_in_order(w, node), edge


def _sum_in_order(w, stack: np.ndarray) -> np.ndarray:
    """0 + w[0] * stack[0] + w[1] * stack[1] + ..., added in that order."""
    total = np.zeros(stack.shape[1:])
    for wk, v in zip(w, stack):
        total = total + wk * v
    return total


def _shared_tree_optimum(trees: _TreeLayout, node_masks: np.ndarray, edge_masks):
    """Configuration optimal for every tree, if one exists, from per-tree tie
    masks: a (T, N) node stack and per bucket one mask per slot.

    Node candidates are the intersection of per-tree nodewise argmax sets;
    edge pairs must be argmax pairs in every tree containing the edge.  Local
    optimality on a tree characterizes its optimal set exactly, so this search
    decides non-emptiness of the intersection of the tree optima.
    """
    node = node_masks.all(axis=0)
    allowed = [np.logical_and.reduceat(m[sl.by_edge], sl.starts, axis=0)
               for sl, m in zip(trees.slots, edge_masks)]
    if not (np.logical_or.reduceat(node, trees.graph.offsets).all()
            and all(a.any(axis=(1, 2)).all() for a in allowed)):
        return None, False
    return _search_tie_masks(trees.graph, node, allowed, CERT_SEARCH_GUARD)


def _tree_tables_agree(trees: _TreeLayout, node_mm: np.ndarray, edge_mm, tol: float) -> bool:
    """Whether the per-tree max-marginals agree within tol: each tree's node
    tables with the first tree's, and on every edge the tables of all trees
    holding it (their spread, max minus min, is the largest pairwise gap)."""
    if not np.all(np.abs(node_mm[1:] - node_mm[0]) < tol):
        return False
    for sl, m in zip(trees.slots, edge_mm):
        m = m[sl.by_edge]
        if not np.all(np.maximum.reduceat(m, sl.starts) - np.minimum.reduceat(m, sl.starts) < tol):
            return False
    return True
