"""Tree-reweighted max-product: reparameterization, message passing and
tree-based updates, plus the certificate search that turns a fixed point into
a provably optimal assignment.

All state lives in the log domain.  Updates are fully synchronous (every node
and edge is updated from the previous iterate), optionally damped by linear
combination of old and new logs, and re-normalized so the largest entry of
every table is 0.

The message and reparameterization schedules compute on `_FlatMrf`, a layout
built once per run from the model and rho.  Node tables are concatenated into
one vector with per-node offsets.  Edges are grouped into buckets by table
shape (m_s, m_t), so mixed cardinalities need no padding.  Each bucket holds
its endpoint index arrays, its tables theta_st / rho_st stacked into one
(E_b, m_s, m_t) array, and, in a message state, one (E_b, m) array per
direction.  A step maps one state (a tuple of such arrays) to the next, and
`_iterate` is the one driver for both schedules: it applies a step, measures
the max log change and decides when to stop.  The per-node sums over
incident edges are accumulated with `np.add.at` in the schedule's edge order
(`mrf.edges` for messages, sorted for reparameterization), so each entry sees
the same floating-point operations in the same order as a per-edge loop.
`PseudoMaxMarginals` and `MessageSet` are the boundary types: `run_trw`
builds them once at the end, or per iteration when a tree distribution asks
for the bound trace.  The public `message_step`, `reparameterization_step`,
`messages_to_pseudo`, `init_pseudo` and `unit_messages` convert to the layout,
run one kernel and convert back.

The tree-based schedule keeps its own loop, because its stopping rules (a
configuration optimal in every tree, or agreement of the per-tree tables) are
checked between the tree DP and the merge.  Each iteration runs the tree DP
once per tree, which gives both the max-marginals and the tree values of the
bound.  Every rho-weighted sum of per-tree tables is `_weighted_sum`, and the
certificate's tie rule, the entries within `tie_tol` of their table's max, is
`_tie_masks`, shared by `find_certificate` and the tree schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import Edge, PairwiseMrf, Potentials, StructureError
from .trees import SpanningTree, TreeDistribution, edge_appearance
from .treedp import (MaxMarginals, _guard_states, _tree_dp, assignment_scores,
                     tree_map_value)

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

    def max_log_change(self, other: "MessageSet") -> float:
        return max(float(np.max(np.abs(v - other.log_m[k])))
                   for k, v in self.log_m.items())


@dataclass(frozen=True)
class TrwConfig:
    damping: float = 0.5
    tol: float = 1e-8
    max_iterations: int = 2000
    tie_tol: float = CERT_TIE_TOL

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
    missing = [e for e in mrf.edges if e not in rho or rho[e] <= 0]
    if missing:
        raise StructureError(f"rho_e missing or non-positive on edges {missing}")
    return None, rho


def _damp(new: np.ndarray, old: np.ndarray, lam: float) -> np.ndarray:
    return new if lam >= 1.0 else lam * new + (1.0 - lam) * old


def _normalized(a: np.ndarray) -> np.ndarray:
    """Shift every table of a stack (axis 0) so its largest entry is 0."""
    return a - a.max(axis=tuple(range(1, a.ndim)), keepdims=True)


@dataclass(frozen=True)
class _Bucket:
    """The edges of one table shape (m_s, m_t), in schedule order."""

    edges: tuple
    idx_s: np.ndarray  # (E_b, m_s): positions of the s tables in the node vector
    idx_t: np.ndarray  # (E_b, m_t)
    rho: np.ndarray | None  # (E_b, 1)
    table: np.ndarray | None  # (E_b, m_s, m_t): theta_st / rho_st


class _FlatMrf:
    """A graph, its rho and optionally its model, laid out for array updates.

    Node tables live in one vector; node s owns entries offsets[s] to
    offsets[s] + m_s.  Edges are bucketed by table shape, in `edges` order
    within a bucket.  Two state kinds are tuples of per-bucket arrays:
    messages are (to_s, to_t) per bucket, to_s[i] being the log message t->s
    of the bucket's i-th edge; pseudo-max-marginals are the node vector
    followed by one (E_b, m_s, m_t) table stack per bucket.  Sums over the
    edges at a node are taken in `edges` order, the order of the schedule.
    """

    def __init__(self, cardinalities, edges, rho_e=None, mrf: PairwiseMrf | None = None):
        cards = np.array(cardinalities, dtype=np.intp)
        ends = np.cumsum(cards)
        self.offsets = ends - cards
        self.node_of = np.repeat(np.arange(len(cards)), cards)
        self.size = int(ends[-1])
        self.edges = tuple(edges)
        self.theta_node = None if mrf is None else np.concatenate(mrf.theta_node)
        if mrf is not None:
            for e in self.edges:
                if rho_e[e] <= 0:
                    raise StructureError(f"rho_e on edge {e} must be positive")
        groups = {}
        for k, (s, t) in enumerate(self.edges):
            groups.setdefault((int(cards[s]), int(cards[t])), []).append(k)
        self.buckets = []
        self.slot = [None] * len(self.edges)  # edge position -> (bucket, row)
        position, target = [], []
        for bi, ((ms, mt), ks) in enumerate(groups.items()):
            es = tuple(self.edges[k] for k in ks)
            idx_s = self.offsets[[s for s, _ in es]][:, None] + np.arange(ms)
            idx_t = self.offsets[[t for _, t in es]][:, None] + np.arange(mt)
            rho = None if rho_e is None else np.array([float(rho_e[e]) for e in es])[:, None]
            table = None
            if mrf is not None:
                table = np.array([mrf.theta_edge[e] for e in es]) / rho[:, :, None]
            self.buckets.append(_Bucket(es, idx_s, idx_t, rho, table))
            for i, k in enumerate(ks):
                self.slot[k] = (bi, i)
            position += [np.repeat(ks, ms), np.repeat(ks, mt)]
            target += [idx_s.ravel(), idx_t.ravel()]
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
        return v - np.maximum.reduceat(v, self.offsets)[self.node_of]

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

    def init_pseudo(self) -> tuple:
        th = self.theta_node
        return (self._normalized_nodes(th),
                *(_normalized(b.table + th[b.idx_s][:, :, None] + th[b.idx_t][:, None, :])
                  for b in self.buckets))

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

    def pack_pseudo(self, nu: MaxMarginals) -> tuple:
        return (np.concatenate([np.asarray(v, dtype=float) for v in nu.log_node]),
                *(np.array([nu.log_edge[e] for e in b.edges], dtype=float)
                  for b in self.buckets))

    def pseudo(self, nu: tuple) -> PseudoMaxMarginals:
        log_edge = {e: nu[1 + bi][i] for e, (bi, i) in zip(self.edges, self.slot)}
        return PseudoMaxMarginals(tuple(np.split(nu[0], self.offsets[1:])), log_edge)


def unit_messages(mrf: PairwiseMrf) -> MessageSet:
    flat = _FlatMrf(mrf.cardinalities, mrf.edges)
    return flat.message_set(flat.unit_messages())


def init_pseudo(mrf: PairwiseMrf, rho_e: Mapping[Edge, float]) -> PseudoMaxMarginals:
    """Starting pseudo-max-marginals: node tables from theta, edge tables from
    the edge table scaled by 1/rho plus both node tables, max-normalized."""
    flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
    return flat.pseudo(flat.init_pseudo())


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
    return flat.pseudo(flat.reparameterization_step(flat.pack_pseudo(nu), damping))


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

    def found(self) -> bool:
        return self.assignment is not None


def _search_common_config(cardinalities, candidates, allowed_pairs, guard):
    """Depth-first search with forward pruning for a configuration whose node
    states all lie in `candidates` and whose edge pairs are all `allowed`.

    Nodes are fixed in order of increasing candidate count; fixing one prunes
    the domains of its later neighbors.  The replaced domains go on an undo
    trail, so backtracking restores them without copying, and the search
    keeps an explicit stack instead of recursing once per node.  Returns
    (assignment or None, indeterminate).  Complete unless the node guard
    trips, which is reported as indeterminate rather than absence.
    """
    n = len(cardinalities)
    adj = {s: [] for s in range(n)}
    allowed = {}  # allowed[(s, t)][js][jt], for both orientations
    for (s, t), m in allowed_pairs.items():
        adj[s].append(t)
        adj[t].append(s)
        allowed[(s, t)] = np.asarray(m).tolist()
        allowed[(t, s)] = np.asarray(m).T.tolist()
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
            ok = allowed[(s, t)][j]
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


def find_certificate(nu: PseudoMaxMarginals, mrf: PairwiseMrf,
                     tie_tol: float = CERT_TIE_TOL,
                     guard: int = CERT_SEARCH_GUARD) -> CertificateResult:
    """Search for an assignment that is optimal in every node table and every
    edge table of `nu` simultaneously (within `tie_tol` in the log domain).

    Such an assignment certifies MAP optimality at a fixed point of the
    tree-reweighted updates with valid edge appearance weights.
    """
    node, allowed = _tie_masks(nu, mrf.edges, tie_tol)
    candidates = [np.flatnonzero(a).tolist() for a in node]
    assignment, indet = _search_common_config(mrf.cardinalities, candidates, allowed, guard)
    return CertificateResult(assignment, indet)


def _tie_masks(nu: MaxMarginals, edges, tie_tol: float):
    """The certificate's tie rule: the entries within `tie_tol` of their
    table's max, as one boolean vector per node and one boolean matrix per
    edge of `edges`, keyed in that order."""
    node = [v >= v.max() - tie_tol for v in nu.log_node]
    edge = {}
    for e in edges:
        m = nu.log_edge[e]
        edge[e] = m >= m.max() - tie_tol
    return node, edge


def _theta_from_nu(nu: PseudoMaxMarginals, tree: SpanningTree) -> Potentials:
    """Tree parameter induced by nu: node logs everywhere, edge logs minus
    both node logs on tree edges."""
    node = tuple(np.asarray(v) for v in nu.log_node)
    edge = {}
    for (s, t) in tree.edges:
        m = nu.log_edge[(s, t)]
        edge[(s, t)] = m - node[s][:, None] - node[t][None, :]
    return Potentials(node, edge)


def _combined_potentials(nu: PseudoMaxMarginals, rho_e) -> Potentials:
    """rho-weighted combination of the induced tree parameters, closed form."""
    node = tuple(np.asarray(v) for v in nu.log_node)
    edge = {}
    for (s, t), m in nu.log_edge.items():
        edge[(s, t)] = rho_e[(s, t)] * (m - node[s][:, None] - node[t][None, :])
    return Potentials(node, edge)


def _constant_offset(mrf: PairwiseMrf, combined: Potentials) -> float:
    """Value of <combined - theta, phi(x)> at the all-zeros configuration."""
    total = 0.0
    for s in range(mrf.node_count):
        total += float(combined.node[s][0]) - float(mrf.theta_node[s][0])
    for (s, t) in mrf.edges:
        m = combined.edge.get((s, t))
        if m is not None:
            total += float(m[0, 0])
        total -= float(mrf.theta_edge[(s, t)][0, 0])
    return total


def check_reparameterization(nu_or_thetas, dist: TreeDistribution, mrf: PairwiseMrf,
                             max_states: int = 2 ** 24) -> float:
    """How far the rho-weighted tree parameters are from reproducing theta.

    Accepts either pseudo-max-marginals (tree parameters induced per edge) or
    an explicit list of Potentials aligned with the distribution's trees.
    Evaluates the difference of objectives over every configuration and
    returns the maximum deviation from its mean: zero means the combination
    equals theta up to an additive constant.
    """
    if isinstance(nu_or_thetas, MaxMarginals):
        rho_e = edge_appearance(dist, mrf)
        combined = _combined_potentials(nu_or_thetas, rho_e)
    else:
        thetas = list(nu_or_thetas)
        support = dist.support_items()
        if len(thetas) != len(support):
            raise ValueError("one Potentials per supported tree required")
        combined = _weighted_sum(mrf, ((w, th) for (_, w), th in zip(support, thetas)))
    diff_node = tuple(np.asarray(combined.node[s]) - mrf.theta_node[s]
                      for s in range(mrf.node_count))
    diff_edge = {e: combined.edge_or_zero(e, mrf.theta_edge[e].shape) - mrf.theta_edge[e]
                 for e in mrf.edges}
    _guard_states(mrf.cardinalities, max_states)
    d = assignment_scores(mrf.cardinalities, Potentials(diff_node, diff_edge))
    return float(np.max(np.abs(d - d.mean())))


def _bound_value(mrf: PairwiseMrf, nu: PseudoMaxMarginals,
                 dist: TreeDistribution, rho_e) -> float:
    """Current upper bound: rho-weighted optimal values of the induced tree
    problems, corrected by the additive constant separating their combination
    from theta."""
    total = 0.0
    for tree, w in dist.support_items():
        total += w * tree_map_value(mrf, tree, _theta_from_nu(nu, tree))
    return total - _constant_offset(mrf, _combined_potentials(nu, rho_e))


def run_trw(mrf: PairwiseMrf, dist_or_rho=None, config: TrwConfig | None = None,
            variant: str = "messages") -> TrwResult:
    """Iterate tree-reweighted updates to convergence or the iteration cap.

    variant "messages" runs message passing, "reparam" the direct
    reparameterization updates.  When an explicit tree distribution is
    supplied, the per-iteration upper bound is recorded.  Non-convergence is
    reported in the result, never raised.  After termination the certificate
    search runs on the final pseudo-max-marginals.
    """
    config = config or TrwConfig()
    dist, rho_e = resolve_rho(mrf, dist_or_rho)
    if variant == "reparam":
        # this update sums node corrections in sorted edge order
        flat = _FlatMrf(mrf.cardinalities, sorted(mrf.edges), rho_e, mrf)
        state, step, to_nu = flat.init_pseudo(), flat.reparameterization_step, flat.pseudo
    elif variant == "messages":
        flat = _FlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
        state, step = flat.unit_messages(), flat.message_step

        def to_nu(msgs):
            return flat.pseudo(flat.pseudo_from_messages(msgs))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    bound_trace = []
    observe = None
    if dist is not None:
        def observe(state):
            bound_trace.append(_bound_value(mrf, to_nu(state), dist, rho_e))
    state, iterations, converged = _iterate(step, state, config, observe)
    nu = to_nu(state)
    cert = find_certificate(nu, mrf, config.tie_tol)
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


def _split_parameter(mrf: PairwiseMrf, base: Potentials, dist: TreeDistribution,
                     rho_e) -> dict:
    """Per-tree parameters from a shared one: node tables as-is, edge tables
    scaled by 1/rho on tree edges, zero elsewhere."""
    out = {}
    for tree, _ in dist.support_items():
        edge = {}
        for e in tree.edges:
            edge[e] = np.asarray(base.edge_or_zero(e, mrf.theta_edge[e].shape)) / rho_e[e]
        out[tree] = Potentials(tuple(np.asarray(v) for v in base.node), edge)
    return out


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
    """
    if not isinstance(dist, TreeDistribution):
        raise TypeError("tree updates require an explicit tree distribution")
    config = config or TrwConfig()
    rho_e = edge_appearance(dist, mrf)
    support = dist.support_items()
    base = mrf.potentials
    thetas = _split_parameter(mrf, base, dist, rho_e)
    bound_trace = []
    converged = False
    terminated_by = "max_iterations"
    certificate = None
    indeterminate = False
    nus = None
    units_per_iter = sum(len(t.edges) for t, _ in support) / len(mrf.edges)
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        solved = {tree: _tree_dp(mrf, tree, thetas[tree]) for tree, _ in support}
        nus = {tree: nu for tree, (nu, _) in solved.items()}
        combined = _weighted_sum(mrf, ((w, thetas[tree]) for tree, w in support))
        bound_trace.append(sum(w * solved[tree][1] for tree, w in support)
                           - _constant_offset(mrf, combined))
        certificate, indeterminate = _shared_tree_optimum(mrf, nus, support, config.tie_tol)
        if certificate is not None:
            converged = True
            terminated_by = "tree_agreement"
            break
        if _max_marginals_agree(nus, support, config.tol):
            converged = True
            terminated_by = "max_marginal_agreement"
            break
        merged = _merge_tree_potentials(mrf, nus, support)
        damped_node = tuple(_damp(np.asarray(m), np.asarray(o), config.damping)
                            for m, o in zip(merged.node, base.node))
        damped_edge = {e: _damp(np.asarray(merged.edge[e]),
                                np.asarray(base.edge_or_zero(e, mrf.theta_edge[e].shape)),
                                config.damping)
                       for e in mrf.edges}
        base = Potentials(damped_node, damped_edge)
        thetas = _split_parameter(mrf, base, dist, rho_e)
    tables = ((w, Potentials(nus[tree].log_node, nus[tree].log_edge)) for tree, w in support)
    nu = _assemble_nu(_weighted_sum(mrf, tables), rho_e)
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


def _weighted_sum(mrf: PairwiseMrf, terms) -> Potentials:
    """Sum of w * theta over (w, Potentials) pairs, on every node and every
    edge of the model; an edge a term has no table for counts as zero."""
    node = [np.zeros(m) for m in mrf.cardinalities]
    edge = {e: np.zeros_like(mrf.theta_edge[e]) for e in mrf.edges}
    for w, th in terms:
        for s in range(mrf.node_count):
            node[s] = node[s] + w * np.asarray(th.node[s])
        for e, m in th.edge.items():
            edge[e] = edge[e] + w * np.asarray(m)
    return Potentials(tuple(node), edge)


def _merge_tree_potentials(mrf, nus, support) -> Potentials:
    """rho-weighted merge of per-tree max-marginals into one parameter."""
    return _weighted_sum(mrf, ((w, _theta_from_nu(nus[tree], tree)) for tree, w in support))


def _shared_tree_optimum(mrf, nus, support, tie_tol):
    """Configuration optimal for every supported tree, if one exists.

    Node candidates are the intersection of per-tree nodewise argmax sets;
    edge pairs must be argmax pairs in every tree containing the edge.  Local
    optimality on a tree characterizes its optimal set exactly, so this search
    decides non-emptiness of the intersection of the tree optima.
    """
    node, allowed = None, {}
    for tree, _ in support:
        t_node, t_edge = _tie_masks(nus[tree], tree.edges, tie_tol)
        node = t_node if node is None else [a & b for a, b in zip(node, t_node)]
        for e, a in t_edge.items():
            allowed[e] = allowed[e] & a if e in allowed else a
    if not all(a.any() for a in node) or not all(a.any() for a in allowed.values()):
        return None, False
    candidates = [np.flatnonzero(a).tolist() for a in node]
    cards = mrf.cardinalities
    allowed = {(s, t): allowed.get((s, t), np.ones((cards[s], cards[t]), dtype=bool))
               for (s, t) in mrf.edges}
    return _search_common_config(cards, candidates, allowed, CERT_SEARCH_GUARD)


def _max_marginals_agree(nus, support, tol) -> bool:
    trees = [t for t, _ in support]
    first = nus[trees[0]]
    for other_tree in trees[1:]:
        other = nus[other_tree]
        for a, b in zip(first.log_node, other.log_node):
            if np.max(np.abs(a - b)) >= tol:
                return False
    for i, ta in enumerate(trees):
        for tb in trees[i + 1:]:
            shared = set(ta.edges) & set(tb.edges)
            for e in shared:
                if np.max(np.abs(nus[ta].log_edge[e] - nus[tb].log_edge[e])) >= tol:
                    return False
    return True


def _assemble_nu(total: Potentials, rho_e) -> PseudoMaxMarginals:
    """Graph-wide tables from the rho-weighted sum of the per-tree log tables:
    node sums as they are, edge sums divided by rho_e, the weight of the trees
    containing the edge, each max-normalized (diagnostic view; exact when the
    trees agree)."""
    edge = {}
    for e, m in total.edge.items():
        m = m / rho_e[e]
        edge[e] = m - m.max()
    return PseudoMaxMarginals(tuple(v - v.max() for v in total.node), edge)
