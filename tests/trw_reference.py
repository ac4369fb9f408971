"""Dict-of-tables reference implementations of the TRW kernels and the tree
layer.

These are the per-edge loops the library used before its compute moved to
array layouts, today the one padded (E, M, M) edge stack of
`trwmap.treedp._Layout`: the synchronous steps, the two-pass tree DP, the
tree-based update on `Potentials` (split, merge, rho-weighted sum), the
tree-based update loop, the reparameterization check and the
edge-consistency check.  They are kept only as a test oracle: the array
code must reproduce them bit for bit on every valid table entry, which
holds because both perform the same floating-point operations per entry in
the same order (node sums accumulate in edge order, incoming tree messages
in adjacency order, sums over trees in support order).

`Potentials` are this module's own node and edge tables.  The library takes
a tree parameter as a model; `tree_parameter` builds one from them.

The bucketed section keeps the array kernels of the synchronous schedules
with edges grouped by table shape (one loop over the groups per step), the
oracle of the padded edge stack that replaced them.  This module is the only
place left with table-shape buckets.

The last section keeps the certificate search as it ran before arc
consistency pruned its candidates: a depth-first search over every node,
the oracle of the pruned search.
"""

import functools
from typing import NamedTuple

import numpy as np

from trwmap import (MessageSet, PairwiseMrf, PseudoMaxMarginals, StructureError,
                    TrwConfig, edge_appearance)
from trwmap.treedp import (BRUTE_FORCE_GUARD, MaxMarginals, _guard_states, _Layout,
                           assignment_scores)
from trwmap.trw import CERT_SEARCH_GUARD, CERT_TIE_TOL, resolve_rho


class Potentials(NamedTuple):
    """Node and edge tables; an edge missing from the dict is zero."""

    node: tuple
    edge: dict


def potentials(mrf):
    """A model's tables as `Potentials`."""
    return Potentials(mrf.theta_node, mrf.theta_edge)


def tree_parameter(mrf, theta):
    """`Potentials` on some of `mrf`'s edges as a model on its nodes, the
    form the library takes a tree parameter in."""
    return PairwiseMrf(mrf.cardinalities, tuple(theta.edge), theta.node, theta.edge)


def _damp(new, old, lam):
    return new if lam >= 1.0 else lam * new + (1.0 - lam) * old


def _normalized(a):
    """Shift every table of a stack (axis 0) so its largest entry is 0: the
    max of its row maxima, each an `np.maximum` of the slices in order from
    the last axis in, so a tie of 0.0 and -0.0 has one answer."""
    top = a
    for axis in range(a.ndim - 1, 0, -1):
        top = functools.reduce(np.maximum, np.moveaxis(top, axis, 0))
    return a - top[(...,) + (None,) * (a.ndim - 1)]


def init_pseudo(mrf, rho_e):
    log_node = []
    for s in range(mrf.node_count):
        v = np.asarray(mrf.theta_node[s], dtype=float)
        log_node.append(v - v.max())
    log_edge = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        m = (mrf.theta_edge[(s, t)] / r
             + np.asarray(mrf.theta_node[s])[:, None]
             + np.asarray(mrf.theta_node[t])[None, :])
        log_edge[(s, t)] = m - m.max()
    return PseudoMaxMarginals(tuple(log_node), log_edge)


def reparameterization_step(nu, rho_e, damping=1.0):
    edges = sorted(nu.log_edge)
    row_max = {}
    col_max = {}
    for (s, t) in edges:
        m = nu.log_edge[(s, t)]
        row_max[(s, t)] = m.max(axis=1)
        col_max[(s, t)] = m.max(axis=0)
    new_node = [np.asarray(v, dtype=float).copy() for v in nu.log_node]
    for (s, t) in edges:
        r = rho_e[(s, t)]
        new_node[s] += r * (row_max[(s, t)] - nu.log_node[s])
        new_node[t] += r * (col_max[(s, t)] - nu.log_node[t])
    new_node = [v - v.max() for v in new_node]
    new_edge = {}
    for (s, t) in edges:
        m = (nu.log_edge[(s, t)] - row_max[(s, t)][:, None] - col_max[(s, t)][None, :]
             + new_node[s][:, None] + new_node[t][None, :])
        new_edge[(s, t)] = m - m.max()
    if damping < 1.0:
        new_node = [_damp(v, old, damping) for v, old in zip(new_node, nu.log_node)]
        new_node = [v - v.max() for v in new_node]
        new_edge = {e: _damp(m, nu.log_edge[e], damping) for e, m in new_edge.items()}
        new_edge = {e: m - m.max() for e, m in new_edge.items()}
    return PseudoMaxMarginals(tuple(new_node), new_edge)


def belief_sums(mrf, msgs, rho_e):
    b = [np.zeros(m) for m in mrf.cardinalities]
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        b[s] = b[s] + r * msgs.log_m[(t, s)]
        b[t] = b[t] + r * msgs.log_m[(s, t)]
    return b


def message_step(msgs, mrf, rho_e, damping=1.0):
    b = belief_sums(mrf, msgs, rho_e)
    new = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        table_st = mrf.theta_edge[(s, t)] / r
        src = mrf.theta_node[t] + b[t] - msgs.log_m[(s, t)]
        out = np.max(table_st + src[None, :], axis=1)
        new[(t, s)] = out - out.max()
        src = mrf.theta_node[s] + b[s] - msgs.log_m[(t, s)]
        out = np.max(table_st + src[:, None], axis=0)
        new[(s, t)] = out - out.max()
    if damping < 1.0:
        new = {k: _damp(v, msgs.log_m[k], damping) for k, v in new.items()}
        new = {k: v - v.max() for k, v in new.items()}
    return MessageSet(new)


def messages_to_pseudo(msgs, mrf, rho_e):
    b = belief_sums(mrf, msgs, rho_e)
    log_node = []
    for s in range(mrf.node_count):
        v = mrf.theta_node[s] + b[s]
        log_node.append(v - v.max())
    log_edge = {}
    for (s, t) in mrf.edges:
        r = rho_e[(s, t)]
        left = mrf.theta_node[s] + b[s] - msgs.log_m[(t, s)]
        right = mrf.theta_node[t] + b[t] - msgs.log_m[(s, t)]
        m = mrf.theta_edge[(s, t)] / r + left[:, None] + right[None, :]
        log_edge[(s, t)] = m - m.max()
    return PseudoMaxMarginals(tuple(log_node), log_edge)


def unit_messages(mrf):
    logs = {}
    for (s, t) in mrf.edges:
        logs[(t, s)] = np.zeros(mrf.cardinalities[s])
        logs[(s, t)] = np.zeros(mrf.cardinalities[t])
    return MessageSet(logs)


def max_log_change(new, old):
    """Largest absolute entry of new - old over all tables, for two message
    sets or two (pseudo-)max-marginals on the same graph."""
    if isinstance(new, MessageSet):
        pairs = [(v, old.log_m[k]) for k, v in new.log_m.items()]
    else:
        pairs = [*zip(new.log_node, old.log_node),
                 *((m, old.log_edge[e]) for e, m in new.log_edge.items())]
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def run(mrf, rho_e, damping, tol, max_iterations, variant, observe=None):
    """The synchronous iteration loop: (final pseudo-max-marginals, final
    messages or None, iterations, converged).  `observe`, when given, sees
    the pseudo-max-marginals of the start and of every iterate."""
    converged = False
    iterations = 0
    observe = observe or (lambda nu: None)
    if variant == "reparam":
        state, messages = init_pseudo(mrf, rho_e), None
        observe(state)
        for iterations in range(1, max_iterations + 1):
            new = reparameterization_step(state, rho_e, damping)
            delta = max_log_change(new, state)
            state = new
            observe(state)
            if delta < tol:
                converged = True
                break
        return state, None, iterations, converged
    messages = unit_messages(mrf)
    observe(messages_to_pseudo(messages, mrf, rho_e))
    for iterations in range(1, max_iterations + 1):
        new = message_step(messages, mrf, rho_e, damping)
        delta = max_log_change(new, messages)
        messages = new
        observe(messages_to_pseudo(messages, mrf, rho_e))
        if delta < tol:
            converged = True
            break
    return messages_to_pseudo(messages, mrf, rho_e), messages, iterations, converged


# --- tree layer: the dict DP and the tree-based update loop -------------------

def _oriented(theta, a, b, cards):
    key = (a, b) if a < b else (b, a)
    m = theta.edge.get(key)
    if m is None:
        m = np.zeros((cards[key[0]], cards[key[1]]))
    m = np.asarray(m)
    return m if a < b else m.T


def _upward_pass(mrf, tree, theta):
    """Leaves-to-root half of the DP rooted at node 0: the max-normalized
    messages toward the root (msg[(u, v)] from u to v, indexed by states of
    v), the adjacency, parent map and visit order, and the optimal value."""
    tree.validate(mrf.node_count)
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


def _tree_dp(mrf, tree, theta):
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


def tree_max_marginals(mrf, tree, theta=None):
    return _tree_dp(mrf, tree, theta if theta is not None else potentials(mrf))[0]


def tree_map_value(mrf, tree, theta=None):
    return _upward_pass(mrf, tree, theta if theta is not None else potentials(mrf))[-1]


# --- the tree-based update on Potentials ---------------------------------------

def _edge_or_zero(pot, e, shape):
    t = pot.edge.get(e)
    return t if t is not None else np.zeros(shape)


def _theta_from_nu(nu, tree):
    """Tree parameter induced by nu: node logs everywhere, edge logs minus
    both node logs on tree edges."""
    node = tuple(np.asarray(v) for v in nu.log_node)
    edge = {}
    for (s, t) in tree.edges:
        m = nu.log_edge[(s, t)]
        edge[(s, t)] = m - node[s][:, None] - node[t][None, :]
    return Potentials(node, edge)


def _combined_potentials(nu, rho_e):
    """rho-weighted combination of the induced tree parameters, closed form."""
    node = tuple(np.asarray(v) for v in nu.log_node)
    edge = {}
    for (s, t), m in nu.log_edge.items():
        edge[(s, t)] = rho_e[(s, t)] * (m - node[s][:, None] - node[t][None, :])
    return Potentials(node, edge)


def _split_parameter(mrf, base, dist, rho_e):
    """Per-tree parameters from a shared one: node tables as-is, edge tables
    scaled by 1/rho on tree edges, zero elsewhere."""
    out = {}
    for tree, _ in dist.support_items():
        edge = {}
        for e in tree.edges:
            edge[e] = np.asarray(_edge_or_zero(base, e, mrf.theta_edge[e].shape)) / rho_e[e]
        out[tree] = Potentials(tuple(np.asarray(v) for v in base.node), edge)
    return out


def _weighted_sum(mrf, terms):
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


def _merge_tree_potentials(mrf, nus, support):
    """rho-weighted merge of per-tree max-marginals into one parameter."""
    return _weighted_sum(mrf, ((w, _theta_from_nu(nus[tree], tree)) for tree, w in support))


def check_reparameterization(nu_or_thetas, dist, mrf):
    """`trwmap.check_reparameterization` on dicts: the combination of the tree
    parameters is `_combined_potentials` for pseudo-max-marginals and
    `_weighted_sum` for an explicit list of Potentials."""
    if isinstance(nu_or_thetas, MaxMarginals):
        combined = _combined_potentials(nu_or_thetas, edge_appearance(dist, mrf))
    else:
        support = dist.support_items()
        combined = _weighted_sum(mrf, ((w, th) for (_, w), th in zip(support, nu_or_thetas)))
    diff_node = tuple(np.asarray(combined.node[s]) - mrf.theta_node[s]
                      for s in range(mrf.node_count))
    diff_edge = {e: _edge_or_zero(combined, e, mrf.theta_edge[e].shape) - mrf.theta_edge[e]
                 for e in mrf.edges}
    _guard_states(mrf.cardinalities, BRUTE_FORCE_GUARD)
    d = assignment_scores(mrf.cardinalities, diff_node, diff_edge)
    return float(np.max(np.abs(d - d.mean())))


def _constant_offset(mrf, combined):
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


def bound_value(mrf, nu, dist, rho_e):
    """The explicit-tree upper bound of `run_trw` at pseudo-max-marginals nu."""
    total = 0.0
    for tree, w in dist.support_items():
        total += w * tree_map_value(mrf, tree, _theta_from_nu(nu, tree))
    return total - _constant_offset(mrf, _combined_potentials(nu, rho_e))


def _tie_masks(nu, edges, tie_tol):
    node = [v >= v.max() - tie_tol for v in nu.log_node]
    edge = {}
    for e in edges:
        m = nu.log_edge[e]
        edge[e] = m >= m.max() - tie_tol
    return node, edge


def _search(mrf, node, allowed, guard):
    candidates = [np.flatnonzero(a).tolist() for a in node]
    return search_common_config(candidates, mrf.edges,
                                [np.asarray(allowed[e]).tolist() for e in mrf.edges], guard)


def find_certificate(nu, mrf, tie_tol):
    """(assignment or None, indeterminate) of the certificate search."""
    node, allowed = _tie_masks(nu, mrf.edges, tie_tol)
    return _search(mrf, node, allowed, CERT_SEARCH_GUARD)


def _shared_tree_optimum(mrf, nus, support, tie_tol):
    node, allowed = None, {}
    for tree, _ in support:
        t_node, t_edge = _tie_masks(nus[tree], tree.edges, tie_tol)
        node = t_node if node is None else [a & b for a, b in zip(node, t_node)]
        for e, a in t_edge.items():
            allowed[e] = allowed[e] & a if e in allowed else a
    if not all(a.any() for a in node) or not all(a.any() for a in allowed.values()):
        return None, False
    cards = mrf.cardinalities
    allowed = {(s, t): allowed.get((s, t), np.ones((cards[s], cards[t]), dtype=bool))
               for (s, t) in mrf.edges}
    return _search(mrf, node, allowed, CERT_SEARCH_GUARD)


def _max_marginals_agree(nus, support, tol):
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


def _assemble_nu(total, rho_e):
    edge = {}
    for e, m in total.edge.items():
        m = m / rho_e[e]
        edge[e] = m - m.max()
    return PseudoMaxMarginals(tuple(v - v.max() for v in total.node), edge)


def run_tree_updates(mrf, dist, config=None):
    """The tree-based update loop, one dict DP per tree per iteration: a dict
    with the fields of `TrwResult` it fills."""
    config = config or TrwConfig()
    rho_e = edge_appearance(dist, mrf)
    support = dist.support_items()
    base = potentials(mrf)
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
        certificate, indeterminate = _shared_tree_optimum(mrf, nus, support, CERT_TIE_TOL)
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
                                np.asarray(_edge_or_zero(base, e, mrf.theta_edge[e].shape)),
                                config.damping)
                       for e in mrf.edges}
        base = Potentials(damped_node, damped_edge)
        thetas = _split_parameter(mrf, base, dist, rho_e)
    tables = ((w, Potentials(nus[tree].log_node, nus[tree].log_edge)) for tree, w in support)
    return dict(nu=_assemble_nu(_weighted_sum(mrf, tables), rho_e), iterations=iterations,
                converged=converged, certificate=certificate,
                certificate_indeterminate=indeterminate, bound_trace=tuple(bound_trace),
                terminated_by=terminated_by, messages_per_edge=units_per_iter * iterations)


# --- result checks ------------------------------------------------------------

class EdgeConsistencyReport(NamedTuple):
    per_edge: dict
    max_deviation: float


def check_edge_consistency(nu):
    edges = sorted(nu.log_edge)
    per_edge = {}
    for (s, t) in edges:
        m = nu.log_edge[(s, t)]
        d_s = m.max(axis=1) - nu.log_node[s]
        d_t = m.max(axis=0) - nu.log_node[t]
        dev = max(float(d_s.max() - d_s.min()), float(d_t.max() - d_t.min()))
        per_edge[(s, t)] = dev
    worst = max(per_edge.values()) if per_edge else 0.0
    return EdgeConsistencyReport(per_edge, worst)


# --- the bucketed synchronous kernels ----------------------------------------
#
# `trw._FlatMrf` as it was before its edges moved to one padded stack: edges
# grouped into buckets by table shape (m_s, m_t), every step a loop over the
# buckets, node sums scattered through `_gather` / `_scatter`, and the
# iteration loop with its change measure.  The grouping is kept here only:
# the library has no buckets.  Results leave through `log_node` and
# `log_edge` (`pseudo`), and the bound trace is the dict oracle's
# `bound_value`, which the bucketed bound matched bit for bit.  The padded
# kernels must reproduce these bit for bit.

class _RhoBucket(NamedTuple):
    """The edges of one table shape (m_s, m_t), in layout order, with their
    rho and, given the model, their tables."""

    edges: tuple
    pos: np.ndarray  # (E_b,): positions of the edges in the layout's `edges`
    idx_s: np.ndarray  # (E_b, m_s): positions of the s tables in the node vector
    idx_t: np.ndarray  # (E_b, m_t)
    rho: np.ndarray | None  # (E_b, 1)
    table: np.ndarray | None  # (E_b, m_s, m_t): theta_st / rho_st


class BucketedFlatMrf(_Layout):
    """A graph, its rho and optionally its model, laid out for array updates.

    The node vector is that of `_Layout`.  The edges are grouped into
    buckets by table shape (m_s, m_t), keeping `edges` order within a
    bucket; slot[k] is the (bucket, row) of the k-th edge.  Each bucket also
    holds rho (E_b, 1) and, given the model, theta_st / rho_st.  Two state
    kinds are tuples of per-bucket arrays: messages are (to_s, to_t) per
    bucket, to_s[i] being the log message t->s of the bucket's i-th edge;
    pseudo-max-marginals are the node vector followed by one
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
        groups = {}
        for k, (s, t) in enumerate(self.edges):
            groups.setdefault((int(cardinalities[s]), int(cardinalities[t])), []).append(k)
        self.buckets = []
        self.slot = [None] * len(self.edges)
        position, target = [], []
        for bi, ((ms, mt), ks) in enumerate(groups.items()):
            es = tuple(self.edges[k] for k in ks)
            pos = np.array(ks)
            idx_s = self.offsets[[s for s, _ in es]][:, None] + np.arange(ms)
            idx_t = self.offsets[[t for _, t in es]][:, None] + np.arange(mt)
            rho = None if rho_e is None else np.array([float(rho_e[e]) for e in es])[:, None]
            table = None
            if mrf is not None:
                table = np.array([mrf.theta_edge[e] for e in es]) / rho[:, :, None]
            self.buckets.append(_RhoBucket(es, pos, idx_s, idx_t, rho, table))
            for i, k in enumerate(ks):
                self.slot[k] = (bi, i)
            position += [np.repeat(pos, ms), np.repeat(pos, mt)]
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
        return PseudoMaxMarginals(tuple(np.split(nu[0], self.offsets[1:])),
                                  {e: nu[1 + bi][i] for e, (bi, i) in zip(self.edges, self.slot)})


def bucketed_change(new: tuple, old: tuple) -> float:
    """The bucketed iteration loop's change measure: the largest absolute
    log change over every array of two states."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(new, old))


def run_bucketed(mrf, dist_or_rho, config, variant):
    """`run_trw`'s iteration on the bucketed kernels: (pseudo-max-marginals,
    iterations, converged, bound trace, final messages or None)."""
    dist, rho_e = resolve_rho(mrf, dist_or_rho)
    if variant == "reparam":
        flat = BucketedFlatMrf(mrf.cardinalities, sorted(mrf.edges), rho_e, mrf)
        state, step = flat.pseudo_from_messages(flat.unit_messages()), flat.reparameterization_step

        def tables(nu):
            return nu
    else:
        flat = BucketedFlatMrf(mrf.cardinalities, mrf.edges, rho_e, mrf)
        state, step, tables = flat.unit_messages(), flat.message_step, flat.pseudo_from_messages
    bound_trace = []

    def observe(state):
        if dist is not None:
            bound_trace.append(bound_value(mrf, flat.pseudo(tables(state)), dist, rho_e))
    observe(state)
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        new = step(state, config.damping)
        delta = bucketed_change(new, state)
        state = new
        observe(state)
        if delta < config.tol:
            converged = True
            break
    messages = flat.message_set(state) if variant == "messages" else None
    return flat.pseudo(tables(state)), iterations, converged, tuple(bound_trace), messages


# --- the certificate search on unpruned candidates ------------------------

def search_common_config(candidates, edges, allowed, guard):
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


def search_tie_masks(layout, node_mask, edge_masks, guard):
    """`search_common_config` on tie masks laid out on `layout`: a node
    vector of candidate states and a stack of allowed pairs."""
    pos = np.flatnonzero(node_mask)
    node = layout.node_of[pos]
    candidates = [[] for _ in layout.offsets]
    for s, j in zip(node.tolist(), (pos - layout.offsets[node]).tolist()):
        candidates[s].append(j)
    return search_common_config(candidates, layout.edges, edge_masks.tolist(), guard)
